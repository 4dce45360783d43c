package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/rng"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

func checkSorted(t *testing.T, a extmem.Array, wantKeys []uint64) {
	t.Helper()
	elems := readElems(a)
	var got []uint64
	seenEmpty := false
	for i, e := range elems {
		if !e.Occupied() {
			seenEmpty = true
			continue
		}
		if seenEmpty {
			t.Fatalf("occupied cell after empty at element %d (not tight)", i)
		}
		got = append(got, e.Key)
	}
	want := append([]uint64(nil), wantKeys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%d keys out, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestSortSmall(t *testing.T) {
	env := newTestEnv(256, 4, 256, 3)
	a := env.D.Alloc(8)
	keys := []uint64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	buildKeyArray(a, keys)
	if err := Sort(env, a); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, a, keys)
}

func TestSortRecursivePipeline(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for _, cfg := range []struct {
		nBlocks, b, m int
		kind          string
	}{
		{256, 8, 256, "rand"}, // N=2048, M=256: a top level, then direct buckets
		{256, 8, 256, "sorted"},
		{256, 8, 256, "reverse"},
		{256, 8, 256, "dup"},
		{512, 8, 512, "rand"},
		{100, 4, 128, "rand"}, // non-power-of-two blocks
	} {
		env := newTestEnv(1<<16, cfg.b, cfg.m, uint64(cfg.nBlocks))
		a := env.D.Alloc(cfg.nBlocks)
		total := cfg.nBlocks * cfg.b * 3 / 4
		keys := make([]uint64, total)
		for i := range keys {
			switch cfg.kind {
			case "sorted":
				keys[i] = uint64(i)
			case "reverse":
				keys[i] = uint64(total - i)
			case "dup":
				keys[i] = uint64(i % 7)
			default:
				keys[i] = r.Uint64() % (1 << 48)
			}
		}
		buildKeyArray(a, keys)
		if err := Sort(env, a); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		checkSorted(t, a, keys)
		// Scratch is O(n): the top level's, plus one bucket's sort at a
		// time. The bound is looser than the 16·n of
		// TestSortIOsAtBenchmarkGeometry because M/B <= 64 here gives
		// q+1 = 3 buckets, each a third of the input, not a fifth, and the
		// additive q+2 and flush blocks per bucket weigh more (measured
		// 10.2–13.0·n; 13.1–17.2·n while every level distributed).
		if hw := env.D.HighWater(); hw > 20*cfg.nBlocks {
			t.Errorf("cfg %+v: disk high-water %d blocks > 20·n", cfg, hw)
		}
	}
}

// TestSortIOsAtBenchmarkGeometry pins Theorem 21's constant and footprint
// where the benchmark's sort_mem workload measures them (N=2^16, B=8,
// M=4096): exactly SortCost's 290 779 block I/Os (35.50 a block) in 567
// round trips (292 549 while bitonic padded each 1 989-block bucket to
// 2 048; 325 349 in 651 while colorize, consolidation and shuffle were
// three passes; 963 round trips while the scans, the routing groups,
// the deal and the shuffle sent each write apart from the next read, 1 026
// while the deterministic sort's passes did too) for every input, under
// one trace, and a Disk high water of exactly 58 881 blocks, the input's
// 8 192 included (67 076 while the level colored its input into a copy;
// 70 528 while every bucket was copied out, sorted and copied down, and
// dealt 5 005 blocks).
// An in-memory store commits memory as the Sort first writes it, so the
// high water sets, to within a segment, what sort_mem allocates: more
// scratch fails here.
func TestSortIOsAtBenchmarkGeometry(t *testing.T) {
	const nBlocks, b, m = 1 << 13, 8, 4096
	want := SortCost(nBlocks, b, m, nBlocks*b)
	if want != (obs.Cost{IOs: 290779, RoundTrips: 567}) {
		t.Fatalf("SortCost = %+v, want 290 779 I/Os in 567 round trips", want)
	}
	r := rand.New(rand.NewPCG(8, 8))
	var first trace.Summary
	for i, kind := range []string{"random", "equal", "ascending"} {
		keys := make([]uint64, nBlocks*b)
		for j := range keys {
			switch i {
			case 0:
				keys[j] = r.Uint64()
			case 1:
				keys[j] = 99
			default:
				keys[j] = uint64(j)
			}
		}
		env := newTestEnv(nBlocks, b, m, 21)
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		a := env.D.Alloc(nBlocks)
		buildKeyArray(a, keys)
		env.D.ResetStats()
		env.Cache.ResetHighWater()
		if err := Sort(env, a); err != nil {
			t.Fatal(err)
		}
		st := env.D.Stats() // before checkSorted reads the result back, a block a round trip
		checkSorted(t, a, keys)
		if got := st.Cost(); got != want {
			t.Errorf("%s keys: measured %+v, want SortCost's %+v", kind, got, want)
		}
		if hw := env.Cache.HighWater(); hw > m {
			t.Errorf("%s keys: %d private elements > M=%d", kind, hw, m)
		}
		if hw := env.D.HighWater(); hw != 58881 {
			t.Errorf("%s keys: disk high-water %d blocks, want 58 881 (7.188·n)", kind, hw)
		}
		if sum := rec.Summarize(); i == 0 {
			first = sum
		} else if !sum.Equal(first) {
			t.Errorf("%s keys: trace %v differs from random keys' %v", kind, sum, first)
		}
	}
}

// TestSortOneLevel: Sort distributes once and sorts every bucket where it
// lands, also where the rule it replaced distributed a bucket again. At
// B = 64, M = 4 096 the top level's bucket capacities (552 and 1 405
// blocks at these sizes) are lengths that rule sent to another level;
// there the Sort now costs exactly 65 205 I/Os in 995 round trips and
// 205 590 in 2 877 (129 183 in 2 099 and 356 460 in 5 345 while its
// buckets distributed again). The benchmark geometry (B = 8), 290 779 in
// 567, never recursed. Each row sorts random keys and duplicate keys,
// measures both at the row's cost, checks both against a sort.SliceStable
// reference, and requires the two traces equal and one randomized level
// in the span tree.
func TestSortOneLevel(t *testing.T) {
	const m = 4096
	for _, row := range []struct {
		nBlocks, b int
		cost       obs.Cost
	}{{1100, 64, obs.Cost{IOs: 65205, RoundTrips: 995}}, {3300, 64, obs.Cost{IOs: 205590, RoundTrips: 2877}}, {1 << 13, 8, obs.Cost{IOs: 290779, RoundTrips: 567}}} {
		nBlocks, b := row.nBlocks, row.b
		if c := SortCost(nBlocks, b, m, nBlocks*b); c != row.cost {
			t.Errorf("n=%d B=%d: SortCost %+v, want %+v", nBlocks, b, c, row.cost)
		}
		var first trace.Summary
		for i, kind := range []string{"rand", "dup"} {
			r := rand.New(rand.NewPCG(uint64(nBlocks), 35))
			elems := make([]extmem.Element, nBlocks*b)
			for j := range elems {
				key := r.Uint64() % (1 << 40)
				if kind == "dup" {
					key = uint64(j % 5)
				}
				elems[j] = extmem.Element{Key: key, Val: key ^ 0x5a5a, Pos: uint64(j), Flags: extmem.FlagOccupied}
			}
			env := newTestEnv(nBlocks, b, m, 35)
			col := env.EnableObs()
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			a := env.D.Alloc(nBlocks)
			writeElems(a, elems)
			env.D.ResetStats()
			if err := Sort(env, a); err != nil {
				t.Fatalf("n=%d B=%d %s: %v", nBlocks, b, kind, err)
			}
			if got := env.D.Stats().Cost(); got != row.cost {
				t.Errorf("n=%d B=%d %s: measured %+v, want %+v", nBlocks, b, kind, got, row.cost)
			}
			sum := rec.Summarize()
			ref := slices.Clone(elems)
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Key < ref[j].Key })
			for j, e := range readElems(a) {
				if !e.Occupied() || e.Key != ref[j].Key || e.Pos != ref[j].Pos || e.Val != ref[j].Val {
					t.Fatalf("n=%d B=%d %s: cell %d = %+v, reference %+v", nBlocks, b, kind, j, e, ref[j])
				}
			}
			if lv := levels(col.Roots()); lv != 1 {
				t.Errorf("n=%d B=%d %s: %d randomized levels ran, want 1", nBlocks, b, kind, lv)
			}
			if i == 0 {
				first = sum
			} else if !sum.Equal(first) {
				t.Errorf("n=%d B=%d: trace %v on duplicate keys differs from %v", nBlocks, b, sum, first)
			}
		}
	}
}

// TestSortTraceIndependentOfBucketSizes: splitters drawn from a sample make
// a bucket's occupancy private, so no decision below the top may read it.
// At the benchmark's -quick geometry (N = 2^10, B = 8, M = 512), where a
// bucket's occupancy lies on both sides of the private-sort threshold,
// random inputs whose buckets part differently, skewed keys and one
// constant key must all leave one trace.
func TestSortTraceIndependentOfBucketSizes(t *testing.T) {
	const nBlocks, b, m = 128, 8, 512
	r := rand.New(rand.NewPCG(10, 38))
	var inputs [][]uint64
	for range 64 {
		keys := make([]uint64, nBlocks*b)
		for j := range keys {
			keys[j] = r.Uint64()
		}
		inputs = append(inputs, keys)
	}
	skewed, constant := make([]uint64, nBlocks*b), make([]uint64, nBlocks*b)
	for j := range skewed {
		skewed[j] = uint64(r.ExpFloat64() * 3)
		constant[j] = 7
	}
	inputs = append(inputs, skewed, constant)
	var first trace.Summary
	for i, keys := range inputs {
		sum := traceOf(t, nBlocks, b, m, 38, func(env *extmem.Env) {
			a := env.D.Alloc(nBlocks)
			buildKeyArray(a, keys)
			if err := Sort(env, a); err != nil {
				t.Fatalf("input %d: %v", i, err)
			}
			checkSorted(t, a, keys)
		})
		if i == 0 {
			first = sum
		} else if !sum.Equal(first) {
			t.Fatalf("input %d: trace %v differs from input 0's %v", i, sum, first)
		}
	}
}

// TestSortDealOverflowFailsTop: a level whose deal overflows has dropped
// blocks, so Sort must return ErrSortFailed, never an array with elements
// missing. The plan is edited to shrink the level's quota to one block per
// colour per batch.
func TestSortDealOverflowFailsTop(t *testing.T) {
	const nBlocks, b, m = 1100, 64, 4096
	r := rand.New(rand.NewPCG(nBlocks, 38))
	keys := make([]uint64, nBlocks*b)
	for i := range keys {
		keys[i] = r.Uint64() % (1 << 40)
	}
	env := newTestEnv(nBlocks, b, m, 38)
	a := env.D.Alloc(nBlocks)
	buildKeyArray(a, keys)
	err := sortOverflowingDeal(t, env, a)
	if !errors.Is(err, ErrSortFailed) {
		t.Fatalf("Sort returned %v with %d of %d keys, want ErrSortFailed", err, len(occupiedKeys(readElems(a))), len(keys))
	}
	if used := env.Cache.Used(); used != 0 {
		t.Fatalf("%d words left checked out", used)
	}
}

// TestSortFailureTraceIndependentOfInput: a failed Sort's trace must not
// reveal what failed or how much was dropped. The edited plan overflows
// the level's deal, as in TestSortDealOverflowFailsTop; over inputs that
// spread their blocks over its buckets differently, so that they drop
// different blocks, Sort returns ErrSortFailed with the cache balanced and
// one trace under one tape.
func TestSortFailureTraceIndependentOfInput(t *testing.T) {
	const nBlocks, b, m = 1100, 64, 4096
	var first trace.Summary
	for i, in := range []struct {
		name string
		key  func(r *rand.Rand, i int) uint64
	}{
		{"random", func(r *rand.Rand, _ int) uint64 { return r.Uint64() % (1 << 40) }},
		{"ascending", func(_ *rand.Rand, i int) uint64 { return uint64(i) }},
		{"duplicates", func(_ *rand.Rand, i int) uint64 { return uint64(i % 3) }},
	} {
		t.Run(in.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(i), 39))
			keys := make([]uint64, nBlocks*b)
			for j := range keys {
				keys[j] = in.key(r, j)
			}
			var err error
			sum := traceOf(t, nBlocks, b, m, 39, func(env *extmem.Env) {
				a := env.D.Alloc(nBlocks)
				buildKeyArray(a, keys)
				err = sortOverflowingDeal(t, env, a)
				if used := env.Cache.Used(); used != 0 {
					t.Errorf("%d words left checked out", used)
				}
			})
			if !errors.Is(err, ErrSortFailed) {
				t.Fatalf("Sort returned %v, want ErrSortFailed", err)
			}
			if i == 0 {
				first = sum
			} else if !sum.Equal(first) {
				t.Fatalf("failure trace %v differs from the random input's %v", sum, first)
			}
		})
	}
}

// sortOverflowingDeal is Sort under its plan edited to force Corollary
// 19's overflow, an event chance would not produce in a test's lifetime:
// the level deals one block per colour per batch, its bucket capacity cut
// to the colour arrays that leaves. The buckets must sort in their slots,
// which a shorter capacity leaves valid.
func sortOverflowingDeal(t *testing.T, env *extmem.Env, a extmem.Array) error {
	t.Helper()
	n, b, free := a.Len(), a.B(), env.M-env.Cache.Used()
	mark := env.D.Mark()
	defer env.D.Release(mark)
	sample, occ, sOcc := countAndSample(env, a, samples(n, b, free))
	p := planSort(n, b, free, occ)
	if p.kind != kindDistributes {
		t.Fatalf("n=%d, B=%d, M=%d: the level does not distribute", n, b, free)
	}
	lv := &p.lv
	lv.quota, lv.capB = 1, min(lv.capB, extmem.CeilDiv(lv.apLen, lv.batch))
	return p.sort(env, a, sample, sOcc)
}

// TestDirectLevelCost pins what a bucket costs when it sorts directly:
// exactly the compaction of its dealt color array into its slot and
// obsort.DeterministicCost at the free cache, in block I/Os and in round
// trips — no count scan, since a bucket's occupancy is private and nothing
// below the top reads it, and no copy either way, since it is sorted where
// the level's result keeps it. The rows are a benchmark bucket, which no
// columnsort matrix fits, and a length that is not a power of two at a
// small M/B, which columnsort sorts for 6 I/Os per block against bitonic's
// padded 15.7. The color array is a quarter longer than the bucket, every
// fifth block empty, and the slot is as long as the color array, with a
// sentinel past it that must survive.
func TestDirectLevelCost(t *testing.T) {
	for _, g := range []struct {
		n, b, m int
		engine  string
	}{{1989, 8, 4096, "bitonic"}, {300, 8, 512, "columnsort"}} {
		if g.n*g.b <= g.m/2 {
			t.Fatalf("%+v: the bucket does not sort directly", g)
		}
		r := rand.New(rand.NewPCG(uint64(g.n), 9))
		keys := make([]uint64, g.n*g.b-3)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		l := g.n + g.n/4
		env := newTestEnv(3*l, g.b, g.m, 9)
		arr := env.D.Alloc(l)
		cells := make([]extmem.Element, l*g.b)
		for i, j := 0, 0; i < l && j < len(keys); i++ {
			if i%5 == 4 {
				continue
			}
			for t := i * g.b; t < (i+1)*g.b && j < len(keys); t++ {
				cells[t] = extmem.Element{Key: keys[j], Pos: uint64(j), Flags: extmem.FlagOccupied}
				j++
			}
		}
		writeElems(arr, cells)
		region := env.D.Alloc(l + 1)
		sentinel := make([]extmem.Element, g.b)
		sentinel[0] = extmem.Element{Key: 7, Flags: extmem.FlagOccupied}
		region.Write(l, sentinel)
		col := env.EnableObs()
		env.D.ResetStats()
		mark := env.D.Mark()
		ok := sortInSlot(env, arr, region.Slice(0, l), g.n, kindDirect, g.m)
		got := env.D.Stats().Cost()
		want := route.CompactCost(l, 0, g.b, g.m).Add(obsort.DeterministicCost(g.n, g.b, g.m))
		if !ok || got != want {
			t.Errorf("%+v: ok=%v, measured %+v, want compaction + %s = %+v", g, ok, got, g.engine, want)
		}
		if env.D.Mark() != mark {
			t.Errorf("%+v: the bucket left %d blocks allocated", g, env.D.Mark()-mark)
		}
		if !ranUnder(col.Roots(), "direct-sort", g.engine) {
			t.Errorf("%+v: the direct sort did not run %s:\n%s", g, g.engine, obs.RenderTree(col.Roots()))
		}
		slices.Sort(keys)
		if occ := occupiedKeys(readElems(region.Slice(0, g.n))); !equalU64(occ, keys) {
			t.Errorf("%+v: the slot's first %d blocks are not the sorted bucket", g, g.n)
		}
		if occ := occupiedKeys(readElems(region.Slice(g.n, l))); len(occ) != 0 {
			t.Errorf("%+v: %d elements past the bucket's capacity", g, len(occ))
		}
		if occ := occupiedKeys(readElems(region.Slice(l, l+1))); !equalU64(occ, []uint64{7}) {
			t.Errorf("%+v: the block past the slot was overwritten", g)
		}
	}
}

// TestPrivateLevelCost is TestDirectLevelCost's other arm: a bucket that
// fits half the cache sorts privately in its slot, for exactly the
// compaction of its dealt color array and privateCost, and bucketSort
// chooses that arm exactly when capB·B ≤ M/2. The first row's bucket fills
// half the cache to the element, so one block more sorts directly.
func TestPrivateLevelCost(t *testing.T) {
	for _, g := range []struct{ n, b, m int }{{32, 8, 512}, {100, 4, 1024}} {
		for _, n := range []int{g.n, g.n + 1} {
			kind, c := bucketSort(n, g.b, g.m)
			if private := n*g.b <= g.m/2; private != (kind == kindPrivate) {
				t.Errorf("%+v: bucketSort(%d) chose kind %d, want private=%v", g, n, kind, private)
			}
			if kind == kindPrivate && c != privateCost(n, g.b, g.m) {
				t.Errorf("%+v: bucketSort(%d) prices %+v, want privateCost %+v", g, n, c, privateCost(n, g.b, g.m))
			}
		}

		r := rand.New(rand.NewPCG(uint64(g.n), 11))
		keys := make([]uint64, g.n*g.b-3)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		l := g.n + g.n/4
		env := newTestEnv(3*l, g.b, g.m, 9)
		arr := env.D.Alloc(l)
		cells := make([]extmem.Element, l*g.b)
		for i, j := 0, 0; i < l && j < len(keys); i++ {
			if i%5 == 4 {
				continue
			}
			for t := i * g.b; t < (i+1)*g.b && j < len(keys); t++ {
				cells[t] = extmem.Element{Key: keys[j], Pos: uint64(j), Flags: extmem.FlagOccupied}
				j++
			}
		}
		writeElems(arr, cells)
		region := env.D.Alloc(l + 1)
		sentinel := make([]extmem.Element, g.b)
		sentinel[0] = extmem.Element{Key: 7, Flags: extmem.FlagOccupied}
		region.Write(l, sentinel)
		env.D.ResetStats()
		mark := env.D.Mark()
		ok := sortInSlot(env, arr, region.Slice(0, l), g.n, kindPrivate, g.m)
		got := env.D.Stats().Cost()
		want := route.CompactCost(l, 0, g.b, g.m).Add(privateCost(g.n, g.b, g.m))
		if !ok || got != want {
			t.Errorf("%+v: ok=%v, measured %+v, want compaction + private sort = %+v", g, ok, got, want)
		}
		if env.D.Mark() != mark {
			t.Errorf("%+v: the bucket left %d blocks allocated", g, env.D.Mark()-mark)
		}
		if env.Cache.Used() != 0 {
			t.Errorf("%+v: the bucket left %d cache elements in use", g, env.Cache.Used())
		}
		slices.Sort(keys)
		if occ := occupiedKeys(readElems(region.Slice(0, g.n))); !equalU64(occ, keys) {
			t.Errorf("%+v: the slot's first %d blocks are not the sorted bucket", g, g.n)
		}
		if occ := occupiedKeys(readElems(region.Slice(g.n, l))); len(occ) != 0 {
			t.Errorf("%+v: %d elements past the bucket's capacity", g, len(occ))
		}
		if occ := occupiedKeys(readElems(region.Slice(l, l+1))); !equalU64(occ, []uint64{7}) {
			t.Errorf("%+v: the block past the slot was overwritten", g)
		}
	}
}

// TestSplitterCountAndDealBatchExact: §5's q = ⌊(M/B)^{1/4}⌋ and deal batch
// ⌊(M/B)^{3/4}⌋ are exact integer roots for every M/B up to 2^20, including
// the named rows where a float Pow lands one short.
func TestSplitterCountAndDealBatchExact(t *testing.T) {
	for _, c := range []struct{ m, q, batch int }{
		{512, 4, 107}, // the benchmark geometry: float and integer agree
		{4096, 8, 512},
		{6561, 9, 729},
		{10000, 10, 1000},
		{65536, 16, 4096},
	} {
		if q, batch := splitterCount(c.m), dealBatch(c.m); q != c.q || batch != c.batch {
			t.Errorf("M/B=%d: q=%d batch=%d, want %d and %d", c.m, q, batch, c.q, c.batch)
		}
	}
	p4 := func(x uint64) uint64 { return x * x * x * x }
	for m := uint64(1); m <= 1<<20; m++ {
		q, batch := uint64(splitterCount(int(m))), uint64(dealBatch(int(m)))
		if p4(q) > m || p4(q+1) <= m {
			t.Fatalf("M/B=%d: q=%d is not the fourth root's floor", m, q)
		}
		if m3 := m * m * m; p4(batch) > m3 || p4(batch+1) <= m3 {
			t.Fatalf("M/B=%d: batch=%d is not the floor of (M/B)^(3/4)", m, batch)
		}
	}
}

// ranUnder reports whether a span named child ran below one named parent,
// or anywhere for parent "".
func ranUnder(spans []*obs.Span, parent, child string) bool {
	for _, s := range spans {
		if parent == "" && s.Name == child || s.Name == parent && ranUnder(s.Children, "", child) || ranUnder(s.Children, parent, child) {
			return true
		}
	}
	return false
}

// levels counts, in a span tree, the randomized levels that ran.
func levels(spans []*obs.Span) int {
	n := 0
	for _, s := range spans {
		if s.Name == "randomized-level" {
			n++
		}
		n += levels(s.Children)
	}
	return n
}

// BenchmarkSortRandomized is one randomized Sort at the benchmark's sort_mem
// geometry, reporting the two figures the theorem and the allocator are
// held to.
func BenchmarkSortRandomized(b *testing.B) {
	const nBlocks, bs, m = 1 << 13, 8, 4096
	env := newTestEnv(nBlocks, bs, m, 1)
	a := env.D.Alloc(nBlocks)
	r := rand.New(rand.NewPCG(1, 18))
	keys := make([]uint64, nBlocks*bs)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	buildKeyArray(a, keys)
	env.D.ResetStats()
	b.ReportAllocs()
	for b.Loop() {
		if err := Sort(env, a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/nBlocks, "ios/block")
	b.ReportMetric(float64(env.D.Stats().RoundTrips)/float64(b.N), "rt/op")
	b.ReportMetric(float64(env.D.HighWater())/nBlocks, "disk-blocks/block")
}

// BenchmarkSortCost prices one randomized Sort of 2^28 blocks at (8, 4 096).
// Its predictor sums each routing's plan in closed form and takes
// milliseconds; a per-window replay of the routings would take a second.
func BenchmarkSortCost(b *testing.B) {
	const nBlocks, bs, m = 1 << 28, 8, 4096
	for b.Loop() {
		SortCost(nBlocks, bs, m, nBlocks*bs)
	}
}

// TestSortAllocs: one randomized Sort at the benchmark's sort_mem geometry
// allocates 19 heap objects, a level's bookkeeping, and none per block or
// per element: the color consolidation stages its elements in one buffer
// checked out of the cache, its shuffle lays out every window in one list
// it reuses, and the deal indexes a batch in storage it reuses. The bound
// is the count itself, so one more object a Sort fails here (25 while
// colorize, consolidation and shuffle were three passes, the shuffle with
// a map; 3 640 while the consolidation's per-color slices grew and were
// cut from the front).
func TestSortAllocs(t *testing.T) {
	const nBlocks, b, m = 1 << 13, 8, 4096
	env := newTestEnv(nBlocks, b, m, 1)
	a := env.D.Alloc(nBlocks)
	r := rand.New(rand.NewPCG(1, 18))
	keys := make([]uint64, nBlocks*b)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	buildKeyArray(a, keys)
	allocs := testing.AllocsPerRun(2, func() {
		if err := Sort(env, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 19 {
		t.Errorf("a Sort allocates %.0f objects, want at most 19", allocs)
	}
}

func TestSortPreservesPayload(t *testing.T) {
	env := newTestEnv(1<<14, 8, 256, 5)
	a := env.D.Alloc(128)
	elems := make([]extmem.Element, 1024)
	for i := range elems {
		elems[i] = extmem.Element{Key: uint64(1024 - i), Val: uint64(1024-i) * 31, Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	writeElems(a, elems)
	if err := Sort(env, a); err != nil {
		t.Fatal(err)
	}
	for i, e := range readElems(a) {
		if i >= 1024 {
			break
		}
		if !e.Occupied() || e.Key != uint64(i+1) || e.Val != e.Key*31 {
			t.Fatalf("element %d: %+v", i, e)
		}
	}
}

func TestSortOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	run := func(keys []uint64) trace.Summary {
		return traceOf(t, 1<<15, 8, 256, 123, func(env *extmem.Env) {
			a := env.D.Alloc(256)
			buildKeyArray(a, keys)
			if err := Sort(env, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	total := 2048
	uniform := make([]uint64, total)
	for i := range uniform {
		uniform[i] = r.Uint64()
	}
	constant := make([]uint64, total)
	for i := range constant {
		constant[i] = 99
	}
	sortedK := make([]uint64, total)
	for i := range sortedK {
		sortedK[i] = uint64(i)
	}
	s1, s2, s3 := run(uniform), run(constant), run(sortedK)
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("sort trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestSortCacheBound(t *testing.T) {
	env := newTestEnv(1<<15, 8, 256, 7)
	a := env.D.Alloc(256)
	r := rand.New(rand.NewPCG(5, 5))
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	buildKeyArray(a, keys)
	env.Cache.ResetHighWater()
	if err := Sort(env, a); err != nil {
		t.Fatal(err)
	}
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("sort used %d private elements > M=%d", hw, env.M)
	}
}

// TestConsolidateColorsStructure: the pass from a level's input to its
// shuffled consolidated array colours every element by the splitters and
// keeps every one of them, in n + 2·colors blocks, each monochromatic and
// each full or empty but for fewer than 2·colors flush blocks.
func TestConsolidateColorsStructure(t *testing.T) {
	const n, b, colors = 32, 4, 4
	env := newTestEnv(1024, b, 256, 15)
	a := env.D.Alloc(n)
	r := rand.New(rand.NewPCG(6, 6))
	elems := make([]extmem.Element, n*b)
	counts := map[int]int{}
	for i := range elems {
		if r.IntN(5) == 0 {
			continue
		}
		c := 1 + r.IntN(colors)
		elems[i] = extmem.Element{Key: uint64((c-1)*1000 + i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		counts[c]++
	}
	writeElems(a, elems)
	splitters := []bound{{key: 999, pos: math.MaxUint64}, {key: 1999, pos: math.MaxUint64}, {key: 2999, pos: math.MaxUint64}}
	out := consolidateShuffle(env, a, splitters, sortLevel{q: colors - 1, apLen: n + 2*colors, win: 3})
	if out.Len() != n+2*colors {
		t.Fatalf("%d blocks out, want %d", out.Len(), n+2*colors)
	}
	gotCounts := map[int]int{}
	partial := 0
	buf := make([]extmem.Element, b)
	for i := 0; i < out.Len(); i++ {
		out.Read(i, buf)
		blockColor, occ := -1, 0
		for _, e := range buf {
			if !e.Occupied() {
				continue
			}
			if want := 1 + int(e.Key)/1000; e.Color() != want {
				t.Fatalf("block %d: key %d colored %d, want %d", i, e.Key, e.Color(), want)
			}
			if blockColor == -1 {
				blockColor = e.Color()
			}
			if e.Color() != blockColor {
				t.Fatalf("block %d not monochromatic", i)
			}
			gotCounts[e.Color()]++
			occ++
		}
		if occ > 0 && occ < b {
			partial++
		}
	}
	if partial >= 2*colors {
		t.Fatalf("%d partial blocks, want fewer than %d", partial, 2*colors)
	}
	for c, want := range counts {
		if gotCounts[c] != want {
			t.Fatalf("color %d: %d elements out, want %d", c, gotCounts[c], want)
		}
	}
}

// consolidateShuffleRef is consolidateShuffle as two scalar loops over a's
// cells: the consolidation block by block, a FIFO queue per colour, then
// the inside-out Fisher–Yates, output block i ≥ 1 swapped with block
// j = tape.IntN(i+1). It returns the blocks and the draws, js[i] = j.
func consolidateShuffleRef(cells []extmem.Element, b int, bounds []bound, tape *rng.Tape) ([][]extmem.Element, []int) {
	colors, n := len(bounds)+1, len(cells)/b
	queue := make([][]extmem.Element, colors+1)
	out := make([][]extmem.Element, n+2*colors)
	for i := range out {
		need := 1
		if i < n {
			need = b
			for _, e := range cells[i*b : (i+1)*b] {
				if e.Occupied() {
					c := 1
					for j, bd := range bounds {
						if bd.lessElem(e) {
							c = j + 2
						}
					}
					e.SetColor(c)
					queue[c] = append(queue[c], e)
				}
			}
		}
		out[i] = make([]extmem.Element, b)
		for c := 1; c <= colors; c++ {
			if len(queue[c]) >= need {
				k := copy(out[i], queue[c])
				queue[c] = queue[c][k:]
				break
			}
		}
	}
	js := make([]int, len(out))
	for i := 1; i < len(out); i++ {
		js[i] = tape.IntN(i + 1)
		out[i], out[js[i]] = out[js[i]], out[i]
	}
	return out, js
}

// TestConsolidateShuffleMatchesScalar: the one pass from a level's input to
// its shuffled consolidated array leaves, block for block, what the scalar
// consolidation and then the scalar inside-out Fisher–Yates leave on the
// same tape, at its predicted price. The rows: a small window over an
// output whose length is no multiple of it, where draws of one window hit
// one target below it twice and a block inside it; the top level of a
// Sort at (300, 8, 512); and the top level of a Sort at B = 64 over 552
// blocks, a bucket's length in TestSortOneLevel.
func TestConsolidateShuffleMatchesScalar(t *testing.T) {
	for _, row := range []struct {
		name    string
		n, b, m int
		lv      sortLevel
	}{
		{"collisions", 37, 4, 256, sortLevel{q: 2, apLen: 37 + 6, win: 5}},
		{"top", 300, 8, 512, planSort(300, 8, 512, 300*8).lv},
		{"top-b64", 552, 64, 4096, planSort(552, 64, 4096, 552*64).lv},
	} {
		t.Run(row.name, func(t *testing.T) {
			n, b, lv := row.n, row.b, row.lv
			if lv.apLen%lv.win == 0 || lv.apLen != n+2*(lv.q+1) {
				t.Fatalf("%+v over %d blocks: want an output of n + 2(q+1) blocks, no multiple of the window", lv, n)
			}
			r := rand.New(rand.NewPCG(uint64(n), 56))
			cells := make([]extmem.Element, n*b)
			keys := make([]uint64, 0, len(cells))
			for i := range cells {
				if r.IntN(7) > 0 {
					cells[i] = extmem.Element{Key: r.Uint64() % 1000, Pos: uint64(i), Flags: extmem.FlagOccupied}
					keys = append(keys, cells[i].Key)
				}
			}
			slices.Sort(keys)
			bounds := make([]bound, lv.q)
			for j := range bounds {
				bounds[j] = bound{key: keys[(j+1)*len(keys)/(lv.q+1)], pos: uint64(j * 7)}
			}
			env, ref := newTestEnv(4*n, b, row.m, 56), newTestEnv(0, b, row.m, 56)
			a := env.D.Alloc(n)
			writeElems(a, cells)
			env.D.ResetStats()
			ap := consolidateShuffle(env, a, bounds, lv)
			if got, want := env.D.Stats().Cost(), consolidateShuffleCost(n, lv); got != want {
				t.Errorf("measured %+v, predicted %+v", got, want)
			}
			if hw := env.Cache.HighWater(); hw > row.m {
				t.Errorf("cache high-water %d > M = %d", hw, row.m)
			}
			wantBlocks, js := consolidateShuffleRef(cells, b, bounds, ref.Tape)
			got := readElems(ap)
			for i, blk := range wantBlocks {
				for k, e := range blk {
					if got[i*b+k] != e {
						t.Fatalf("block %d, cell %d = %+v, the scalar reference's %+v", i, k, got[i*b+k], e)
					}
				}
			}
			if row.name != "collisions" {
				return
			}
			twice, inside := false, false
			for i0 := lv.win; i0 < lv.apLen; i0 += lv.win {
				seen := map[int]bool{}
				for i := i0; i < min(i0+lv.win, lv.apLen); i++ {
					twice = twice || js[i] < i0 && seen[js[i]]
					inside = inside || js[i] >= i0 && js[i] < i
					seen[js[i]] = true
				}
			}
			if !twice || !inside {
				t.Errorf("no window drew one target below it twice (%v) or a block inside it (%v)", twice, inside)
			}
		})
	}
}

// TestConsolidateShuffleUniform: a block's final position in the shuffled
// consolidated array is uniform. Ten full blocks, each of one colour, so
// that consolidation leaves each in its own place, go through the pass in
// windows of 3 into 14 blocks, 20 000 times from one tape; each block's
// count per position is tested by Pearson's χ² with 13 degrees of freedom
// against 41.2, the Wilson–Hilferty value at 10^-4 (Bonferroni over the ten
// blocks: a false alarm at most 10^-3 over the test).
func TestConsolidateShuffleUniform(t *testing.T) {
	const n, b, trials = 10, 2, 20000
	lv := sortLevel{q: 1, apLen: n + 4, win: 3}
	env := newTestEnv(n+lv.apLen, b, 64, 57)
	a := env.D.Alloc(n)
	cells := make([]extmem.Element, n*b)
	for i := range cells {
		cells[i] = extmem.Element{Key: uint64(i / b), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	writeElems(a, cells)
	bounds := []bound{{key: n / 2, pos: 0}}
	count := make([][]int, n)
	for i := range count {
		count[i] = make([]int, lv.apLen)
	}
	for range trials {
		mark := env.D.Mark()
		for pos, e := range readElems(consolidateShuffle(env, a, bounds, lv)) {
			if e.Occupied() && e.Pos%b == 0 {
				count[e.Key][pos/b]++
			}
		}
		env.D.Release(mark)
	}
	const crit = 41.2
	expect := float64(trials) / float64(lv.apLen)
	for blk, row := range count {
		chi := 0.0
		for _, o := range row {
			chi += (float64(o) - expect) * (float64(o) - expect) / expect
		}
		if chi > crit {
			t.Errorf("block %d: χ² = %.1f > %.1f over its positions %v", blk, chi, crit, row)
		}
	}
}

func TestDealQuotasAndOverflow(t *testing.T) {
	env := newTestEnv(2048, 4, 256, 17)
	a := env.D.Alloc(32)
	// All 32 blocks the same color: with quota 2 and batch 8 every batch
	// overflows.
	blk := make([]extmem.Element, 4)
	for c := 0; c < 32; c++ {
		for t := range blk {
			blk[t] = extmem.Element{Key: uint64(c), Pos: uint64(c*4 + t), Flags: extmem.FlagOccupied}
			blk[t].SetColor(1)
		}
		a.Write(c, blk)
	}
	arrs, ok := deal(env, a, 2, 8, 2)
	if ok {
		t.Fatal("overflow not reported")
	}
	if arrs[0].Len() != 8 || arrs[1].Len() != 8 {
		t.Fatalf("deal output sizes %d/%d, want 8/8", arrs[0].Len(), arrs[1].Len())
	}
	// Generous quota: no overflow, all blocks present.
	arrs, ok = deal(env, a, 2, 8, 8)
	if !ok {
		t.Fatal("unexpected overflow")
	}
	occ := 0
	for i := 0; i < arrs[0].Len(); i++ {
		arrs[0].Read(i, blk)
		if blk[0].Occupied() {
			occ++
		}
	}
	if occ != 32 {
		t.Fatalf("color 1 received %d blocks, want 32", occ)
	}
}
