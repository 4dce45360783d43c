package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
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
// M=4096): exactly SortCost's 392 079 block I/Os (47.86 a block) in 1 516
// round trips for every input, under one trace, and a
// Disk high water of exactly 70 528 blocks, the input's 8 192 included.
// An in-memory store commits memory as the Sort first writes it, so the
// high water sets, to within a segment, what sort_mem allocates: more
// scratch fails here.
func TestSortIOsAtBenchmarkGeometry(t *testing.T) {
	const nBlocks, b, m = 1 << 13, 8, 4096
	want := SortCost(nBlocks, b, m, nBlocks*b)
	if want != (obs.Cost{IOs: 392079, RoundTrips: 1516}) {
		t.Fatalf("SortCost = %+v, want 392 079 I/Os in 1 516 round trips", want)
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
		if hw := env.D.HighWater(); hw != 70528 {
			t.Errorf("%s keys: disk high-water %d blocks, want 70 528 (8.609·n)", kind, hw)
		}
		if sum := rec.Summarize(); i == 0 {
			first = sum
		} else if !sum.Equal(first) {
			t.Errorf("%s keys: trace %v differs from random keys' %v", kind, sum, first)
		}
	}
}

// TestSortRecursionReachable keeps Theorem 21's recursion under test. At
// B = 64, M = 4 096 the top level's bucket capacities (552 and 1 405 blocks
// at these sizes) are lengths where Quantiles takes its Select arm, so the
// level below the top distributes again; at the benchmark geometry (B = 8)
// every bucket sorts directly. Each row sorts random keys and duplicate
// keys, checks both against a sort.SliceStable reference, and requires the
// two traces equal.
func TestSortRecursionReachable(t *testing.T) {
	const m = 4096
	for _, row := range []struct {
		nBlocks, b int
		recurses   bool
	}{{1100, 64, true}, {3300, 64, true}, {1 << 13, 8, false}} {
		nBlocks, b := row.nBlocks, row.b
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
			if err := Sort(env, a); err != nil {
				t.Fatalf("n=%d B=%d %s: %v", nBlocks, b, kind, err)
			}
			sum := rec.Summarize()
			ref := slices.Clone(elems)
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Key < ref[j].Key })
			for j, e := range readElems(a) {
				if !e.Occupied() || e.Key != ref[j].Key || e.Pos != ref[j].Pos || e.Val != ref[j].Val {
					t.Fatalf("n=%d B=%d %s: cell %d = %+v, reference %+v", nBlocks, b, kind, j, e, ref[j])
				}
			}
			if deeper := deeperLevels(col.Roots()); row.recurses != (deeper > 0) {
				t.Errorf("n=%d B=%d %s: %d randomized levels at depth 1, want recursion %v", nBlocks, b, kind, deeper, row.recurses)
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

// TestSortDealOverflowFailsTop: a level below the top whose deal overflows
// has dropped blocks, so the top-level Sort must return ErrSortFailed,
// never an array with elements missing. The seam shrinks the quota of the
// first depth-1 level alone to one block per colour per batch, at a
// geometry where depth 1 distributes.
func TestSortDealOverflowFailsTop(t *testing.T) {
	const nBlocks, b, m = 1100, 64, 4096
	forced := 0
	dealQuotaSeam = func(depth, quota int) int {
		if depth == 1 && forced == 0 {
			forced++
			return 1
		}
		return quota
	}
	defer func() { dealQuotaSeam = nil }()
	r := rand.New(rand.NewPCG(nBlocks, 38))
	keys := make([]uint64, nBlocks*b)
	for i := range keys {
		keys[i] = r.Uint64() % (1 << 40)
	}
	env := newTestEnv(nBlocks, b, m, 38)
	a := env.D.Alloc(nBlocks)
	buildKeyArray(a, keys)
	err := Sort(env, a)
	if forced != 1 {
		t.Fatal("no level at depth 1 dealt: the row no longer recurses")
	}
	if !errors.Is(err, ErrSortFailed) {
		t.Fatalf("Sort returned %v with %d of %d keys, want ErrSortFailed", err, len(occupiedKeys(readElems(a))), len(keys))
	}
	if used := env.Cache.Used(); used != 0 {
		t.Fatalf("%d words left checked out", used)
	}
}

// TestSortFailureTraceIndependentOfInput: a failed Sort's trace must not
// reveal what failed or how much was dropped. The seam overflows the deal
// of the first depth-1 level, as in TestSortDealOverflowFailsTop; over
// inputs that spread their blocks over that level's buckets differently,
// so that it drops different blocks, Sort returns ErrSortFailed with the
// cache balanced and one trace under one tape.
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
			forced := 0
			dealQuotaSeam = func(depth, quota int) int {
				if depth == 1 && forced == 0 {
					forced++
					return 1
				}
				return quota
			}
			defer func() { dealQuotaSeam = nil }()
			r := rand.New(rand.NewPCG(uint64(i), 39))
			keys := make([]uint64, nBlocks*b)
			for j := range keys {
				keys[j] = in.key(r, j)
			}
			var err error
			sum := traceOf(t, nBlocks, b, m, 39, func(env *extmem.Env) {
				a := env.D.Alloc(nBlocks)
				buildKeyArray(a, keys)
				err = Sort(env, a)
				if used := env.Cache.Used(); used != 0 {
					t.Errorf("%d words left checked out", used)
				}
			})
			if forced != 1 {
				t.Fatal("no level at depth 1 dealt: the row no longer recurses")
			}
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

// TestDirectLevelCost pins what a level below the top costs when it sorts
// directly: exactly the copy and obsort.DeterministicCost at the free cache,
// in block I/Os and in round trips — no count scan, since a bucket's
// occupancy is private and nothing below the top reads it. The rows are a
// benchmark bucket, which no columnsort matrix fits, and a length that is
// not a power of two at a small M/B, which columnsort sorts for 6 I/Os per
// block against bitonic's padded 15.7.
func TestDirectLevelCost(t *testing.T) {
	for _, g := range []struct {
		n, b, m int
		engine  string
	}{{1989, 8, 4096, "bitonic"}, {300, 8, 512, "columnsort"}} {
		if !sortsDirectly(g.n, g.b, g.m, 1) {
			t.Fatalf("%+v: the level does not sort directly", g)
		}
		r := rand.New(rand.NewPCG(uint64(g.n), 9))
		keys := make([]uint64, g.n*g.b-3)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		env := newTestEnv(g.n, g.b, g.m, 9)
		a := env.D.Alloc(g.n)
		buildKeyArray(a, keys)
		col := env.EnableObs()
		env.D.ResetStats()
		out, ok := sortPadded(env, a, g.m, 1)
		got := env.D.Stats().Cost()
		scan := obs.Cost{IOs: int64(g.n), RoundTrips: extmem.ScanRoundTrips(g.n, g.b, g.m, 1)}
		want := scan.Add(scan).Add(obsort.DeterministicCost(g.n, g.b, g.m))
		if !ok || got != want {
			t.Errorf("%+v: ok=%v, measured %+v, want copy + %s = %+v", g, ok, got, g.engine, want)
		}
		if !ranUnder(col.Roots(), "direct-sort", g.engine) {
			t.Errorf("%+v: the direct sort did not run %s:\n%s", g, g.engine, obs.RenderTree(col.Roots()))
		}
		slices.Sort(keys)
		if occ := occupiedKeys(readElems(out)); !equalU64(occ, keys) {
			t.Errorf("%+v: the level's output is not the sorted input", g)
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

// deeperLevels counts, in a span tree, the randomized levels that ran at
// depth 1.
func deeperLevels(spans []*obs.Span) int {
	n := 0
	for _, s := range spans {
		if s.Name == "randomized-level" && slices.Contains(s.Attrs, obs.Attr{Key: "depth", Value: "1"}) {
			n++
		}
		n += deeperLevels(s.Children)
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
	b.ReportMetric(float64(env.D.HighWater())/nBlocks, "disk-blocks/block")
}

// TestCopyDownOverlapping: the bucket results are copied onto the scratch
// the recursion just released, so source and destination overlap; copyArray
// copies forward in whole batches and must still deliver every block,
// across several batches.
func TestCopyDownOverlapping(t *testing.T) {
	const n, b, m, shift = 200, 4, 128, 3 // scan batch = m/b - 1 = 31 blocks
	env := newTestEnv(n+shift, b, m, 23)
	all := env.D.Alloc(n + shift)
	src, dst := all.Slice(shift, n+shift), all.Slice(0, n)
	want := make([]extmem.Element, n*b)
	for i := range want {
		if i%5 != 0 {
			want[i] = extmem.Element{Key: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		}
	}
	writeElems(src, want)
	if k := env.ScanBatchN(1, n); k >= n || k <= shift {
		t.Fatalf("scan batch %d: want several batches, each longer than the overlap shift", k)
	}
	copyArray(env, src, dst)
	for i, e := range readElems(dst) {
		if e != want[i] {
			t.Fatalf("element %d = %+v, want %+v", i, e, want[i])
		}
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

func TestConsolidateColorsStructure(t *testing.T) {
	env := newTestEnv(1024, 4, 256, 15)
	a := env.D.Alloc(32)
	r := rand.New(rand.NewPCG(6, 6))
	elems := make([]extmem.Element, 128)
	counts := map[int]int{}
	for i := range elems {
		c := 1 + r.IntN(4)
		elems[i] = extmem.Element{Key: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		elems[i].SetColor(c)
		counts[c]++
	}
	writeElems(a, elems)
	out := consolidateColors(env, a, 4)
	gotCounts := map[int]int{}
	buf := make([]extmem.Element, 4)
	for i := 0; i < out.Len(); i++ {
		out.Read(i, buf)
		blockColor := -1
		for _, e := range buf {
			if !e.Occupied() {
				continue
			}
			if blockColor == -1 {
				blockColor = e.Color()
			}
			if e.Color() != blockColor {
				t.Fatalf("block %d not monochromatic", i)
			}
			gotCounts[e.Color()]++
		}
	}
	for c, want := range counts {
		if gotCounts[c] != want {
			t.Fatalf("color %d: %d elements out, want %d", c, gotCounts[c], want)
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
