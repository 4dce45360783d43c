package obsort

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

// fillArray writes the given keys (all occupied) into the array, padding
// remaining cells as empty, and returns the number of occupied elements.
func fillArray(env *extmem.Env, a extmem.Array, keys []uint64) {
	b := a.B()
	buf := make([]extmem.Element, b)
	idx := 0
	for blk := 0; blk < a.Len(); blk++ {
		for t := 0; t < b; t++ {
			if idx < len(keys) {
				buf[t] = extmem.Element{Key: keys[idx], Val: keys[idx] * 3, Pos: uint64(idx), Flags: extmem.FlagOccupied}
				idx++
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(blk, buf)
	}
}

// readAll returns all elements of the array in order.
func readAll(a extmem.Array) []extmem.Element {
	b := a.B()
	out := make([]extmem.Element, 0, a.Len()*b)
	buf := make([]extmem.Element, b)
	for blk := 0; blk < a.Len(); blk++ {
		a.Read(blk, buf)
		out = append(out, buf...)
	}
	return out
}

// checkSortedPadded verifies padded sort semantics: occupied elements
// non-decreasing and all empties after all occupied; returns the occupied
// keys in order.
func checkSortedPadded(t *testing.T, elems []extmem.Element) []uint64 {
	t.Helper()
	var keys []uint64
	seenEmpty := false
	for i, e := range elems {
		if !e.Occupied() {
			seenEmpty = true
			continue
		}
		if seenEmpty {
			t.Fatalf("occupied element at %d after an empty cell", i)
		}
		if len(keys) > 0 && keys[len(keys)-1] > e.Key {
			t.Fatalf("out of order at %d: %d > %d", i, keys[len(keys)-1], e.Key)
		}
		keys = append(keys, e.Key)
	}
	return keys
}

func multiset(keys []uint64) map[uint64]int {
	m := map[uint64]int{}
	for _, k := range keys {
		m[k]++
	}
	return m
}

func sameMultiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

func genKeys(r *rand.Rand, n int, kind string) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch kind {
		case "sorted":
			keys[i] = uint64(i)
		case "reverse":
			keys[i] = uint64(n - i)
		case "dup":
			keys[i] = uint64(r.IntN(4))
		case "equal":
			keys[i] = 7
		default:
			keys[i] = r.Uint64() % 1_000_000
		}
	}
	return keys
}

func TestBitonicSortCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, b := range []int{2, 8} {
		for _, nBlocks := range []int{1, 2, 3, 5, 8, 17, 64} {
			for _, kind := range []string{"rand", "sorted", "reverse", "dup", "equal"} {
				for _, frac := range []int{100, 60} { // occupancy percent
					env := extmem.NewEnv(4*nBlocks+16, b, 8*b, 7)
					a := env.D.Alloc(nBlocks)
					nk := nBlocks * b * frac / 100
					keys := genKeys(r, nk, kind)
					fillArray(env, a, keys)
					Bitonic(env, a, ByKey)
					got := checkSortedPadded(t, readAll(a))
					if !sameMultiset(got, keys) {
						t.Fatalf("b=%d n=%d kind=%s frac=%d: multiset changed", b, nBlocks, kind, frac)
					}
				}
			}
		}
	}
}

func TestBitonicRespectsCacheBound(t *testing.T) {
	env := extmem.NewEnv(64, 4, 32, 3)
	a := env.D.Alloc(32)
	r := rand.New(rand.NewPCG(5, 5))
	fillArray(env, a, genKeys(r, 128, "rand"))
	env.Cache.ResetHighWater()
	Bitonic(env, a, ByKey)
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("bitonic used %d private elements, budget %d", hw, env.M)
	}
}

// TestBitonicOblivious is the core security property: with the same
// geometry, two different inputs produce bit-identical traces.
func TestBitonicOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	run := func(keys []uint64) trace.Summary {
		env := extmem.NewEnv(64, 4, 32, 3)
		a := env.D.Alloc(24)
		fillArray(env, a, keys)
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		Bitonic(env, a, ByKey)
		return rec.Summarize()
	}
	s1 := run(genKeys(r, 96, "rand"))
	s2 := run(genKeys(r, 96, "equal"))
	s3 := run(genKeys(r, 96, "reverse"))
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("bitonic trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestBitonicSortsByPos(t *testing.T) {
	env := extmem.NewEnv(32, 4, 32, 3)
	a := env.D.Alloc(4)
	// Occupied elements with positions in reverse order.
	b := a.B()
	buf := make([]extmem.Element, b)
	pos := uint64(16)
	for blk := 0; blk < 4; blk++ {
		for tt := 0; tt < b; tt++ {
			pos--
			buf[tt] = extmem.Element{Key: 5, Pos: pos, Flags: extmem.FlagOccupied}
		}
		a.Write(blk, buf)
	}
	Bitonic(env, a, ByPos)
	elems := readAll(a)
	for i, e := range elems {
		if e.Pos != uint64(i) {
			t.Fatalf("pos order broken at %d: %d", i, e.Pos)
		}
	}
}

func TestBitonicPassCountMatchesMeasuredIO(t *testing.T) {
	// Block counts that are not powers of two skip the padding they would
	// read in the first pass and write in the last; M/B runs from 4 to 512.
	for _, cfg := range []struct{ n, b, m int }{
		{16, 4, 16}, {64, 4, 32}, {128, 8, 64}, {100, 4, 32}, {250, 8, 256}, {1, 8, 32}, {3, 8, 4096},
		{65, 8, 32}, {127, 2, 128}, {1000, 8, 512}, {1616, 8, 512}, {2048, 8, 4096}, {4097, 8, 4096},
	} {
		env := extmem.NewEnv(cfg.n*2, cfg.b, cfg.m, 1)
		a := env.D.Alloc(cfg.n)
		r := rand.New(rand.NewPCG(2, 2))
		keys := genKeys(r, cfg.n*cfg.b, "rand")
		fillArray(env, a, keys)
		env.D.ResetStats()
		Bitonic(env, a, ByKey)
		st := env.D.Stats()
		if want := BitonicCost(cfg.n, cfg.b, cfg.m); st.Cost() != want {
			t.Errorf("n=%d b=%d m=%d: measured %+v, predicted %+v", cfg.n, cfg.b, cfg.m, st.Cost(), want)
		}
		if got := checkSortedPadded(t, readAll(a)); !sameMultiset(got, keys) {
			t.Errorf("n=%d b=%d m=%d: multiset changed", cfg.n, cfg.b, cfg.m)
		}
	}
}

// heldRun sorts keys in n blocks of b with the given engine on a strict
// cache of m with held elements checked out first, and returns the trace,
// the counters, the cache high-water and the result. It fails the test if
// the sort leaves the cache unbalanced.
func heldRun(t *testing.T, sort func(*extmem.Env, extmem.Array, Less), n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters, int, []extmem.Element) {
	t.Helper()
	env := extmem.NewEnv(2*n, b, m, 3)
	env.Cache = extmem.NewCache(m, true)
	env.Cache.Acquire(held)
	a := env.D.Alloc(n)
	fillArray(env, a, keys)
	rec := trace.NewRecorder(0)
	env.D.SetRecorder(rec)
	env.D.ResetStats()
	sort(env, a, ByKey)
	if used := env.Cache.Used(); used != held {
		t.Fatalf("n=%d held=%d: %d elements checked out after the sort", n, held, used)
	}
	return rec.Summarize(), env.D.Stats(), env.Cache.HighWater(), readAll(a)
}

// TestBitonicRespectsHeldCache sorts with part of a strict cache held by
// the caller: the window shrinks to what is free, so the high-water stays
// within M and the cost is BitonicCost at the free cache. With less than two
// blocks free there is no window, and Bitonic says so.
func TestBitonicRespectsHeldCache(t *testing.T) {
	const n, b, m = 1024, 8, 4096
	keys := genKeys(rand.New(rand.NewPCG(4, 4)), n*b, "rand")
	for _, held := range []int{0, m / 4, m/2 + b, 3 * m / 4, m - 2*b} {
		_, st, hw, elems := heldRun(t, Bitonic, n, b, m, held, keys)
		if got := checkSortedPadded(t, elems); !sameMultiset(got, keys) {
			t.Errorf("held=%d: multiset changed", held)
		}
		if hw > m {
			t.Errorf("held=%d: cache high-water %d > M=%d", held, hw, m)
		}
		if want := BitonicCost(n, b, m-held); st.Cost() != want {
			t.Errorf("held=%d: measured %+v, predicted %+v at %d free", held, st.Cost(), want, m-held)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "16 elements, but the cache has 15 free") {
			t.Errorf("with 2B-1 free: panic %q, want one naming the 16 elements needed and the 15 free", msg)
		}
	}()
	heldRun(t, Bitonic, n, b, m, m-2*b+1, keys)
}

// TestZigzagRespectsHeldCache is TestBitonicRespectsHeldCache for Zigzag:
// its runs are a quarter of the cache the caller leaves free, so the
// high-water stays within M and the cost is ZigzagCost at the free cache.
// With less than two blocks free there is no run pair, and Zigzag says so.
func TestZigzagRespectsHeldCache(t *testing.T) {
	const n, b, m = 100, 8, 512
	keys := genKeys(rand.New(rand.NewPCG(5, 5)), n*b, "rand")
	for _, held := range []int{0, m / 4, 3 * m / 4, m - 4*b, m - 2*b} {
		_, st, hw, elems := heldRun(t, Zigzag, n, b, m, held, keys)
		if got := checkSortedPadded(t, elems); !sameMultiset(got, keys) {
			t.Errorf("held=%d: multiset changed", held)
		}
		if hw > m {
			t.Errorf("held=%d: cache high-water %d > M=%d", held, hw, m)
		}
		if want := ZigzagCost(n, b, m-held); st.Cost() != want {
			t.Errorf("held=%d: measured %+v, predicted %+v at %d free", held, st.Cost(), want, m-held)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "16 elements, but the cache has 15 free") {
			t.Errorf("with 2B-1 free: panic %q, want one naming the 16 elements needed and the 15 free", msg)
		}
	}()
	heldRun(t, Zigzag, n, b, m, m-2*b+1, keys)
}

// FuzzBitonic sorts two inputs of one (n, held) — fuzzed keys and a
// constant — on a strict cache with held elements checked out: both must
// sort, stay within M, cost BitonicCost at the free cache and leave the
// same trace.
func FuzzBitonic(f *testing.F) {
	const b, m = 8, 4096
	f.Add(uint16(8191), uint16(0), uint64(1)) // n = 8192: the benchmark geometry
	f.Add(uint16(8191), uint16(m/2+b), uint64(2))
	f.Add(uint16(1615), uint16(128), uint64(3))
	f.Add(uint16(0), uint16(m-2*b), uint64(4))
	f.Add(uint16(512), uint16(1000), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw, heldRaw uint16, seed uint64) {
		n := int(nRaw)%8192 + 1
		held := int(heldRaw) % (m - 2*b + 1)
		keys := genKeys(rand.New(rand.NewPCG(seed, 1)), n*b, "rand")
		var first trace.Summary
		for i, in := range [][]uint64{keys, genKeys(nil, n*b, "equal")} {
			sum, st, hw, elems := heldRun(t, Bitonic, n, b, m, held, in)
			if got := checkSortedPadded(t, elems); !sameMultiset(got, in) {
				t.Fatalf("n=%d held=%d: multiset changed", n, held)
			}
			if hw > m {
				t.Fatalf("n=%d held=%d: cache high-water %d > M=%d", n, held, hw, m)
			}
			if want := BitonicCost(n, b, m-held); st.Cost() != want {
				t.Fatalf("n=%d held=%d: measured %+v, predicted %+v", n, held, st.Cost(), want)
			}
			if i == 0 {
				first = sum
			} else if !sum.Equal(first) {
				t.Fatalf("n=%d held=%d: trace %v depends on the data, first input's %v", n, held, sum, first)
			}
		}
	})
}

// benchGeometry is the benchmark's sort: N = 2^16 records in blocks of 8
// against a cache of 4096 words. oramGeometry is the ORAM's largest rebuild.
var (
	benchGeometry = struct{ n, b, m int }{8192, 8, 4096}
	oramGeometry  = struct{ n, b, m int }{1616, 8, 512}
)

// TestBitonicPackedPasses pins the schedule at the benchmark geometry with
// the whole cache free — 7 passes over a window of all of M, where streamed
// block pairs would take 21 — and at held caches.
func TestBitonicPackedPasses(t *testing.T) {
	g := benchGeometry
	if got := bitonicPassCount(g.n, g.b, g.m); got != 7 {
		t.Errorf("passes = %d, want 7", got)
	}
	if got := BitonicCost(g.n, g.b, g.m); got != (obs.Cost{IOs: 114688, RoundTrips: 224}) {
		t.Errorf("cost = %+v, want 114688 I/Os in 224 round trips", got)
	}
	// The third argument is the free cache: 2 056 of 4 096 held leaves
	// 2 040, a window of 128 blocks; the ORAM's 128-element buffer held of
	// 512 leaves a window of 32.
	for _, c := range []struct{ n, b, free, want int }{
		{2048, 8, 4096, 4}, {1616, 8, 512, 9}, {256, 8, 4096, 1}, {512, 8, 4096, 1},
		{8192, 8, 4096 - 2056, 10}, {1616, 8, 512 - 128, 12},
	} {
		if got := bitonicPassCount(c.n, c.b, c.free); got != c.want {
			t.Errorf("bitonicPassCount(%d, %d, %d) = %d, want %d", c.n, c.b, c.free, got, c.want)
		}
	}
}

// TestBitonicTraceProperties checks, at the benchmark and the ORAM
// geometries, what the packed schedule must not have cost: the trace is a
// function of (n, B, M) alone — the same across inputs, orders and with
// the blocks sealed — and every vectored call moves one batch of M/B blocks (the whole
// cache is free) or, where the padding is skipped, the part of one the
// array holds.
func TestBitonicTraceProperties(t *testing.T) {
	for _, g := range []struct{ n, b, m int }{benchGeometry, oramGeometry} {
		type outcome struct {
			trace trace.Summary
			st    obs.Counters
			elems []extmem.Element
		}
		run := func(kind string, less Less, sealed bool) outcome {
			env := extmem.NewEnv(2*g.n, g.b, g.m, 3)
			if sealed {
				enc, err := extmem.NewEncryptor(make([]byte, 32))
				if err != nil {
					t.Fatal(err)
				}
				cs, err := extmem.NewCryptStore(extmem.NewMemStore(2*g.n, extmem.CryptChildBlockSize(g.b)), enc, g.b)
				if err != nil {
					t.Fatal(err)
				}
				env = extmem.NewEnvOn(cs, g.m, 3)
			}
			a := env.D.Alloc(g.n)
			fillArray(env, a, genKeys(rand.New(rand.NewPCG(9, 9)), g.n*g.b*3/4, kind))
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			env.D.ResetStats()
			Bitonic(env, a, less)
			if hw := env.Cache.HighWater(); hw > g.m {
				t.Fatalf("n=%d: used %d words of private memory, M=%d", g.n, hw, g.m)
			}
			return outcome{rec.Summarize(), env.D.Stats(), readAll(a)}
		}
		base := run("rand", ByKey, false)
		checkSortedPadded(t, base.elems)
		if want := BitonicCost(g.n, g.b, g.m); base.st.Cost() != want {
			t.Errorf("n=%d: measured %+v, predicted %+v", g.n, base.st.Cost(), want)
		}
		// With no padding to skip, every vectored call is a full batch.
		if wb := int64(g.m / g.b); g.n&(g.n-1) == 0 && base.st.Total() != base.st.RoundTrips*wb {
			t.Errorf("n=%d: %d I/Os in %d round trips, want %d blocks each", g.n, base.st.Total(), base.st.RoundTrips, wb)
		}
		for _, v := range []struct {
			name   string
			kind   string
			less   Less
			sealed bool
		}{
			{"another input", "dup", ByKey, false},
			{"ByRawKey", "rand", ByRawKey, false},
			{"sealed", "rand", ByKey, true},
		} {
			got := run(v.kind, v.less, v.sealed)
			if !got.trace.Equal(base.trace) {
				t.Errorf("n=%d, %s: trace %v differs from %v", g.n, v.name, got.trace, base.trace)
			}
			if v.sealed && !slices.Equal(got.elems, base.elems) {
				t.Errorf("n=%d, %s: result differs from the plaintext run's", g.n, v.name)
			}
		}
	}
}

// TestBitonicAllocCeiling pins the per-call garbage: the randomized Sort
// calls Bitonic several hundred times per operation, mostly on arrays of one
// window, and Quantiles sorts at the benchmark geometry, so once the cache
// slab and the Disk's scratch are warm no call allocates: the batch index
// list is Disk scratch too.
func TestBitonicAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		n       int
		ceiling float64
	}{{256, 0}, {8192, 0}} {
		env := extmem.NewEnv(c.n, 8, 4096, 1)
		a := env.D.Alloc(c.n)
		fillArray(env, a, genKeys(rand.New(rand.NewPCG(5, 6)), c.n*8, "rand"))
		Bitonic(env, a, ByKey) // warm the cache slab and the disk's address scratch
		if got := testing.AllocsPerRun(3, func() { Bitonic(env, a, ByKey) }); got > c.ceiling {
			t.Errorf("Bitonic of %d blocks: %v allocations per call, ceiling %v", c.n, got, c.ceiling)
		}
	}
}

// BenchmarkBitonic is the deterministic sort at the benchmark geometry.
func BenchmarkBitonic(b *testing.B) {
	g := benchGeometry
	env := extmem.NewEnv(g.n, g.b, g.m, 1)
	a := env.D.Alloc(g.n)
	keys := genKeys(rand.New(rand.NewPCG(7, 8)), g.n*g.b, "rand")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillArray(env, a, keys)
		env.D.ResetStats()
		b.StartTimer()
		Bitonic(env, a, ByKey)
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(g.n), "ios/block")
	b.ReportMetric(float64(bitonicPassCount(g.n, g.b, g.m)), "passes")
}

func TestInCacheStability(t *testing.T) {
	buf := []extmem.Element{
		{Key: 2, Val: 1, Flags: extmem.FlagOccupied},
		{Key: 1, Val: 1, Flags: extmem.FlagOccupied},
		{Key: 2, Val: 2, Flags: extmem.FlagOccupied},
		{Key: 1, Val: 2, Flags: extmem.FlagOccupied},
	}
	InCache(buf, func(a, b extmem.Element) bool { return a.Key < b.Key })
	if buf[0].Val != 1 || buf[1].Val != 2 || buf[2].Val != 1 || buf[3].Val != 2 {
		t.Fatalf("InCache not stable: %+v", buf)
	}
}
