package obsort

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

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

// intoRun is heldRun for a sort from a source array into a second one:
// sort, given src, dst, a first-pass observer and visit, runs on a strict
// cache of m with held elements checked out. The observer must see the
// source whole, in address order, before anything is visited. With visit
// the sorted elements are the ones the sort hands over, which must come in
// order, a whole number of blocks at a time; without it they are dst's.
// The source must come out as it went in.
func intoRun(t *testing.T, sort func(env *extmem.Env, src, dst extmem.Array, less Less, first func([]extmem.Element), visit func(int, []extmem.Element)),
	n, b, m, held int, keys []uint64, visit bool) (trace.Summary, obs.Counters, int, []extmem.Element) {
	t.Helper()
	env := extmem.NewEnv(3*n, b, m, 3)
	env.Cache = extmem.NewCache(m, true)
	env.Cache.Acquire(held)
	src, dst := env.D.Alloc(n), env.D.Alloc(n)
	fillArray(env, src, keys)
	before := readAll(src)
	rec := trace.NewRecorder(0)
	env.D.SetRecorder(rec)
	env.D.ResetStats()
	var read, seen []extmem.Element
	first := func(chunk []extmem.Element) { read = append(read, chunk...) }
	var fn func(int, []extmem.Element)
	if visit {
		fn = func(lo int, chunk []extmem.Element) {
			if len(read) != len(before) {
				t.Fatalf("n=%d held=%d: visited before the first pass had read the source", n, held)
			}
			if lo*b != len(seen) || len(chunk)%b != 0 {
				t.Fatalf("n=%d held=%d: visited %d elements from block %d after %d", n, held, len(chunk), lo, len(seen))
			}
			seen = append(seen, chunk...)
		}
	}
	sort(env, src, dst, ByKey, first, fn)
	sum, st := rec.Summarize(), env.D.Stats()
	if !slices.Equal(read, before) {
		t.Fatalf("n=%d held=%d: the first pass handed over %d elements, not the source's %d in order", n, held, len(read), len(before))
	}
	if used := env.Cache.Used(); used != held {
		t.Fatalf("n=%d held=%d: %d elements checked out after the sort", n, held, used)
	}
	if !slices.Equal(readAll(src), before) {
		t.Fatalf("n=%d held=%d: the sort wrote its source", n, held)
	}
	if !visit {
		seen = readAll(dst)
	}
	return sum, st, env.Cache.HighWater(), seen
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

// FuzzBitonic sorts two inputs of one (n, B, M, held) — fuzzed keys and a
// constant — on a strict cache with held elements checked out, in place and
// from a source array into another: each must sort, stay within M, cost
// BitonicCost at the free cache and leave one trace for both inputs. B runs
// over 1, 2, 4, 8 and 16 and M from 4B to 1 024B, so the window runs from
// two blocks (2B ≤ free < 4B) to all of the array; n is at most 8 192
// blocks and at most 256·M/B.
func FuzzBitonic(f *testing.F) {
	bs := []int{1, 2, 4, 8, 16}
	// B = bs[bRaw%5], M = 4B + mRaw%(1 020B+1): (3, 4 064) is B = 8,
	// M = 4 096, the benchmark's cache; (3, 480) is M = 512, the ORAM's.
	f.Add(uint16(8191), uint16(0), uint8(3), uint16(4064), uint64(1)) // n = 8192: the benchmark geometry
	f.Add(uint16(8191), uint16(4096/2+8), uint8(3), uint16(4064), uint64(2))
	f.Add(uint16(1615), uint16(128), uint8(3), uint16(4064), uint64(3))
	f.Add(uint16(0), uint16(4096-16), uint8(3), uint16(4064), uint64(4))
	f.Add(uint16(512), uint16(1000), uint8(3), uint16(4064), uint64(5))
	f.Add(uint16(1988), uint16(0), uint8(3), uint16(4064), uint64(6))  // a sort_mem bucket
	f.Add(uint16(1615), uint16(0), uint8(3), uint16(480), uint64(7))   // the ORAM's largest rebuild
	f.Add(uint16(299), uint16(4), uint8(1), uint16(0), uint64(8))      // B = 2, M = 8, 4 held: two-block windows
	f.Add(uint16(1024), uint16(3), uint8(0), uint16(60), uint64(9))    // B = 1
	f.Add(uint16(700), uint16(40), uint8(4), uint16(1000), uint64(10)) // B = 16
	f.Fuzz(func(t *testing.T, nRaw, heldRaw uint16, bRaw uint8, mRaw uint16, seed uint64) {
		b := bs[int(bRaw)%len(bs)]
		m := 4*b + int(mRaw)%(1020*b+1)
		n := int(nRaw)%min(8192, 256*m/b) + 1
		held := int(heldRaw) % (m - 2*b + 1)
		keys := genKeys(rand.New(rand.NewPCG(seed, 1)), n*b, "rand")
		into := func(env *extmem.Env, src, dst extmem.Array, less Less, first func([]extmem.Element), _ func(int, []extmem.Element)) {
			bitonic(env, src, dst, less, first)
		}
		for _, fromSource := range []bool{false, true} {
			var first trace.Summary
			for i, in := range [][]uint64{keys, genKeys(nil, n*b, "equal")} {
				sum, st, hw, elems := heldRun(t, Bitonic, n, b, m, held, in)
				if fromSource {
					sum, st, hw, elems = intoRun(t, into, n, b, m, held, in, false)
				}
				if got := checkSortedPadded(t, elems); !sameMultiset(got, in) {
					t.Fatalf("n=%d B=%d M=%d held=%d from a source %v: multiset changed", n, b, m, held, fromSource)
				}
				if hw > m {
					t.Fatalf("n=%d B=%d M=%d held=%d from a source %v: cache high-water %d > M", n, b, m, held, fromSource, hw)
				}
				if want := BitonicCost(n, b, m-held); st.Cost() != want {
					t.Fatalf("n=%d B=%d M=%d held=%d from a source %v: measured %+v, predicted %+v", n, b, m, held, fromSource, st.Cost(), want)
				}
				if i == 0 {
					first = sum
				} else if !sum.Equal(first) {
					t.Fatalf("n=%d B=%d M=%d held=%d from a source %v: trace %v depends on the data, first input's %v", n, b, m, held, fromSource, sum, first)
				}
			}
		}
	})
}

// TestBitonicStaysInItsArray: an in-place Bitonic reads and writes no block
// outside its array and allocates no disk scratch — the Disk's high-water
// is the array's end — at lengths short of a power of two, at powers of
// two, with the cache free and held, and with windows of two blocks. A
// block allocated before the array shows an address below it.
func TestBitonicStaysInItsArray(t *testing.T) {
	for _, g := range []struct{ n, b, m, held int }{
		{1989, 8, 4096, 0}, {1616, 8, 512, 128}, {1536, 8, 4096, 0}, {1024, 8, 4096, 0},
		{5, 8, 64, 16}, {100, 4, 256, 64}, {2049, 1, 64, 16}, {300, 2, 8, 4},
	} {
		env := extmem.NewEnv(2*g.n+1, g.b, g.m, 3)
		env.Cache = extmem.NewCache(g.m, true)
		env.Cache.Acquire(g.held)
		env.D.Alloc(1)
		a := env.D.Alloc(g.n)
		keys := genKeys(rand.New(rand.NewPCG(uint64(g.n), 58)), g.n*g.b-3, "rand")
		fillArray(env, a, keys)
		ios := 2 * bitonicPassCount(g.n, g.b, g.m-g.held) * g.n
		rec := trace.NewRecorder(ios + 1)
		env.D.SetRecorder(rec)
		Bitonic(env, a, ByKey)
		name := fmt.Sprintf("n=%d,B=%d,M=%d,held=%d", g.n, g.b, g.m, g.held)
		if got := len(rec.Ops()); got != ios {
			t.Errorf("%s: %d block I/Os, want %d", name, got, ios)
		}
		for _, op := range rec.Ops() {
			if op.Addr < int64(a.Base()) || op.Addr >= int64(a.Base()+g.n) {
				t.Fatalf("%s: %v outside the array's blocks [%d, %d)", name, op, a.Base(), a.Base()+g.n)
			}
		}
		if hw := env.D.HighWater(); hw != a.Base()+g.n {
			t.Errorf("%s: Disk high-water %d blocks, want the array's end %d", name, hw, a.Base()+g.n)
		}
		if got := checkSortedPadded(t, readAll(a)); !sameMultiset(got, keys) {
			t.Errorf("%s: multiset changed", name)
		}
	}
}

// paddedBitonicCost is the price Bitonic had while it ran the network over
// n blocks padded to np, a power of two: every pass moved np blocks each
// way, less the padding the first pass did not read and the last did not
// write, in one round trip per window of the padded array and one more,
// less one where the last pass's last window was all padding. The pass
// count and the window are the same as the all-ascending network's.
func paddedBitonicCost(n, b, free int) obs.Cost {
	sc := newSchedule(n, b, free)
	np, wb := 1<<(sc.top-sc.lb), 1<<(sc.lc-sc.lb)
	passes := int64(bitonicPassCount(n, b, free))
	c := obs.Cost{IOs: passes*int64(2*np) - int64(2*(np-n)), RoundTrips: passes * int64(np/wb+1)}
	if passes > 1 && extmem.CeilDiv(n, wb) < np/wb {
		c.RoundTrips--
	}
	return c
}

// TestBitonicCostNoDearerThanPadded holds BitonicCost to the padded
// network's price: over B ∈ {1, 4, 8}, windows from two blocks to 512 and
// every n up to 3 000 blocks it is nowhere dearer in block I/Os or in round
// trips, and at powers of two it is the same. The rows pin the figures at
// sort_mem's bucket, the ORAM's largest rebuild, an array 5 000 blocks long
// and the benchmark's sort.
func TestBitonicCostNoDearerThanPadded(t *testing.T) {
	for _, b := range []int{1, 4, 8} {
		for _, free := range []int{2 * b, 3 * b, 64, 512, 2040, 4096} {
			for n := 1; n <= 3000; n++ {
				got, was := BitonicCost(n, b, free), paddedBitonicCost(n, b, free)
				if got.IOs > was.IOs || got.RoundTrips > was.RoundTrips || (n&(n-1) == 0 && got != was) {
					t.Fatalf("n=%d B=%d free=%d: %+v, padded %+v", n, b, free, got, was)
				}
			}
		}
	}
	for _, r := range []struct {
		n, b, free int
		was, now   obs.Cost
	}{
		{1989, 8, 4096, obs.Cost{IOs: 16266, RoundTrips: 20}, obs.Cost{IOs: 15912, RoundTrips: 20}},
		{1616, 8, 512, obs.Cost{IOs: 36000, RoundTrips: 296}, obs.Cost{IOs: 29088, RoundTrips: 269}},
		{5000, 8, 4096, obs.Cost{IOs: 108304, RoundTrips: 118}, obs.Cost{IOs: 70000, RoundTrips: 91}},
		{8192, 8, 4096, obs.Cost{IOs: 114688, RoundTrips: 119}, obs.Cost{IOs: 114688, RoundTrips: 119}},
	} {
		if was, now := paddedBitonicCost(r.n, r.b, r.free), BitonicCost(r.n, r.b, r.free); was != r.was || now != r.now {
			t.Errorf("n=%d B=%d free=%d: %+v, padded %+v; want %+v, padded %+v", r.n, r.b, r.free, now, was, r.now, r.was)
		}
	}
}

// TestBitonicCostAtScale: the predictor counts a pass's cosets from its
// pivots, not by a loop over the blocks, so a sort of 2^32 blocks is priced
// in microseconds, with the whole cache free and with two-block windows
// (about 500 passes).
func TestBitonicCostAtScale(t *testing.T) {
	const n, calls = 1 << 32, 20
	for _, free := range []int{4096, 16} {
		start := time.Now()
		var c obs.Cost
		for range calls {
			c = BitonicCost(n, 8, free)
		}
		if per := time.Since(start) / calls; per > time.Millisecond {
			t.Errorf("free=%d: BitonicCost of 2^32 blocks took %v a call", free, per)
		}
		if want := 2 * int64(bitonicPassCount(n, 8, free)) * n; c.IOs != want {
			t.Errorf("free=%d: %d I/Os, want %d", free, c.IOs, want)
		}
	}
}

// TestZigzagProbe counts the cells of a grid — B ∈ {2, 4, 8}, windows of
// 2, 3, 4, 8, 16 and 64 blocks free, n = 1..512 blocks — where ZigzagCost
// beats BitonicCost, in block I/Os and in round trips, and where it beat
// the padded network's price. Zigzag now wins only in I/Os, and only where
// the cache leaves bitonic a window of two blocks (free < 4B): its runs of
// one block merge-split along Batcher's odd-even merge network, which has
// fewer comparators than the bitonic one, each gathered pass closing over a
// single level. Against the padded price it also won in round trips. The
// grid is kept small: ZigzagCost enumerates the network's comparators.
func TestZigzagProbe(t *testing.T) {
	var cells, ios, rts, paddedIOs, paddedRTs int
	for _, b := range []int{2, 4, 8} {
		for _, fb := range []int{2, 3, 4, 8, 16, 64} {
			for n := 1; n <= 512; n++ {
				z, bt, was := ZigzagCost(n, b, fb*b), BitonicCost(n, b, fb*b), paddedBitonicCost(n, b, fb*b)
				cells++
				if z.IOs < bt.IOs {
					ios++
					if fb >= 4 {
						t.Errorf("n=%d B=%d, %d blocks free: zigzag %+v beats bitonic %+v in I/Os past a two-block window", n, b, fb, z, bt)
					}
				}
				if z.RoundTrips < bt.RoundTrips {
					rts++
				}
				if z.IOs < was.IOs {
					paddedIOs++
				}
				if z.RoundTrips < was.RoundTrips {
					paddedRTs++
				}
			}
		}
	}
	if cells != 9216 || ios != 3048 || rts != 0 || paddedIOs != 3351 || paddedRTs != 606 {
		t.Errorf("zigzag wins on %d of %d cells in I/Os and %d in round trips (against the padded price %d and %d); want 3 048 of 9 216 and 0 (3 351 and 606)",
			ios, cells, rts, paddedIOs, paddedRTs)
	}
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
	if got := BitonicCost(g.n, g.b, g.m); got != (obs.Cost{IOs: 114688, RoundTrips: 119}) {
		t.Errorf("cost = %+v, want 114688 I/Os in 119 round trips", got)
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
		// With no padding to skip, every round trip but a pass's first
		// read and last write carries a full batch each way.
		passes := int64(bitonicPassCount(g.n, g.b, g.m))
		if wb := int64(g.m / g.b); g.n&(g.n-1) == 0 && base.st.Total() != (base.st.RoundTrips-passes)*2*wb {
			t.Errorf("n=%d: %d I/Os in %d round trips over %d passes, want %d blocks each way in all but 2 a pass",
				g.n, base.st.Total(), base.st.RoundTrips, passes, wb)
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

// TestZigzagAllocCeiling: once the cache slab and the Disk's scratch are
// warm, a Zigzag call allocates nothing, whatever the array's length: the
// merge-splits' index list is Disk scratch, as Bitonic's and Columnsort's
// are (it was one allocation of 2·runs blocks a call).
func TestZigzagAllocCeiling(t *testing.T) {
	for _, n := range []int{100, 2048} {
		env := extmem.NewEnv(n, 8, 512, 1)
		a := env.D.Alloc(n)
		fillArray(env, a, genKeys(rand.New(rand.NewPCG(5, 7)), n*8, "rand"))
		Zigzag(env, a, ByKey) // warm the cache slab and the disk's scratch
		if got := testing.AllocsPerRun(3, func() { Zigzag(env, a, ByKey) }); got != 0 {
			t.Errorf("Zigzag of %d blocks: %v allocations per call, want 0", n, got)
		}
	}
}

// BenchmarkBitonic is the deterministic sort at the benchmark geometry and
// at sort_mem's bucket, 1 989 blocks, which Theorem 21 sorts five times a
// Sort: 8 I/Os per block in four passes, where the padded network's were
// 8.18.
func BenchmarkBitonic(b *testing.B) {
	for _, n := range []int{benchGeometry.n, 1989} {
		g := benchGeometry
		g.n = n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
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
		})
	}
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
