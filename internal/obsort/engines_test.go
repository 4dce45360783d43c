package obsort

import (
	"errors"
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/rng"
	"oblivext/internal/trace"
)

func TestZigzagSortCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	for _, b := range []int{2, 8} {
		for _, nBlocks := range []int{1, 2, 3, 5, 8, 17, 64} {
			for _, kind := range []string{"rand", "sorted", "reverse", "dup", "equal"} {
				for _, frac := range []int{100, 60} {
					env := extmem.NewEnv(4*nBlocks+16, b, 8*b, 7)
					a := env.D.Alloc(nBlocks)
					nk := nBlocks * b * frac / 100
					keys := genKeys(r, nk, kind)
					fillArray(env, a, keys)
					Zigzag(env, a, ByKey)
					got := checkSortedPadded(t, readAll(a))
					if !sameMultiset(got, keys) {
						t.Fatalf("b=%d n=%d kind=%s frac=%d: multiset changed", b, nBlocks, kind, frac)
					}
				}
			}
		}
	}
}

func TestZigzagNonPowerOfTwoBlockSize(t *testing.T) {
	// Unlike Bitonic, Zigzag has no power-of-two block-size requirement.
	r := rand.New(rand.NewPCG(23, 24))
	for _, b := range []int{3, 6} {
		env := extmem.NewEnv(128, b, 16*b, 5)
		a := env.D.Alloc(19)
		keys := genKeys(r, 19*b, "rand")
		fillArray(env, a, keys)
		Zigzag(env, a, ByKey)
		got := checkSortedPadded(t, readAll(a))
		if !sameMultiset(got, keys) {
			t.Fatalf("b=%d: multiset changed", b)
		}
	}
}

func TestZigzagRespectsCacheBound(t *testing.T) {
	env := extmem.NewEnv(64, 4, 32, 3)
	a := env.D.Alloc(32)
	r := rand.New(rand.NewPCG(25, 25))
	fillArray(env, a, genKeys(r, 128, "rand"))
	env.Cache.ResetHighWater()
	Zigzag(env, a, ByKey)
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("zigzag used %d private elements, budget %d", hw, env.M)
	}
}

func TestZigzagOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 27))
	run := func(keys []uint64) trace.Summary {
		env := extmem.NewEnv(64, 4, 32, 3)
		a := env.D.Alloc(24)
		fillArray(env, a, keys)
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		Zigzag(env, a, ByKey)
		return rec.Summarize()
	}
	s1 := run(genKeys(r, 96, "rand"))
	s2 := run(genKeys(r, 96, "equal"))
	s3 := run(genKeys(r, 96, "reverse"))
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("zigzag trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestZigzagPreservesMarkedFlags(t *testing.T) {
	env := extmem.NewEnv(64, 4, 32, 3)
	a := env.D.Alloc(8)
	b := a.B()
	buf := make([]extmem.Element, b)
	for blk := 0; blk < 8; blk++ {
		for tt := range buf {
			idx := uint64(blk*b + tt)
			buf[tt] = extmem.Element{Key: 1000 - idx, Pos: idx, Flags: extmem.FlagOccupied}
			if idx%3 == 0 {
				buf[tt].Flags |= extmem.FlagMarked
			}
		}
		a.Write(blk, buf)
	}
	Zigzag(env, a, ByKey)
	for _, e := range readAll(a) {
		wantMarked := (1000-e.Key)%3 == 0
		if e.Marked() != wantMarked {
			t.Fatalf("marked flag lost across zigzag: key %d", e.Key)
		}
	}
}

// bucketEnv builds a geometry where BucketSort runs its own pipeline
// rather than the Bitonic fallback.
func bucketEnv(nBlocks, b, m int, seed uint64) (*extmem.Env, extmem.Array) {
	env := extmem.NewEnv(16*nBlocks+64, b, m, seed)
	return env, env.D.Alloc(nBlocks)
}

func TestBucketSortCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	for _, cfg := range []struct{ n, b, m int }{
		{8, 8, 512}, {17, 8, 512}, {64, 8, 512}, {128, 8, 512},
		{64, 4, 512}, {33, 2, 512},
	} {
		if _, ok := bucketGeometry(cfg.n, cfg.b, cfg.m); !ok {
			t.Fatalf("n=%d b=%d m=%d: geometry unexpectedly unsupported", cfg.n, cfg.b, cfg.m)
		}
		for _, kind := range []string{"rand", "sorted", "reverse", "dup", "equal"} {
			for _, frac := range []int{100, 60} {
				env, a := bucketEnv(cfg.n, cfg.b, cfg.m, 7)
				nk := cfg.n * cfg.b * frac / 100
				keys := genKeys(r, nk, kind)
				fillArray(env, a, keys)
				if err := BucketSort(env, a, ByKey); err != nil {
					t.Fatalf("n=%d b=%d kind=%s frac=%d: %v", cfg.n, cfg.b, kind, frac, err)
				}
				got := checkSortedPadded(t, readAll(a))
				if !sameMultiset(got, keys) {
					t.Fatalf("n=%d b=%d kind=%s frac=%d: multiset changed", cfg.n, cfg.b, kind, frac)
				}
			}
		}
	}
}

func TestBucketSortDeepRecursion(t *testing.T) {
	// Small cache against a large array: the distribution phase must
	// recurse more than one level (k1 > fLeaf·k2max).
	const n, b, m = 1 << 10, 8, 512
	env, a := bucketEnv(n, b, m, 11)
	r := rand.New(rand.NewPCG(33, 34))
	keys := genKeys(r, n*b, "rand")
	fillArray(env, a, keys)
	if err := BucketSort(env, a, ByKey); err != nil {
		t.Fatalf("deep recursion run failed: %v", err)
	}
	got := checkSortedPadded(t, readAll(a))
	if !sameMultiset(got, keys) {
		t.Fatal("multiset changed")
	}
}

// TestBucketSortRespectsHeldCache: BucketSort sizes its buckets from the
// cache free at the call, not from M. At 100 blocks of B = 8, M = 512, on a
// strict cache with part of it held, it sorts within M for exactly
// BucketCost's block I/Os at the free cache while the free cache holds a
// bucket layout; where it holds none — 112 and 16 elements free; at 16 a
// sort sized from M would panic in its closing butterfly — it falls back
// to Bitonic, within M and with the held cache untouched.
func TestBucketSortRespectsHeldCache(t *testing.T) {
	const nBlocks, b, m = 100, 8, 512
	r := rand.New(rand.NewPCG(59, 60))
	for _, held := range []int{0, 128, 256, 400, m - 2*b} {
		free := m - held
		env, a := bucketEnv(nBlocks, b, m, 7)
		env.Cache = extmem.NewCache(m, true)
		env.Cache.Acquire(held)
		keys := genKeys(r, nBlocks*b, "rand")
		fillArray(env, a, keys)
		env.D.ResetStats()
		if err := BucketSort(env, a, ByKey); err != nil {
			t.Fatalf("%d free: %v", free, err)
		}
		ios := env.D.Stats().Cost().IOs
		if used := env.Cache.Used(); used != held {
			t.Fatalf("held %d: %d elements checked out after", held, used)
		}
		if hw := env.Cache.HighWater(); hw > m {
			t.Errorf("%d free: cache high-water %d > M = %d", free, hw, m)
		}
		if got := checkSortedPadded(t, readAll(a)); !sameMultiset(got, keys) {
			t.Fatalf("%d free: multiset changed", free)
		}
		if _, ok := bucketGeometry(nBlocks, b, free); !ok {
			continue
		}
		if want := BucketCost(nBlocks, b, free).IOs; ios != want {
			t.Errorf("%d free: %d block I/Os, BucketCost at the free cache %d", free, ios, want)
		}
	}
	for _, free := range []int{m, 384, 256} {
		if _, ok := bucketGeometry(nBlocks, b, free); !ok {
			t.Errorf("no bucket layout in %d elements free: the rows no longer sort", free)
		}
	}
}

func TestBucketSortOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(37, 37))
	run := func(keys []uint64) trace.Summary {
		env, a := bucketEnv(64, 8, 512, 7)
		fillArray(env, a, keys)
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		if err := BucketSort(env, a, ByKey); err != nil {
			t.Fatal(err)
		}
		return rec.Summarize()
	}
	s1 := run(genKeys(r, 512, "rand"))
	s2 := run(genKeys(r, 512, "equal"))
	s3 := run(genKeys(r, 512, "reverse"))
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("bucket sort trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestBucketSortTinyCacheFallsBack(t *testing.T) {
	// Geometry the buckets cannot fit: BucketSort must quietly run the
	// deterministic engine and still sort.
	env := extmem.NewEnv(64, 8, 8*8, 7)
	a := env.D.Alloc(16)
	r := rand.New(rand.NewPCG(39, 39))
	keys := genKeys(r, 16*8, "rand")
	fillArray(env, a, keys)
	if _, ok := bucketGeometry(16, 8, env.M); ok {
		t.Fatal("tiny geometry unexpectedly supported")
	}
	if err := BucketSort(env, a, ByKey); err != nil {
		t.Fatal(err)
	}
	if got := checkSortedPadded(t, readAll(a)); !sameMultiset(got, keys) {
		t.Fatal("multiset changed")
	}
}

// TestBucketSortOverflowDeclared pins the declared-failure contract across
// a seed scan: failures happen (the geometry is deliberately tight),
// successes happen, every failure is ErrBucketOverflow with the input
// array untouched, its trace is a strict prefix of the success trace, and
// all success traces for one seed are identical across inputs.
func TestBucketSortOverflowDeclared(t *testing.T) {
	const n, b, m = 64, 4, 96 // Z = 8 cells: overflow-prone by design
	r := rand.New(rand.NewPCG(41, 41))
	keys := genKeys(r, n*b, "rand")

	run := func(seed uint64, keys []uint64) ([]trace.Op, error, []extmem.Element) {
		env, a := bucketEnv(n, b, m, seed)
		fillArray(env, a, keys)
		rec := trace.NewRecorder(1 << 22)
		env.D.SetRecorder(rec)
		err := BucketSort(env, a, ByKey)
		return rec.Ops(), err, readAll(a)
	}

	var successOps []trace.Op
	fails, succs := 0, 0
	for seed := uint64(1); seed <= 80 && (fails == 0 || succs == 0); seed++ {
		ops, err, elems := run(seed, keys)
		if err == nil {
			succs++
			successOps = ops
			checkSortedPadded(t, elems)
			continue
		}
		fails++
		if !errors.Is(err, ErrBucketOverflow) {
			t.Fatalf("seed %d: unexpected error %v", seed, err)
		}
		// The input array is untouched on failure.
		env2, a2 := bucketEnv(n, b, m, seed)
		fillArray(env2, a2, keys)
		want := readAll(a2)
		for i := range elems {
			if elems[i] != want[i] {
				t.Fatalf("seed %d: failed run modified the input at cell %d", seed, i)
			}
		}
		// Same seed, different input: the failure trace is a prefix of
		// that input's trace (success or a later failure).
		ops2, _, _ := run(seed, genKeys(rand.New(rand.NewPCG(seed, 99)), n*b, "rand"))
		if len(ops) > len(ops2) {
			// The other input failed even earlier; prefix check swaps.
			ops, ops2 = ops2, ops
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("seed %d: failure trace diverges from same-seed trace at op %d", seed, i)
			}
		}
	}
	if fails == 0 || succs == 0 {
		t.Fatalf("seed scan saw %d failures and %d successes; want both (geometry mistuned)", fails, succs)
	}
	// Success traces are identical across inputs for the same seed: find a
	// succeeding seed and rerun it on a different input.
	for seed := uint64(1); seed <= 80; seed++ {
		ops, err, _ := run(seed, keys)
		if err != nil {
			continue
		}
		ops2, err2, _ := run(seed, genKeys(rand.New(rand.NewPCG(seed, 123)), n*b, "dup"))
		if err2 != nil {
			continue
		}
		if len(ops) != len(ops2) {
			t.Fatalf("seed %d: success trace lengths differ across inputs: %d vs %d", seed, len(ops), len(ops2))
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("seed %d: success traces diverge at op %d", seed, i)
			}
		}
		_ = successOps
		return
	}
	t.Fatal("no seed succeeded on both inputs")
}

// TestPickPolicy pins the pick to the predictors rather than to engine
// names: at every geometry the pick is the argmin of the exact predictors of
// the engines the geometry supports (block I/Os over mem, round trips over
// net; on ties bitonic, then columnsort, then zigzag), and running the
// picked engine costs exactly what its predictor said. Every engine is
// priced at the cache the caller leaves free; some rows hold part of it,
// and there the pick stays within M.
func TestPickPolicy(t *testing.T) {
	// metric is the test's own statement of what Pick minimises, kept
	// independent of pick.go so a wrong backend rule there fails here.
	metric := func(c obs.Cost, backend string) int64 {
		if backend == "net" {
			return c.RoundTrips
		}
		return c.IOs
	}
	columns := func(n, b, free int) bool { _, _, err := ColumnGeometry(n, b, free); return err == nil }
	// engines in tie order; run sorts with the engine.
	engines := []struct {
		name      string
		cost      func(nBlocks, b, m, free int) obs.Cost
		supported func(nBlocks, b, m, free int) bool
		run       func(env *extmem.Env, a extmem.Array)
	}{
		{EngineBitonic, func(n, b, _, free int) obs.Cost { return BitonicCost(n, b, free) },
			func(_, b, m, free int) bool { return b&(b-1) == 0 && m >= 4*b && free >= 2*b }, bitonicSort},
		{EngineColumnsort, func(n, b, _, free int) obs.Cost { return ColumnCost(n, b, free) },
			func(n, b, _, free int) bool { return columns(n, b, free) }, Columnsort},
		{EngineZigzag, func(n, b, _, free int) obs.Cost { return ZigzagCost(n, b, free) },
			func(_, b, _, free int) bool { return free >= 2*b }, zigzagSort},
	}
	picked, backendSplits := map[string]bool{}, false
	for _, g := range []struct{ n, b, m, held int }{
		{16, 8, 4096, 0}, {1, 8, 512, 0}, {7, 8, 512, 0}, {64, 8, 512, 0}, {336, 8, 512, 0}, {672, 8, 512, 0},
		{1616, 8, 512, 0}, {1616, 8, 512, 128}, {1 << 10, 8, 512, 0}, {1 << 12, 8, 4096, 0}, {1 << 13, 8, 4096, 0},
		{1 << 13, 8, 4096, 2056}, {300, 4, 64, 0}, {300, 4, 64, 40}, {19, 6, 96, 0}, {130, 8, 32, 0},
		{23, 8, 64, 0}, {362, 4, 32, 0}, {1 << 10, 8, 4096, 0}, {1 << 10, 8, 4096, 2048}, {16, 8, 512, 128},
		{32, 8, 512, 128}, {64, 8, 512, 128}, {72, 6, 1024, 0}, {100, 8, 512, 384}, {2366, 8, 4096, 0},
	} {
		free := g.m - g.held
		backendSplits = backendSplits || Pick(g.n, g.b, g.m, free, "mem") != Pick(g.n, g.b, g.m, free, "net")
		for _, backend := range []string{"mem", "net"} {
			want, least, wi := "", int64(0), -1
			for i, e := range engines {
				if !e.supported(g.n, g.b, g.m, free) {
					continue
				}
				if c := metric(e.cost(g.n, g.b, g.m, free), backend); want == "" || c < least {
					want, least, wi = e.name, c, i
				}
			}
			got := Pick(g.n, g.b, g.m, free, backend)
			if got != want {
				t.Errorf("Pick(%d, %d, %d, %d, %s) = %s, want the predictors' argmin %s (%d)", g.n, g.b, g.m, free, backend, got, want, least)
				continue
			}
			picked[got] = true
			env := extmem.NewEnv(4*g.n+64, g.b, g.m, 7)
			env.Cache.Acquire(g.held)
			a := env.D.Alloc(g.n)
			fillArray(env, a, genKeys(rand.New(rand.NewPCG(43, 44)), g.n*g.b, "rand"))
			env.D.ResetStats()
			engines[wi].run(env, a)
			if measured := metric(env.D.Stats().Cost(), backend); measured != least {
				t.Errorf("Pick(%d, %d, %d, %d, %s) = %s: measured cost %d, predicted %d", g.n, g.b, g.m, free, backend, got, measured, least)
			}
			// Every engine's passes answer to the free cache.
			if hw := env.Cache.HighWater(); hw > g.m {
				t.Errorf("Pick(%d, %d, %d, %d, %s) = %s: cache high-water %d > M", g.n, g.b, g.m, free, backend, got, hw)
			}
		}
	}
	// The table is worth its name only if the choice is exercised.
	if !picked[EngineBitonic] || !picked[EngineColumnsort] || !picked[EngineZigzag] {
		t.Errorf("table picked only %v; want bitonic, columnsort and zigzag each to win somewhere", picked)
	}
	if !backendSplits {
		t.Error("no geometry picks differently over mem and net; the backend rule is unchecked")
	}
	if got := Pick(0, 8, 512, 512, "mem"); got != EngineBitonic {
		t.Errorf("empty input picked %q", got)
	}
	// With fewer than two blocks free no engine fits: Pick names bitonic
	// and core.SortWith declines.
	if got := Pick(100, 8, 512, 15, "mem"); got != EngineBitonic {
		t.Errorf("Pick with 15 elements free = %q, want bitonic", got)
	}
	// The benchmark's sort takes columnsort over either backend; the ORAM's
	// rebuilds at kv_mix_http's geometry (M = 512, its buffer held) keep
	// bitonic, which at 64 blocks ties columnsort's I/Os in fewer round
	// trips.
	for _, backend := range []string{"mem", "net"} {
		if got := Pick(8192, 8, 4096, 4096, backend); got != EngineColumnsort {
			t.Errorf("Pick(8192, 8, 4096, 4096, %s) = %s, want columnsort", backend, got)
		}
	}
	for _, n := range []int{16, 32, 64} {
		if got := Pick(n, 8, 512, 384, "mem"); got != EngineBitonic {
			t.Errorf("Pick(%d, 8, 512, 384, mem) = %s, want bitonic", n, got)
		}
	}
}

func TestEngineNameValidation(t *testing.T) {
	for _, n := range EngineNames() {
		if !ValidEngine(n) {
			t.Errorf("registry rejects its own name %q", n)
		}
	}
	if ValidEngine("quicksort") {
		t.Error("invalid name accepted")
	}
}

// TestBucketSortAllocs pins a warm BucketSort's garbage at the benchmark
// geometry (8 192 blocks, B = 8, M = 4 096) at 3 objects a call: the seed
// pass's SeqWriter and the final compaction's routing lists. The
// merge-splits' and the splitter samples' index lists are Disk scratch, as
// Zigzag's, Bitonic's and Columnsort's are, and the splitters are checked
// out below the sample, so freeing the sample leaves the cache slab no hole
// for the tag scan's buffers to fall through to the heap. Every call sorts
// the same input on a fresh tape of one seed, so each one takes the same,
// successful path.
func TestBucketSortAllocs(t *testing.T) {
	const runs = 3
	g := benchGeometry
	env, a := bucketEnv(g.n, g.b, g.m, 9)
	fillArray(env, a, genKeys(rand.New(rand.NewPCG(5, 8)), g.n*g.b, "rand"))
	cells := readAll(a)
	tapes := make([]*rng.Tape, runs+2) // the warm call, AllocsPerRun's own, and the runs
	for i := range tapes {
		tapes[i] = rng.NewTape(1, 1)
	}
	call := func() {
		env.Tape, tapes = tapes[0], tapes[1:]
		a.WriteRange(0, g.n, cells)
		if err := BucketSort(env, a, ByKey); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the cache slab and the disk's scratch
	if got := testing.AllocsPerRun(runs, call); got != 3 {
		t.Errorf("BucketSort of %d blocks: %v allocations per call, want 3", g.n, got)
	}
}
