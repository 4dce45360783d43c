package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/rng"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

// buildKeyArray fills an array with count occupied elements having the
// given keys (Pos = index) and returns the sorted copy of the keys.
func buildKeyArray(a extmem.Array, keys []uint64) []uint64 {
	elems := make([]extmem.Element, len(keys))
	for i, k := range keys {
		elems[i] = extmem.Element{Key: k, Val: k * 2, Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	writeElems(a, elems)
	s := append([]uint64(nil), keys...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestSelectInCachePath(t *testing.T) {
	env := newTestEnv(64, 4, 256, 3)
	a := env.D.Alloc(8)
	keys := []uint64{50, 10, 40, 20, 30}
	sorted := buildKeyArray(a, keys)
	for k := 1; k <= len(keys); k++ {
		e, err := Select(env, a, int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if e.Key != sorted[k-1] {
			t.Fatalf("k=%d: got %d want %d", k, e.Key, sorted[k-1])
		}
	}
}

func TestSelectLargePath(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	env := newTestEnv(1<<14, 8, 128, 7) // M=128, N=4096 >> M: too small a cache to narrow, the sort tail
	nBlocks := 512
	a := env.D.Alloc(nBlocks)
	keys := make([]uint64, nBlocks*8)
	for i := range keys {
		keys[i] = r.Uint64() % 1_000_000
	}
	sorted := buildKeyArray(a, keys)
	for _, k := range []int64{1, 5, 2048, 4000, 4096} {
		e, err := Select(env, a, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if e.Key != sorted[k-1] {
			t.Fatalf("k=%d: got %d want %d", k, e.Key, sorted[k-1])
		}
	}
}

func TestSelectWithHeavyDuplicates(t *testing.T) {
	env := newTestEnv(1<<14, 8, 128, 11)
	nBlocks := 256
	a := env.D.Alloc(nBlocks)
	keys := make([]uint64, nBlocks*8)
	for i := range keys {
		keys[i] = uint64(i % 3) // only 3 distinct keys
	}
	sorted := buildKeyArray(a, keys)
	for _, k := range []int64{1, 700, 1365, 2048} {
		e, err := Select(env, a, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if e.Key != sorted[k-1] {
			t.Fatalf("k=%d: got %d want %d", k, e.Key, sorted[k-1])
		}
	}
}

func TestSelectRankOutOfRange(t *testing.T) {
	env := newTestEnv(64, 4, 64, 5)
	a := env.D.Alloc(4)
	buildKeyArray(a, []uint64{1, 2, 3})
	if _, err := Select(env, a, 0); !errors.Is(err, ErrSelectFailed) {
		t.Fatalf("k=0: err=%v", err)
	}
	if _, err := Select(env, a, 4); !errors.Is(err, ErrSelectFailed) {
		t.Fatalf("k=4: err=%v", err)
	}
}

func TestSelectDoesNotModifyInput(t *testing.T) {
	env := newTestEnv(1<<13, 8, 128, 13)
	a := env.D.Alloc(128)
	r := rand.New(rand.NewPCG(4, 4))
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = r.Uint64() % 10000
	}
	buildKeyArray(a, keys)
	before := readElems(a)
	if _, err := Select(env, a, 512); err != nil {
		t.Fatal(err)
	}
	after := readElems(a)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("input modified at element %d", i)
		}
	}
}

func TestSelectOblivious(t *testing.T) {
	// The sort tail (M=128) and the narrowing levels at the benchmark
	// geometry (N=2^16, M=4096); ranks 1, N/2 and N at the latter.
	for _, g := range []struct {
		nBlocks, m int
		ranks      [3]int64
	}{
		{128, 128, [3]int64{100, 100, 1000}},
		{1 << 13, 4096, [3]int64{1, 1 << 15, 1 << 16}},
	} {
		n := g.nBlocks * 8
		r := rand.New(rand.NewPCG(6, 6))
		run := func(keys []uint64, k int64) trace.Summary {
			return traceOf(t, 4*g.nBlocks, 8, g.m, 99, func(env *extmem.Env) {
				a := env.D.Alloc(g.nBlocks)
				buildKeyArray(a, keys)
				if _, err := Select(env, a, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		uniform := make([]uint64, n)
		equalKeys := make([]uint64, n)
		sortedKeys := make([]uint64, n)
		for i := range uniform {
			uniform[i] = r.Uint64() % 1_000_000
			equalKeys[i] = 42
			sortedKeys[i] = uint64(i)
		}
		s1 := run(uniform, g.ranks[0])
		s2 := run(equalKeys, g.ranks[1])
		s3 := run(sortedKeys, g.ranks[2]) // even the rank must not show in the trace
		if !s1.Equal(s2) || !s1.Equal(s3) {
			t.Fatalf("n=%d M=%d: selection trace depends on data or rank: %v %v %v", g.nBlocks, g.m, s1, s2, s3)
		}
	}
}

// Measured == predicted, I/Os and round trips, on every path: the in-cache
// scan, the sort tail (from the input and from a narrowed prefix, sorted by
// bitonic or, at 300 blocks with M = 512, by columnsort) and one to four
// narrowing levels; and Select's constant at the benchmark geometry.
func TestSelectCostMatchesPrediction(t *testing.T) {
	for _, g := range []struct{ nBlocks, b, m int }{
		{16, 8, 256}, {250, 8, 256}, {300, 8, 512}, {1000, 4, 128}, {300, 8, 4096}, {600, 8, 2400},
		{2500, 8, 4096}, {1 << 13, 8, 4096}, {1 << 13, 8, 8192}, {3000, 16, 1 << 14},
		// Four levels, each compaction routed through the network, then the
		// sort tail from a 268-block prefix.
		{1 << 12, 8, 4096},
		// The longest level whose compaction runs in the cache, beside the
		// 2B holding buffer and a block of slack; the shortest that routes
		// through the network takes the sort tail.
		{509, 8, 4096}, {510, 8, 4096},
	} {
		env := newTestEnv(4*g.nBlocks, g.b, g.m, 17)
		a := env.D.Alloc(g.nBlocks)
		r := rand.New(rand.NewPCG(uint64(g.nBlocks), 5))
		keys := make([]uint64, g.nBlocks*g.b)
		for i := range keys {
			keys[i] = r.Uint64() % 5000
		}
		sorted := buildKeyArray(a, keys)
		env.D.ResetStats()
		k := int64(len(keys) / 3)
		e, err := Select(env, a, k)
		if err != nil || e.Key != sorted[k-1] {
			t.Fatalf("%+v: Select = %+v, %v, want key %d", g, e, err, sorted[k-1])
		}
		st := env.D.Stats()
		if want := SelectCost(g.nBlocks, g.b, g.m); st.Cost() != want {
			t.Errorf("%+v: measured %+v, predicted %+v", g, st.Cost(), want)
		}
		if hw := env.Cache.HighWater(); hw > g.m {
			t.Errorf("%+v: %d words of private memory used, M=%d", g, hw, g.m)
		}
	}
	if got := float64(SelectCost(1<<13, 8, 4096).IOs) / (1 << 13); got > 12 {
		t.Errorf("Select at N=2^16, B=8, M=4096 costs %.1f I/Os per block, want <= 12", got)
	}
}

// TestSelectTailByDominance pins the rule by which a level takes the sort
// tail: wherever it is no dearer than narrowing, in block I/Os and in round
// trips. At the benchmark geometry (2^13 blocks, B = 8, M = 4096) the tail
// — columnsort from the caller's array into scratch, whose last pass hands
// its windows to the rank scan: 5 I/Os per block — beats narrowing on both
// counts, 40 960 I/Os in 98 round trips against 80 893 in 229, and runs in
// one allocation. At 3 000 blocks neither dominates — the tail's 33 000
// I/Os in 45 round trips (bitonic over the 3 000 blocks, then the rank
// scan; 41 768 in 50 while bitonic padded them to 4 096) against
// narrowing's 27 579 in 84 — so Select narrows there. (Narrowing took 343
// and 116 round trips while its routing groups sent each write apart from
// the next read; neither row's decision moved.)
func TestSelectTailByDominance(t *testing.T) {
	const b, m = 8, 4096
	narrow := func(n int) obs.Cost {
		lv, ok := selectPlan(n, b, m)
		if !ok {
			t.Fatalf("n=%d: selectPlan cannot narrow", n)
		}
		rest := SelectCost(lv.next, b, m)
		return obs.Cost{IOs: int64(n), RoundTrips: extmem.ScanRoundTrips(n, b, m-m/2, 1)}.
			Add(route.ConsolidateCompactCost(n, b, m)).Add(rest)
	}
	for _, row := range []struct {
		n            int
		tail, narrow obs.Cost
		takesTail    bool
	}{
		{1 << 13, obs.Cost{IOs: 40960, RoundTrips: 98}, obs.Cost{IOs: 80893, RoundTrips: 229}, true},
		{3000, obs.Cost{IOs: 33000, RoundTrips: 45}, obs.Cost{IOs: 27579, RoundTrips: 84}, false},
	} {
		if got := obsort.DeterministicVisitCost(row.n, b, m); got != row.tail {
			t.Errorf("n=%d: sort tail %+v, want %+v", row.n, got, row.tail)
		}
		if got := narrow(row.n); got != row.narrow {
			t.Errorf("n=%d: narrowing %+v, want %+v", row.n, got, row.narrow)
		}
		want := row.narrow
		if row.takesTail {
			want = row.tail
		}
		if p := PlanSelect(row.n, b, m); p.Cost() != want || (p.tail && p.narrow == 0) != row.takesTail {
			t.Errorf("n=%d: PlanSelect prices %+v, sort tail at the top %v; want %+v, %v", row.n, p.Cost(), p.tail && p.narrow == 0, want, row.takesTail)
		}
	}

	env, a, sorted := selectBenchInput(1)
	k := int64(len(sorted) / 2)
	allocs := testing.AllocsPerRun(3, func() {
		if e, err := Select(env, a, k); err != nil || e.Key != sorted[k-1] {
			t.Fatalf("Select = %+v, %v, want key %d", e, err, sorted[k-1])
		}
	})
	if allocs > 1 {
		t.Errorf("Select at the benchmark geometry allocates %.0f objects a call, want 1", allocs)
	}
}

// Theorem 13's linear bound, where the cache is large enough to narrow: the
// cost per block is flat while the butterfly's pass count is (three groups
// of log2(M/4B) = 7 network levels from 2^15 blocks to 2^21), and over a
// 64-fold range of N the only growth is that count's, 2 to 3 — a level's
// 1 + 2·2 I/Os per block becoming 1 + 2·3.
func TestSelectLinearIO(t *testing.T) {
	perBlock := func(nBlocks int) float64 {
		return float64(SelectCost(nBlocks, 8, 4096).IOs) / float64(nBlocks)
	}
	if small, large := perBlock(1<<15), perBlock(1<<20); large > small*1.1 {
		t.Fatalf("selection I/O per block grew from %.1f to %.1f at one pass count — superlinear", small, large)
	}
	if small, large := perBlock(1<<14), perBlock(1<<20); large > small*1.45 {
		t.Fatalf("selection I/O per block grew from %.1f to %.1f — more than one butterfly pass", small, large)
	}
}

// The analysis bounds a run's failure probability by 4 tails of 2^-40 per
// level; a seeded sweep of 500 tapes x 3 ranks over N = 2^13..2^16 must
// therefore see none.
func TestSelectNeverFailsOverSeededSweep(t *testing.T) {
	for lg := 13; lg <= 16; lg++ {
		nBlocks := 1 << (lg - 3)
		env := newTestEnv(4*nBlocks, 8, 4096, 1)
		a := env.D.Alloc(nBlocks)
		r := rand.New(rand.NewPCG(uint64(lg), 9))
		keys := make([]uint64, nBlocks*8)
		for i := range keys {
			keys[i] = r.Uint64() % 50_000
		}
		sorted := buildKeyArray(a, keys)
		for tape := uint64(0); tape < 125; tape++ {
			env.Tape = rng.NewTape(tape, uint64(lg))
			for _, k := range []int64{1 + int64(tape), int64(len(keys) / 2), int64(len(keys)) - int64(tape)} {
				e, err := Select(env, a, k)
				if err != nil {
					t.Fatalf("N=2^%d tape %d k=%d: %v", lg, tape, k, err)
				}
				if e.Key != sorted[k-1] {
					t.Fatalf("N=2^%d tape %d k=%d: got key %d, want %d", lg, tape, k, e.Key, sorted[k-1])
				}
			}
		}
	}
}

// Each declared failure, forced by a plan edited at its first level only:
// the error is ErrSelectFailed, the cache checkout is balanced, and the
// trace is a prefix of the success trace. At 3 000 blocks Select narrows
// three times before its sort tail (TestSelectTailByDominance).
func TestSelectDeclaredFailures(t *testing.T) {
	const nBlocks, b, m = 3000, 8, 4096
	run := func(seed uint64, p SelectPlan) ([]trace.Op, error) {
		env := newTestEnv(4*nBlocks, b, m, seed)
		a := env.D.Alloc(nBlocks)
		keys := make([]uint64, nBlocks*b)
		for i := range keys {
			keys[i] = uint64(i*7919) % 10_007
		}
		buildKeyArray(a, keys)
		rec := trace.NewRecorder(1 << 20)
		env.D.SetRecorder(rec)
		_, err := SelectWith(env, a, nBlocks*b/2, p)
		if used := env.Cache.Used(); used != 0 {
			t.Fatalf("%d words left checked out (err=%v)", used, err)
		}
		return rec.Ops(), err
	}
	plan := PlanSelect(nBlocks, b, m)
	if plan.narrow != 3 || !plan.tail {
		t.Fatalf("the plan narrows %d times, sort tail %v; want 3 levels and the tail", plan.narrow, plan.tail)
	}
	hostile := func(spoil func(*selectLevel)) SelectPlan {
		p := plan
		spoil(&p.levels[0])
		return p
	}
	success, err := run(1, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		spoil      func(*selectLevel)
	}{
		{"sample overflow", "sample size", func(lv *selectLevel) { lv.p = 1 }},
		{"bracket miss", "bracket missed", func(lv *selectLevel) { lv.slack = 0 }},
		{"range overflow", "range size", func(lv *selectLevel) { lv.next = 1 }},
	} {
		var ops []trace.Op
		var err error
		// Without slack the bracket misses on most tapes, not all.
		for seed := uint64(1); seed <= 32 && err == nil; seed++ {
			ops, err = run(seed, hostile(tc.spoil))
		}
		if !errors.Is(err, ErrSelectFailed) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want ErrSelectFailed mentioning %q", tc.name, err, tc.want)
		}
		if len(ops) == 0 || len(ops) >= len(success) || !slices.Equal(ops, success[:len(ops)]) {
			t.Fatalf("%s: the failure trace (%d ops) is not a proper prefix of the success trace (%d ops)", tc.name, len(ops), len(success))
		}
	}
}

// selectBenchInput is the benchmark geometry: N = 2^16 records in blocks of
// B = 8 against M = 4096.
func selectBenchInput(seed uint64) (*extmem.Env, extmem.Array, []uint64) {
	const nBlocks, b, m = 1 << 13, 8, 4096
	env := newTestEnv(4*nBlocks, b, m, seed)
	a := env.D.Alloc(nBlocks)
	r := rand.New(rand.NewPCG(seed, 16))
	keys := make([]uint64, nBlocks*b)
	for i := range keys {
		keys[i] = r.Uint64() % 100_000 // plenty of ties
	}
	sorted := buildKeyArray(a, keys)
	env.D.ResetStats()
	return env, a, sorted
}

func BenchmarkSelect(b *testing.B) {
	env, a, sorted := selectBenchInput(1)
	b.ReportAllocs()
	for b.Loop() {
		e, err := Select(env, a, int64(len(sorted)/2))
		if err != nil || e.Key != sorted[len(sorted)/2-1] {
			b.Fatalf("Select = %+v, %v", e, err)
		}
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/float64(a.Len()), "ios/block")
}
