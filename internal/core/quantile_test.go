package core

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

func quantileRanks(total int64, q int) []int64 {
	out := make([]int64, q)
	for i := range out {
		out[i] = int64(math.Round(float64(i+1) * float64(total) / float64(q+1)))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// wantArm fails the test unless Quantiles takes the named arm at the
// given geometry.
func wantArm(t *testing.T, nBlocks, b, m, q int, bySelect bool) {
	t.Helper()
	if got := PlanQuantiles(nBlocks, b, m, q).bySelect; got != bySelect {
		t.Fatalf("n=%d B=%d M=%d q=%d: Select arm %v, want %v", nBlocks, b, m, q, got, bySelect)
	}
}

// TestQuantilesSelectArm: an array that fits the cache is one count scan
// and q in-cache Selects, two scans at q = 1 against the sort arm's three
// (bitonic's one windowed pass, which counts N as it reads, and the rank
// scan); at q = 2 the two tie, and the sort keeps the tie.
func TestQuantilesSelectArm(t *testing.T) {
	wantArm(t, 8, 4, 512, 2, false)
	wantArm(t, 8, 4, 512, 1, true)
	env := newTestEnv(64, 4, 512, 3)
	a := env.D.Alloc(8)
	keys := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 12, 11}
	sorted := buildKeyArray(a, keys)
	got, err := Quantiles(env, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks := quantileRanks(int64(len(keys)), 1)
	for i, e := range got {
		if e.Key != sorted[ranks[i]-1] {
			t.Fatalf("quantile %d: got %d want %d", i, e.Key, sorted[ranks[i]-1])
		}
	}
}

// TestQuantilesSortArm: at M = 256 Select itself sorts, so one sort of a
// copy is the cheaper arm for every q.
func TestQuantilesSortArm(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	env := newTestEnv(1<<15, 8, 256, 5)
	nBlocks := 1024
	a := env.D.Alloc(nBlocks)
	keys := make([]uint64, nBlocks*8)
	for i := range keys {
		keys[i] = r.Uint64() % (1 << 40)
	}
	sorted := buildKeyArray(a, keys)
	for _, q := range []int{1, 2, 4} {
		wantArm(t, nBlocks, 8, 256, q, false)
		got, err := Quantiles(env, a, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		ranks := quantileRanks(int64(len(keys)), q)
		for i, e := range got {
			if e.Key != sorted[ranks[i]-1] {
				t.Fatalf("q=%d quantile %d: got %d want %d", q, i, e.Key, sorted[ranks[i]-1])
			}
		}
	}
}

func TestQuantilesDuplicateHeavy(t *testing.T) {
	env := newTestEnv(1<<14, 8, 256, 11)
	nBlocks := 512
	a := env.D.Alloc(nBlocks)
	keys := make([]uint64, nBlocks*8)
	for i := range keys {
		keys[i] = uint64(i % 5)
	}
	sorted := buildKeyArray(a, keys)
	got, err := Quantiles(env, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	ranks := quantileRanks(int64(len(keys)), 4)
	for i, e := range got {
		if e.Key != sorted[ranks[i]-1] {
			t.Fatalf("quantile %d: got %d want %d", i, e.Key, sorted[ranks[i]-1])
		}
	}
}

func TestQuantilesValidation(t *testing.T) {
	env := newTestEnv(64, 4, 256, 5)
	a := env.D.Alloc(4)
	buildKeyArray(a, []uint64{1, 2, 3})
	if _, err := Quantiles(env, a, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := Quantiles(env, a, 4); err == nil {
		t.Error("q > N accepted")
	}
	if _, err := Quantiles(env, a, 3); err != nil {
		t.Errorf("q = N rejected: %v", err)
	}
	// q beyond the private-memory budget must be rejected up front.
	tiny := newTestEnv(64, 4, 64, 5)
	at := tiny.D.Alloc(4)
	buildKeyArray(at, []uint64{1, 2, 3, 4, 5})
	if _, err := Quantiles(tiny, at, 3); err == nil {
		t.Error("q over memory budget accepted")
	}
}

// TestQuantilesOblivious runs Quantiles on pairs of inputs of one length
// under one tape: the traces must match whatever the keys and however many
// cells are occupied.
func TestQuantilesOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	keys := func(n int, key func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = key(i)
		}
		return out
	}
	uniform := keys(4096, func(int) uint64 { return r.Uint64() })
	constant := keys(4096, func(int) uint64 { return 5 })
	twelve := keys(12, func(i int) uint64 { return uint64(i) })
	for _, c := range []struct {
		name             string
		nBlocks, b, m, q int
		first, second    []uint64
	}{
		{"sort/uniform-vs-constant", 512, 8, 256, 3, uniform, constant},
		{"select/uniform-vs-constant", 1032, 8, 4096, 1, uniform, constant},
		// The same length, full against nearly empty: the occupied count
		// must not pick the arm.
		{"sort/full-vs-12-records", 8192, 4, 32, 1, keys(8192*4, func(i int) uint64 { return uint64(i * 7 % 1000) }), twelve},
		{"select/full-vs-12-records", 1032, 8, 4096, 1, uniform, twelve},
	} {
		t.Run(c.name, func(t *testing.T) {
			wantArm(t, c.nBlocks, c.b, c.m, c.q, strings.HasPrefix(c.name, "select/"))
			run := func(keys []uint64) (sum trace.Summary, err error) {
				sum = traceOf(t, 4*c.nBlocks, c.b, c.m, 77, func(env *extmem.Env) {
					a := env.D.Alloc(c.nBlocks)
					buildKeyArray(a, keys)
					_, err = Quantiles(env, a, c.q)
				})
				return sum, err
			}
			s1, err1 := run(c.first)
			s2, err2 := run(c.second)
			if !s1.Equal(s2) {
				t.Errorf("quantile trace depends on data: %v vs %v", s1, s2)
			}
			if err1 != nil || err2 != nil {
				t.Errorf("declared failure: %v, %v", err1, err2)
			}
		})
	}
}

// TestQuantilesLinearIO pins the Select arm's I/Os per block flat as n
// quadruples at fixed M/B and q. Power-of-two block counts up to 2^14 sort,
// so the rows sit just above them, where the Select arm is the cheaper.
// Since the sort counts N as it reads, it is the cheaper arm at q = 2 on
// 2^11 + 1 blocks, so the rows take q = 1.
func TestQuantilesLinearIO(t *testing.T) {
	const b, m, q = 8, 4096, 1
	io := func(nBlocks int) float64 {
		wantArm(t, nBlocks, b, m, q, true)
		env := newTestEnv(2*nBlocks+64, b, m, 13)
		a := env.D.Alloc(nBlocks)
		r := rand.New(rand.NewPCG(uint64(nBlocks), 3))
		keys := make([]uint64, nBlocks*b)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		buildKeyArray(a, keys)
		env.D.ResetStats()
		if _, err := Quantiles(env, a, q); err != nil {
			t.Fatal(err)
		}
		return float64(env.D.Stats().Total()) / float64(nBlocks)
	}
	small, large := io(1<<11+1), io(1<<13+1)
	if large > small*1.1 {
		t.Fatalf("quantiles I/O per block grew from %.2f to %.2f", small, large)
	}
}

// TestQuantilesArmAtBenchmarkCallSites pins the sort arm where the
// benchmark calls Quantiles: q = 8 on scan_enc_file's array, and q = 4 in
// the randomized Sort's levels of sort_mem. On scan_enc_file's 8 192 blocks
// the sort is columnsort, cheaper than bitonic on both counts: 5 I/Os per
// block, its first pass counting N as it reads and its last handing its
// windows to the rank scan instead of writing them (6, in 177 round trips,
// while a scan counted N first), in 3s+2 = 98 round trips (160 while each
// read and each write was a round trip of its own).
func TestQuantilesArmAtBenchmarkCallSites(t *testing.T) {
	for _, g := range []struct{ nBlocks, b, m, q int }{
		{8192, 8, 4096, 8}, {8192, 8, 4096, 4}, {1647, 8, 4096, 4}, {336, 8, 4096, 4},
	} {
		wantArm(t, g.nBlocks, g.b, g.m, g.q, false)
	}
	want := obs.Cost{IOs: 5 * 8192, RoundTrips: 3*32 + 2}
	if c := QuantilesCost(8192, 8, 4096, 8); c != want || c != (obs.Cost{IOs: 40960, RoundTrips: 98}) {
		t.Errorf("scan_enc_file's Quantiles costs %+v, want %+v: 5 I/Os per block", c, want)
	}
}

// BenchmarkQuantiles runs Quantiles(8) at scan_enc_file's call geometry
// (N = 2^16, B = 8, M = 4 096) and reports its I/Os per block: 6, the count
// scan and the sort arm with columnsort, whose last pass feeds the rank scan.
func BenchmarkQuantiles(b *testing.B) {
	const nBlocks, bs, m, q = 1 << 13, 8, 4096, 8
	env := newTestEnv(2*nBlocks, bs, m, 1)
	a := env.D.Alloc(nBlocks)
	r := rand.New(rand.NewPCG(1, 17))
	keys := make([]uint64, nBlocks*bs)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	buildKeyArray(a, keys)
	env.D.ResetStats()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Quantiles(env, a, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/nBlocks, "ios/block")
}

// TestQuantilesRankError measures the paper's accuracy claim: each returned
// value sits exactly at its target rank (the algorithm is exact, not
// approximate — Lemma 16 bounds the *failure* probability, not the error).
func TestQuantilesRankError(t *testing.T) {
	fails := 0
	const trials = 10
	for tr := 0; tr < trials; tr++ {
		env := newTestEnv(1<<14, 8, 256, uint64(tr+500))
		a := env.D.Alloc(512)
		r := rand.New(rand.NewPCG(uint64(tr), 17))
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		sorted := buildKeyArray(a, keys)
		got, err := Quantiles(env, a, 4)
		if err != nil {
			fails++
			continue
		}
		ranks := quantileRanks(4096, 4)
		for i, e := range got {
			want := sorted[ranks[i]-1]
			if e.Key != want {
				// Exact-rank check; any deviation is a correctness bug.
				idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= e.Key })
				t.Fatalf("trial %d quantile %d: got key at sorted index %d, want rank %d", tr, i, idx, ranks[i]-1)
			}
		}
	}
	if fails > 2 {
		t.Fatalf("quantiles failed %d/%d trials", fails, trials)
	}
}
