package core

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// TestPredictorsPriceSeededRuns is a seeded property test over small
// geometries — B ∈ {4, 8, 64}, M/B ∈ {16, 64, 512}, up to a few hundred
// blocks, occupancy and ranks drawn at random — that runs Select,
// Quantiles and Sort on a MemStore and requires the measured block I/Os
// and round trips to equal the predictor: SelectCost, QuantilesCost and
// SortCost. The span tree tells which arm a run took, and the sweep must
// reach each: a Select that narrows and one that takes the sort tail, and
// Sorts that sort privately and that sort their buckets directly.
func TestPredictorsPriceSeededRuns(t *testing.T) {
	r := rand.New(rand.NewPCG(48, 5))
	arms := map[string]int{}
	check := func(what string, n, b, m int, got, want obs.Cost) {
		t.Helper()
		if got != want {
			t.Errorf("%s at n=%d, B=%d, M=%d: measured %+v, predicted %+v", what, n, b, m, got, want)
		}
	}
	run := func(n, b, m int) {
		env := newTestEnv(8*n+64, b, m, r.Uint64())
		col := env.EnableObs()
		a := env.D.Alloc(n)
		occupied := buildRandomCells(a, r.IntN(n+1), r)

		if occupied > 0 {
			k := 1 + r.Int64N(occupied)
			env.D.ResetStats()
			start := len(col.Roots())
			if _, err := Select(env, a, k); err != nil {
				t.Fatalf("Select(%d) at n=%d, B=%d, M=%d: %v", k, n, b, m, err)
			}
			check("Select", n, b, m, env.D.Stats().Cost(), SelectCost(n, b, m))
			spans := col.Roots()[start:]
			switch {
			case ranUnder(spans, "", "consolidate-compact"):
				arms["select narrows"]++
			case ranUnder(spans, "", "bitonic") || ranUnder(spans, "", "columnsort"):
				arms["select sort tail"]++
			default:
				arms["select in cache"]++
			}
		}

		if q := 1 + r.IntN(m/(8*b)); int64(q) <= occupied {
			env.D.ResetStats()
			if _, err := Quantiles(env, a, q); err != nil {
				t.Fatalf("Quantiles(%d) at n=%d, B=%d, M=%d: %v", q, n, b, m, err)
			}
			check("Quantiles", n, b, m, env.D.Stats().Cost(), QuantilesCost(n, b, m, q))
		}

		if m >= SortFree(n, b) {
			env.D.ResetStats()
			start := len(col.Roots())
			if err := Sort(env, a); err != nil {
				t.Fatalf("Sort at n=%d, B=%d, M=%d: %v", n, b, m, err)
			}
			check("Sort", n, b, m, env.D.Stats().Cost(), SortCost(n, b, m, int(occupied)))
			spans := col.Roots()[start:]
			if ranUnder(spans, "", "randomized-level") {
				arms["sort buckets direct"]++
			} else {
				arms["sort private"]++
			}
		}
	}
	for _, b := range []int{4, 8, 64} {
		for _, mb := range []int{16, 64, 512} {
			for range 4 {
				run(1+r.IntN(400), b, mb*b)
			}
		}
	}
	run(3000, 8, 4096)
	run(300, 64, 4096)
	run(1100, 64, 4096)
	t.Logf("arms reached: %v", arms)
	for _, arm := range []string{"select narrows", "select sort tail", "sort private", "sort buckets direct"} {
		if arms[arm] == 0 {
			t.Errorf("no run reached %q: %v", arm, arms)
		}
	}
}

// buildRandomCells fills a with occ occupied blocks at random, every element
// of each keyed from a small range so that ties occur, and returns the
// number of occupied elements.
func buildRandomCells(a extmem.Array, occ int, r *rand.Rand) int64 {
	b := a.B()
	cells := make([]extmem.Element, a.Len()*b)
	for _, j := range r.Perm(a.Len())[:occ] {
		for t := j * b; t < (j+1)*b; t++ {
			cells[t] = extmem.Element{Key: r.Uint64() % 5000, Val: uint64(t), Pos: uint64(t), Flags: extmem.FlagOccupied}
		}
	}
	a.WriteRange(0, a.Len(), cells)
	return int64(occ * b)
}

// TestAllocsAtBenchmarkGeometry pins the heap objects one call allocates at
// the benchmark's geometry (2^13 blocks of B = 8, M = 4 096): scan_enc_file's
// Select, Quantiles(8) and loose compaction, and sort_mem's Sort. A plan is a
// value: building and walking one allocates nothing.
func TestAllocsAtBenchmarkGeometry(t *testing.T) {
	env, a, _ := selectBenchInput(1)
	loose := env.D.Alloc(a.Len())
	rCap := looseBenchFill(loose)
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"Select", 1, func() error { _, err := Select(env, a, int64(a.Len()*4)); return err }},
		{"Quantiles", 2, func() error { _, err := Quantiles(env, a, 8); return err }},
		{"CompactMarkedLoose", 2, func() error {
			mark := env.D.Mark()
			defer env.D.Release(mark)
			_, _, err := CompactMarkedLoose(env, loose, rCap)
			return err
		}},
		{"Sort", 19, func() error { return Sort(env, a) }},
	} {
		allocs := testing.AllocsPerRun(2, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f objects a call", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s allocates %.0f objects a call, want at most %.0f", c.name, allocs, c.max)
		}
	}
}
