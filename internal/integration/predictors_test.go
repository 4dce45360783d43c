package integration

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
	"oblivext/internal/route"
)

// geometry is one row of TestPredictorsExact's grid: n blocks of b elements
// against a cache of m, held of them checked out by the caller.
type geometry struct{ n, b, m, held int }

func (g geometry) free() int { return g.m - g.held }

// predictorGrid runs M/B from 4 to 512, block counts that are not powers of
// two, and caches a caller holds part of.
var predictorGrid = []geometry{
	{16, 4, 16, 0}, {17, 4, 32, 0}, {64, 4, 32, 0}, {100, 4, 32, 0}, {20, 4, 64, 0}, {128, 8, 64, 0},
	{1000, 4, 128, 0}, {250, 8, 256, 0}, {64, 8, 512, 0}, {128, 8, 512, 0}, {256, 4, 512, 0},
	{300, 8, 512, 0}, {1000, 8, 512, 0}, {1616, 8, 512, 0}, {20, 4, 1024, 0}, {4097, 8, 4096, 0},
	{300, 8, 512, 128}, {1000, 4, 512, 192}, {37, 4, 1024, 768}, {4097, 8, 4096, 2056}, {1024, 8, 4096, 2048},
}

// fillCells writes the array's blocks two in three occupied, every element
// of an occupied block keyed at random and every other one marked, and
// returns the number of occupied blocks.
func fillCells(a extmem.Array, r *rand.Rand) (occupied int) {
	b := a.B()
	buf := make([]extmem.Element, a.Len()*b)
	for j := 0; j < a.Len(); j++ {
		if j%3 == 1 {
			continue
		}
		occupied++
		for t := j * b; t < (j+1)*b; t++ {
			buf[t] = extmem.Element{Key: r.Uint64() % 1000, Val: uint64(t), Pos: uint64(t), Flags: extmem.FlagOccupied}
			if t%2 == 0 {
				buf[t].Flags |= extmem.FlagMarked
			}
		}
	}
	a.WriteRange(0, a.Len(), buf)
	return occupied
}

// measure returns what the Disk counted while run ran.
func measure(env *extmem.Env, run func()) obs.Cost {
	before := env.D.Stats()
	run()
	return env.D.Stats().Sub(before).Cost()
}

// TestPredictorsExact is the one check that every exact cost predictor
// prices what its primitive does: each primitive runs on MemStore at every
// row of the grid whose geometry it supports, and the block I/Os and round
// trips the Disk measured must be the predictor's, to the access. A row
// runs on the array fillCells writes, with held elements of the cache
// checked out; the predictors that assume the whole cache free (bucket
// sort, Select, Quantiles, loose compaction) run where nothing is held,
// bitonic's and zigzag's, priced at the free cache, run on every row,
// columnsort's, priced the same way, on every row whose geometry
// ColumnGeometry admits, and the randomized Sort's, priced at the free
// cache too, wherever 16 blocks are free. Lemma 2's deterministic sort
// (obsort.Deterministic) runs inside Select, Quantiles, Sort and loose
// compaction; each must run its columnsort arm on some row, Sort both in a
// direct bucket sort and in a sample sort, so that every caller's predictor
// is measured on both arms. oram.RebuildCost is
// not a row: a rebuild's geometry comes from the ORAM's level state, not
// from (n, B, M), and oram's TestRebuildIOExact checks every rebuild span
// of its oracle geometries against it. The ORAM's two prices are rows of
// their own (oramRows).
func TestPredictorsExact(t *testing.T) {
	t.Run("oram", oramRows)
	const quantilesQ = 2
	quantilesArms := map[bool]bool{} // which arms of core.Quantiles ran, keyed by bySort
	// Where each caller must run obsort.Deterministic's columnsort arm: under
	// a span of the given name, or anywhere in the call for "".
	columnsWanted := map[string][]string{
		"core.Select": {""}, "core.Quantiles": {""}, "core.CompactBlocksLoose": {""},
		"core.Sort": {"direct-sort", "sample-splitters"},
	}
	columnsRan := map[string]bool{} // caller/parent
	whole := func(g geometry) bool { return g.held == 0 }
	routes := func(g geometry) bool { return g.free() >= 6*g.b }
	cases := []struct {
		name string
		ok   func(g geometry) bool
		// run runs the primitive on a and returns what was measured and
		// what its predictor says.
		run func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (got, want obs.Cost)
	}{
		{"obsort.Bitonic", func(g geometry) bool { return g.m >= 4*g.b && g.free() >= 2*g.b },
			func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				return measure(env, func() { obsort.Bitonic(env, a, obsort.ByKey) }), obsort.BitonicCost(g.n, g.b, g.free())
			}},
		{"obsort.Columnsort", func(g geometry) bool { _, _, err := obsort.ColumnGeometry(g.n, g.b, g.free()); return err == nil },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				// In place: no disk scratch, and the cache within M.
				mark, dhw := env.D.Mark(), env.D.HighWater()
				env.Cache.ResetHighWater()
				got := measure(env, func() { obsort.Columnsort(env, a, obsort.ByKey) })
				if env.D.Mark() != mark || env.D.HighWater() != dhw {
					t.Errorf("disk mark %d → %d, high-water %d → %d: columnsort allocated scratch", mark, env.D.Mark(), dhw, env.D.HighWater())
				}
				if hw := env.Cache.HighWater(); hw > g.m {
					t.Errorf("cache high-water %d > M=%d", hw, g.m)
				}
				return got, obsort.ColumnCost(g.n, g.b, g.free())
			}},
		{"obsort.Zigzag", func(g geometry) bool { return g.free() >= 2*g.b },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				env.Cache.ResetHighWater()
				got := measure(env, func() { obsort.Zigzag(env, a, obsort.ByKey) })
				if hw := env.Cache.HighWater(); hw > g.m {
					t.Errorf("cache high-water %d > M=%d", hw, g.m)
				}
				return got, obsort.ZigzagCost(g.n, g.b, g.free())
			}},
		{"obsort.BucketSort", func(g geometry) bool { return whole(g) && obsort.BucketSupported(g.n, g.b, g.m) },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				// The predictor prices a clean run: a declared overflow leaves
				// a as it was, and the next run draws fresh labels.
				var got obs.Cost
				for err := obsort.ErrBucketOverflow; err != nil; {
					if !errors.Is(err, obsort.ErrBucketOverflow) {
						t.Fatal(err)
					}
					got = measure(env, func() { err = obsort.BucketSort(env, a, obsort.ByKey) })
				}
				// Its round trips are an estimate; its block I/Os are exact.
				want := obsort.BucketCost(g.n, g.b, g.m)
				got.RoundTrips, want.RoundTrips = -1, -1
				return got, want
			}},
		{"route.CompactBlocksTight", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			return measure(env, func() { route.CompactBlocksTight(env, a, route.PredOccupied, 0) }), route.CompactCost(g.n, 0, g.b, g.free())
		}},
		{"route.CompactInto", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			// The cells come from a's two halves: one read of each a window
			// overlaps.
			parts := func(lo, hi int, visit func(plo, phi int)) {
				for _, p := range [][2]int{{0, g.n / 2}, {g.n / 2, g.n}} {
					if plo, phi := max(lo, p[0]), min(hi, p[1]); plo < phi {
						visit(plo, phi)
					}
				}
			}
			feed := func(lo, hi int, dst []extmem.Element) {
				parts(lo, hi, func(plo, phi int) { a.ReadRange(plo, phi, dst[(plo-lo)*g.b:(phi-lo)*g.b]) })
			}
			feedRT := func(lo, hi int) (rt int64) {
				parts(lo, hi, func(int, int) { rt++ })
				return rt
			}
			out := env.D.Alloc(g.n)
			got := measure(env, func() { route.CompactInto(env, out, g.n, feed, route.PredOccupied) })
			return got, route.CompactIntoCost(g.n, g.n, g.b, g.free(), feedRT)
		}},
		{"route.ConsolidateCompact", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			return measure(env, func() { route.ConsolidateCompact(env, a, extmem.Element.Marked) }), route.ConsolidateCompactCost(g.n, g.b, g.free())
		}},
		{"route.ExpandInto", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			// A compaction leaves its prefix's origins in the Aux bits: the
			// strictly increasing targets an expansion routes to.
			k := route.CompactBlocksTight(env, a, route.PredOccupied, 0)
			dst := env.D.Alloc(g.n)
			got := measure(env, func() { route.ExpandInto(env, a.Slice(0, k), dst, route.PredOccupied, nil) })
			return got, route.ExpandIntoCost(k, g.n, g.b, g.free())
		}},
		{"route.Consolidate", func(geometry) bool { return true }, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			return measure(env, func() { route.Consolidate(env, a, extmem.Element.Marked) }), route.ConsolidateCost(g.n, g.b, g.free())
		}},
		{"core.Select", whole, func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (obs.Cost, obs.Cost) {
			var err error
			got := measure(env, func() { _, err = core.Select(env, a, int64(occupied*g.b/2+1)) })
			if err != nil {
				t.Fatal(err)
			}
			return got, core.SelectCost(g.n, g.b, g.m)
		}},
		{"core.Quantiles", func(g geometry) bool { return whole(g) && 8*quantilesQ*g.b <= g.m },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				var err error
				got := measure(env, func() { _, err = core.Quantiles(env, a, quantilesQ) })
				if err != nil {
					t.Fatal(err)
				}
				want := core.QuantilesCost(g.n, g.b, g.m, quantilesQ)
				// The sort arm's cost is the copy, the sort and the rank scan.
				bySort := obsort.DeterministicCost(g.n, g.b, g.m).IOs+3*int64(g.n) == want.IOs
				quantilesArms[bySort] = true
				return got, want
			}},
		{"core.Sort", func(g geometry) bool { return g.free() >= 16*g.b },
			func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (obs.Cost, obs.Cost) {
				var err error
				got := measure(env, func() { err = core.Sort(env, a) })
				if err != nil {
					t.Fatal(err)
				}
				return got, core.SortCost(g.n, g.b, g.free(), occupied*g.b)
			}},
		{"core.CompactBlocksLoose", whole, func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (obs.Cost, obs.Cost) {
			var repeats int64
			var err error
			got := measure(env, func() { _, _, repeats, err = core.CompactBlocksLoose(env, a, occupied) })
			if err != nil {
				t.Fatal(err)
			}
			// Every repeated probe saves the two I/Os the predictor counts.
			return got.Add(obs.Cost{IOs: 2 * repeats}), core.LooseCost(g.n, occupied, g.b, g.m)
		}},
	}
	// Rows beyond the grid that one primitive alone runs: for Sort, the
	// benchmark's sort_mem (one distributing level, a direct sort per
	// bucket), a B = 64 row whose buckets distribute again, and two rows at
	// M = 512 where columnsort sorts 300 blocks: each bucket of 520 blocks,
	// and the sample of 2 393; for loose compaction, a cache too small for
	// its rounds, where it sorts the whole array with columnsort.
	more := map[string][]geometry{
		"core.Sort":               {{8192, 8, 4096, 0}, {1100, 64, 4096, 0}, {520, 8, 512, 0}, {2393, 8, 512, 0}},
		"core.CompactBlocksLoose": {{18, 4, 48, 0}},
	}
	defer func() {
		if !quantilesArms[true] || !quantilesArms[false] {
			t.Errorf("core.Quantiles ran the sort arm %v and the Select arm %v over the grid; both must run", quantilesArms[true], quantilesArms[false])
		}
		for name, parents := range columnsWanted {
			for _, p := range parents {
				if !columnsRan[name+"/"+p] {
					t.Errorf("%s never sorted with columnsort under %q over its rows", name, p)
				}
			}
		}
	}()
	for _, c := range cases {
		ran := 0
		for _, g := range slices.Concat(predictorGrid, more[c.name]) {
			if !c.ok(g) {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d/B=%d/M=%d/held=%d", c.name, g.n, g.b, g.m, g.held), func(t *testing.T) {
				env := extmem.NewEnv(4*g.n+64, g.b, g.m, 5)
				a := env.D.Alloc(g.n)
				occupied := fillCells(a, rand.New(rand.NewPCG(uint64(g.n), uint64(g.m))))
				env.Cache.Acquire(g.held)
				col := env.EnableObs()
				if got, want := c.run(t, env, a, occupied, g); got != want {
					t.Errorf("measured %+v, predicted %+v", got, want)
				}
				for _, p := range columnsWanted[c.name] {
					if ranUnder(col.Roots(), p, "columnsort") {
						columnsRan[c.name+"/"+p] = true
					}
				}
			})
			ran++
		}
		if ran == 0 {
			t.Errorf("%s: no row of the grid supports it", c.name)
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

// oramRows are TestPredictorsExact's rows for the ORAM's two prices, at the
// crossover rows of the hierarchy against the scan: the ORAM New makes at
// each (n, B, M) takes the arm the prices pick, and over one full rebuild
// period of the hierarchy, AccessCost's length, it measures its arm's price
// — AccessCost on the hierarchy, that many times ScanCost on the scan. Both
// prices are pinned too. Where the scan is the arm, oram's
// TestAccessCostExact measures the hierarchy's price at the same rows.
func oramRows(t *testing.T) {
	for _, r := range []struct {
		n, b, m int
		hier    obs.Cost // over the period
		period  int64
		scan    obs.Cost // an access
		arm     string
	}{
		// The benchmark's kv_mix_http ORAM: 107 I/Os and 6.5 round trips an
		// access on the hierarchy, 64 and 2 on the scan.
		{32, 8, 512, obs.Cost{IOs: 3424, RoundTrips: 208}, 32, obs.Cost{IOs: 64, RoundTrips: 2}, oram.ArmScan},
		{1024, 8, 512, obs.Cost{IOs: 2269184, RoundTrips: 98511}, 1024, obs.Cost{IOs: 2048, RoundTrips: 34}, oram.ArmScan},
		{4096, 8, 512, obs.Cost{IOs: 14950400, RoundTrips: 648712}, 4096, obs.Cost{IOs: 8192, RoundTrips: 132}, oram.ArmHierarchy},
		{64, 8, 4096, obs.Cost{IOs: 5056, RoundTrips: 143}, 64, obs.Cost{IOs: 128, RoundTrips: 2}, oram.ArmHierarchy},
	} {
		t.Run(fmt.Sprintf("oram.AccessCost/n=%d/B=%d/M=%d", r.n, r.b, r.m), func(t *testing.T) {
			hier, period := oram.AccessCost(r.n, r.b, r.m, r.m)
			scan := oram.ScanCost(r.n, r.b, r.m)
			if hier != r.hier || period != r.period || scan != r.scan {
				t.Fatalf("AccessCost %+v over %d accesses and ScanCost %+v, want %+v over %d and %+v", hier, period, scan, r.hier, r.period, r.scan)
			}
			env := extmem.NewEnv(256, r.b, r.m, 5)
			o, err := oram.New(env, r.n, oram.Options{})
			if err != nil || o.Arm() != r.arm {
				t.Fatalf("(%v, %v), want the %s", o, err, r.arm)
			}
			want := hier
			if r.arm == oram.ArmScan {
				want = obs.Cost{IOs: period * scan.IOs, RoundTrips: period * scan.RoundTrips}
			}
			got := measure(env, func() {
				for i := int64(0); i < period; i++ {
					if _, err := o.Read(int(i) % r.n); err != nil {
						t.Fatal(err)
					}
				}
			})
			if got != want {
				t.Errorf("%d accesses on the %s measured %+v, predicted %+v", period, r.arm, got, want)
			}
		})
	}
}
