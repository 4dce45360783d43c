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
// checked out; the predictors that assume the whole cache free (Select,
// Quantiles, the compactions) run where nothing is held, bitonic's,
// zigzag's and bucket sort's, priced at the free cache, run on every row
// whose free cache they fit,
// columnsort's, priced the same way, on every row whose geometry
// ColumnGeometry admits, and the randomized Sort's, priced at the free
// cache too, wherever 16 blocks are free. Lemma 2's deterministic sort
// (obsort.Deterministic) runs inside Select, Quantiles and Sort; each must
// run its columnsort arm on some row, Sort both in a direct bucket sort and
// in a sample sort, so that every caller's predictor is measured on both
// arms. oram.RebuildCost is not a row: a rebuild's geometry comes from the
// ORAM's level state, not from (n, B, M), and oram's TestRebuildIOExact
// checks every rebuild span of its oracle geometries against it. The
// ORAM's two prices are rows of their own (oramRows).
func TestPredictorsExact(t *testing.T) {
	t.Run("oram", oramRows)
	const quantilesQ = 2
	quantilesArms := map[bool]bool{} // which arms of core.Quantiles ran, keyed by bySort
	// Where each caller must run obsort.Deterministic's columnsort arm: under
	// a span of the given name, or anywhere in the call for "".
	columnsWanted := map[string][]string{
		"core.Select": {""}, "core.Quantiles": {""},
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
		{"obsort.DeterministicInto", func(g geometry) bool { return g.m >= 4*g.b && g.free() >= 2*g.b },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				// From a into scratch, the sorted blocks read through the
				// visitor: the last pass's, or a scan after bitonic.
				dst, seen := env.D.Alloc(g.n), 0
				got := measure(env, func() {
					obsort.DeterministicInto(env, a, dst, obsort.ByKey, nil, func(lo int, chunk []extmem.Element) {
						if lo != seen {
							t.Fatalf("visited blocks from %d, want %d", lo, seen)
						}
						seen += len(chunk) / g.b
					})
				})
				if seen != g.n {
					t.Errorf("visited %d of %d blocks", seen, g.n)
				}
				return got, obsort.DeterministicVisitCost(g.n, g.b, g.free())
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
		// BucketCost is zero where BucketSort falls back to Bitonic.
		{"obsort.BucketSort", func(g geometry) bool { return obsort.BucketCost(g.n, g.b, g.free()).IOs > 0 },
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
				want := obsort.BucketCost(g.n, g.b, g.free())
				got.RoundTrips, want.RoundTrips = -1, -1
				return got, want
			}},
		// A two-sided scan: each chunk's write carries the next chunk's
		// read.
		{"extmem.Scan/in-place", func(geometry) bool { return true },
			func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				got := measure(env, func() { env.Scan(a, a, env.ScanBatchN(1, g.n), nil) })
				return got, obs.Cost{IOs: 2 * int64(g.n), RoundTrips: extmem.TwoSidedScanRoundTrips(g.n, g.b, g.free(), 1)}
			}},
		{"extmem.Scan/copy", func(geometry) bool { return true },
			func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				dst := env.D.Alloc(g.n)
				got := measure(env, func() { env.Scan(a, dst, env.ScanBatchN(1, g.n), nil) })
				return got, obs.Cost{IOs: 2 * int64(g.n), RoundTrips: extmem.TwoSidedScanRoundTrips(g.n, g.b, g.free(), 1)}
			}},
		{"route.CompactBlocksTight", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			return measure(env, func() { route.CompactBlocksTight(env, a, route.PredOccupied, 0) }), route.CompactCost(g.n, 0, g.b, g.free())
		}},
		{"route.CompactInto", routes, func(_ *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
			// The cells come from a's two halves, a window straddling them
			// read in one interaction.
			out := env.D.Alloc(g.n)
			got := measure(env, func() { route.CompactInto(env, out, nil, route.PredOccupied, a.Slice(0, g.n/2), a.Slice(g.n/2, g.n)) })
			return got, route.CompactCost(g.n, 0, g.b, g.free())
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
				// The sort arm's cost is the sort's, whose first pass counts N
				// and whose last feeds the rank scan.
				bySort := obsort.DeterministicVisitCost(g.n, g.b, g.m).IOs == want.IOs
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
		{"core.CompactMarkedTight", func(g geometry) bool { return whole(g) && routes(g) },
			func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (obs.Cost, obs.Cost) {
				// Half the elements of an occupied block are marked; the
				// capacity is the blocks they fill, an output shorter than
				// the n routed blocks, with nothing to fill.
				rCap := extmem.CeilDiv(occupied, 2)
				return compact(t, env, a, rCap, rCap, core.CompactMarkedTight), core.CompactTightCost(g.n, rCap, g.b, g.m)
			}},
		{"core.CompactMarkedLoose", func(g geometry) bool { return whole(g) && routes(g) },
			func(t *testing.T, env *extmem.Env, a extmem.Array, occupied int, g geometry) (obs.Cost, obs.Cost) {
				// The same capacity; the 5R-block output runs past the n
				// routed blocks, which the fill zeroes.
				rCap := extmem.CeilDiv(occupied, 2)
				return compact(t, env, a, rCap, 5*rCap, core.CompactMarkedLoose), core.CompactLooseCost(g.n, rCap, g.b, g.m)
			}},
		{"core.CompactMarkedLoose/no-fill", func(g geometry) bool { return whole(g) && routes(g) && g.n >= 5 },
			func(t *testing.T, env *extmem.Env, a extmem.Array, _ int, g geometry) (obs.Cost, obs.Cost) {
				// Marks are left on every eighth block alone, so a capacity of
				// n/5 holds them and the output is the first 5R ≤ n blocks of
				// the routing, with nothing to fill.
				buf := make([]extmem.Element, g.n*g.b)
				a.ReadRange(0, g.n, buf)
				for t := range buf {
					if t/g.b%8 != 0 {
						buf[t].Flags &^= extmem.FlagMarked
					}
				}
				a.WriteRange(0, g.n, buf)
				rCap := g.n / 5
				return compact(t, env, a, rCap, 5*rCap, core.CompactMarkedLoose), core.CompactLooseCost(g.n, rCap, g.b, g.m)
			}},
	}
	// Rows beyond the grid that one primitive alone runs: for Sort, the
	// benchmark's sort_mem (one distributing level, a direct sort per
	// bucket in its slot), the same with half the cache held, B = 64 rows
	// whose buckets distribute again, one of them with a quarter of the
	// cache held, a row whose buckets sort privately in their slots, and
	// two rows at M = 512 where columnsort sorts 300 blocks: each bucket of
	// 520 blocks, and the sample of 2 393; for the compactions,
	// scan_enc_file's geometry, loose with the fill and without it.
	// Select and Quantiles
	// run at scan_enc_file's geometry too, where columnsort sorts the
	// caller's array into scratch and its last pass feeds the rank scan;
	// Select at 4 155 blocks, where it narrows once and sorts the
	// consolidated prefix in place the same way; Quantiles at 2 048,
	// where the sort arm is bitonic and a scan, and at 8 335, where it
	// takes the Select arm (the grid's 4 097 took it while bitonic padded
	// to 8 192 blocks).
	more := map[string][]geometry{
		"core.Sort": {{8192, 8, 4096, 0}, {1100, 64, 4096, 0}, {520, 8, 512, 0}, {2393, 8, 512, 0},
			{8192, 8, 4096, 2056}, {3300, 64, 4096, 0}, {1100, 64, 4096, 1024}, {600, 8, 4096, 0}},
		"core.CompactMarkedTight":         {{8192, 8, 4096, 0}},
		"core.CompactMarkedLoose":         {{8192, 8, 4096, 0}},
		"core.CompactMarkedLoose/no-fill": {{8192, 8, 4096, 0}},
		"core.Select":                     {{8192, 8, 4096, 0}, {4155, 8, 4096, 0}},
		"core.Quantiles":                  {{8192, 8, 4096, 0}, {2048, 8, 4096, 0}, {8335, 8, 4096, 0}},
	}
	priced := map[string]bool{}
	defer func() {
		for _, name := range []string{"consolidate-shuffle", "deal", "butterfly-compact", "consolidate-compact"} {
			if !priced[name] {
				t.Errorf("no %s span carried a price over the rows", name)
			}
		}
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
				// Every span that carries a price measures it, to the
				// access and the round trip: the Sort's consolidate-shuffle
				// and deal among them. Bucket sort prices its buckets by a
				// bound, not exactly.
				if c.name != "obsort.BucketSort" {
					walkSpans(col.Roots(), func(sp *obs.Span) {
						got, want := sp.IO.Cost(), sp.Predicted
						if want.IOs < 0 {
							got.IOs = want.IOs
						}
						if want.RoundTrips < 0 {
							got.RoundTrips = want.RoundTrips
						}
						if got != want {
							t.Errorf("a %s span measured %+v, predicted %+v", sp.Name, sp.IO.Cost(), sp.Predicted)
						}
						priced[sp.Name] = priced[sp.Name] || want.IOs >= 0 && want.RoundTrips >= 0
					})
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

// compact measures a compaction of a with capacity rCap and checks that
// its output is length blocks and that the call leaves the Disk exactly
// that much higher: where length < n, the routing's blocks past the output
// go back.
func compact(t *testing.T, env *extmem.Env, a extmem.Array, rCap, length int,
	run func(*extmem.Env, extmem.Array, int) (extmem.Array, int64, error)) obs.Cost {
	var out extmem.Array
	var err error
	mark := env.D.Mark()
	got := measure(env, func() { out, _, err = run(env, a, rCap) })
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != length {
		t.Fatalf("output of %d blocks, want %d", out.Len(), length)
	}
	if grew := env.D.Mark() - mark; grew != length {
		t.Fatalf("the Disk grew %d blocks, want the output's %d", grew, length)
	}
	return got
}

// walkSpans hands every span of the trees under spans to visit.
func walkSpans(spans []*obs.Span, visit func(sp *obs.Span)) {
	for _, sp := range spans {
		visit(sp)
		walkSpans(sp.Children, visit)
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
		// The benchmark's kv_mix_http ORAM: 107 I/Os and 6.4 round trips an
		// access on the hierarchy, 64 and 2 on the scan.
		{32, 8, 512, obs.Cost{IOs: 3424, RoundTrips: 205}, 32, obs.Cost{IOs: 64, RoundTrips: 2}, oram.ArmScan},
		{1024, 8, 512, obs.Cost{IOs: 2269184, RoundTrips: 57073}, 1024, obs.Cost{IOs: 2048, RoundTrips: 18}, oram.ArmScan},
		{4096, 8, 512, obs.Cost{IOs: 14950400, RoundTrips: 371191}, 4096, obs.Cost{IOs: 8192, RoundTrips: 67}, oram.ArmHierarchy},
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
