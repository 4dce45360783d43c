package oram_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
)

// rebuildSpans returns every oram-rebuild span under roots, in order.
func rebuildSpans(roots []*obs.Span) (out []*obs.Span) {
	for _, s := range roots {
		if s.Name == "oram-rebuild" {
			out = append(out, s)
		}
		out = append(out, rebuildSpans(s.Children)...)
	}
	return out
}

// children counts the spans directly under sp with the given name.
func children(sp *obs.Span, name string) (n int) {
	for _, c := range sp.Children {
		if c.Name == name {
			n++
		}
	}
	return n
}

// fits reports whether n entries of a rebuild of g fit its free cache beside
// the chunk of a scan.
func fits(g oram.RebuildGeometry, n int) bool { return (n+2)*g.B <= g.Free }

// installs reports whether a rebuild of g installs its kept prefix from the
// cache, rather than expanding it into the table.
func installs(g oram.RebuildGeometry) bool { return fits(g, g.Kept) }

// TestRebuildIOExact: every rebuild — the initial build included — costs
// exactly the block I/Os and round trips its span predicts, as do its
// collect, install and assign-slots children, and for the scheduled ones
// that prediction is RebuildCost of the geometry the schedule announces
// beforehand, with the cache never over M. The grid takes both arms of the live prefix — a source collected in one
// private scan, a source routed by the network, and rebuilds that do both —
// and both arms of the install: a kept prefix that fits the free cache and
// is written out in one scan, and one that does not and is expanded by the
// network; and it keeps a prefix shorter than what it sorted. It runs over
// the oracle's cases whose arm is the hierarchy.
func TestRebuildIOExact(t *testing.T) {
	arms := map[bool]int{}
	var collected, routed, mixed, sliced int
	for _, c := range oracleCases {
		for _, sorter := range []string{obsort.EngineBitonic, obsort.EngineAuto, obsort.EngineZigzag} {
			b, mWords, n := c[0], c[1], c[2]
			if oram.Arm(n, b, mWords, mWords) == oram.ArmScan {
				continue
			}
			env := extmem.NewEnv(256, b, mWords, 9)
			col := env.EnableObs()
			o, err := oram.New(env, n, oram.Options{Sorter: sorter})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("B=%d M=%d n=%d %s", b, mWords, n, sorter)
			check := func(want *oram.RebuildGeometry) {
				t.Helper()
				if hw := env.Cache.HighWater(); hw > mWords {
					t.Fatalf("%s: cache high-water %d > M = %d", name, hw, mWords)
				}
				spans := rebuildSpans(col.Roots())
				if len(spans) != 1 {
					t.Fatalf("%s: %d rebuild spans, want 1", name, len(spans))
				}
				sp := spans[0]
				if sp.IO.Cost() != sp.Predicted {
					t.Fatalf("%s: rebuild measured %+v, its span predicts %+v", name, sp.IO.Cost(), sp.Predicted)
				}
				for _, c := range sp.Children {
					if (c.Name == "collect" || c.Name == "install" || c.Name == "assign-slots") && c.IO.Cost() != c.Predicted {
						t.Fatalf("%s: a %s measured %+v, its span predicts %+v", name, c.Name, c.IO.Cost(), c.Predicted)
					}
				}
				if want != nil {
					if c := oram.RebuildCost(*want); sp.IO.Cost() != c {
						t.Fatalf("%s: rebuild measured %+v, %+v predicts %+v", name, sp.IO.Cost(), *want, c)
					}
					arm := installs(*want)
					arms[arm]++
					if want.Kept < want.CapE {
						sliced++
					}
					c, r := 0, 0
					for _, bound := range want.Bounds {
						if fits(*want, bound) {
							c++
						} else {
							r++
						}
					}
					kids := map[string]int{"collect": c, "butterfly-compact": min(r, 1), "install": 1, "butterfly-expand": 0}
					if !arm {
						kids["install"], kids["butterfly-expand"] = 0, 1
					}
					for span, n := range kids {
						if got := children(sp, span); got != n {
							t.Fatalf("%s: %d %s spans under a rebuild of %+v, want %d", name, got, span, *want, n)
						}
					}
					collected += c
					routed += r
					if c > 0 && r > 0 {
						mixed++
					}
				}
				col.Reset()
			}
			check(nil) // the initial build
			g := o.Geometry()
			for step := 0; step < 4*max(n, g.BufCap); step++ {
				var next *oram.RebuildGeometry
				if o.Buffered() == g.BufCap-1 {
					_, ng := o.NextRebuild()
					next = &ng
				}
				if _, err := o.Read(step * 7 % n); err != nil {
					t.Fatalf("%s: step %d: %v", name, step, err)
				}
				if next != nil {
					check(next)
				} else {
					col.Reset()
				}
			}
		}
	}
	if arms[true] == 0 || arms[false] == 0 || sliced == 0 {
		t.Fatalf("the grid installed from the cache %d times and expanded %d times, and kept less than it sorted %d times; it must do each", arms[true], arms[false], sliced)
	}
	if collected == 0 || routed == 0 || mixed == 0 {
		t.Fatalf("the grid collected %d sources and routed %d, in %d rebuilds doing both; it must take each", collected, routed, mixed)
	}
}

// TestRebuildGeometryAtHierarchyShape pins the two rebuilds of the
// hierarchy at n = 256, B = 8, M = 4096, where it is the arm (161 block I/Os
// an access against the scan's 512): what they merge, the bounds they sort
// and keep, what they cost, that the smaller one writes its table from the
// cache, and that the larger one collects both its sources in private
// scans, routing neither, sorts its 512 entries — more than the cache
// holds — and writes its table from the cache too, from the first 256 of
// them alone.
func TestRebuildGeometryAtHierarchyShape(t *testing.T) {
	env := extmem.NewEnv(256, 8, 4096, 1)
	o, err := oram.New(env, 256, oram.Options{})
	if err != nil || o.Arm() != oram.ArmHierarchy {
		t.Fatalf("(%v, %v), want the hierarchy", o, err)
	}
	col := env.EnableObs()
	want := map[int]oram.RebuildGeometry{
		8: {Buffer: 128, CapE: 128, Kept: 128, Table: 4096, B: 8, M: 4096, Free: 3072, Sorter: "auto"},
		9: {Sources: []int{4096, 8192}, Bounds: []int{128, 256}, Buffer: 128, CapE: 512, Kept: 256, Table: 8192, B: 8, M: 4096, Free: 3072, Sorter: "auto"},
	}
	cost := map[int]obs.Cost{8: {IOs: 4608, RoundTrips: 21}, 9: {IOs: 24320, RoundTrips: 160}}
	for target, g := range want {
		if c := oram.RebuildCost(g); c != cost[target] {
			t.Errorf("rebuild of level %d: predicted %+v, want %+v", target, c, cost[target])
		}
	}
	seen := map[int]bool{}
	for step := 0; step < 2*256; step++ {
		target := 0
		if o.Buffered() == 127 {
			var g oram.RebuildGeometry
			target, g = o.NextRebuild()
			if !reflect.DeepEqual(g, want[target]) {
				t.Fatalf("rebuild of level %d: geometry %+v, want %+v", target, g, want[target])
			}
			seen[target] = true
		}
		col.Reset()
		if err := o.Dummy(); err != nil {
			t.Fatal(err)
		}
		if target == 9 {
			sp := rebuildSpans(col.Roots())[0]
			for span, n := range map[string]int{"collect": 2, "butterfly-compact": 0, "install": 1, "butterfly-expand": 0} {
				if got := children(sp, span); got != n {
					t.Fatalf("level-9 rebuild: %d %s spans, want %d", got, span, n)
				}
			}
		}
	}
	if !seen[8] || !seen[9] {
		t.Fatalf("levels rebuilt: %v, want 8 and 9", seen)
	}
}

// TestLevelOccupancyBound checks, against the tables themselves, the public
// bound a rebuild slices its compacted sources to, and the one it caps the
// entries of the level it builds at, Kept: before every rebuild no live
// level holds more live entries than min(n, bufCap·2^(k−1)), k its index
// above the buffer.
func TestLevelOccupancyBound(t *testing.T) {
	for _, c := range oracleCases {
		b, mWords, n := c[0], c[1], c[2]
		if oram.Arm(n, b, mWords, mWords) == oram.ArmScan {
			continue
		}
		env := extmem.NewEnv(256, b, mWords, uint64(n))
		o, err := oram.New(env, n, oram.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := o.Geometry()
		r := rand.New(rand.NewPCG(uint64(n), uint64(mWords)))
		checked := 0
		for step := 0; step < 4*max(n, g.BufCap); step++ {
			if o.Buffered() == g.BufCap-1 {
				for l := g.L0 + 1; l <= g.LMax; l++ {
					if !o.LevelLive(l) {
						continue
					}
					bound := min(n, g.BufCap<<(l-g.L0-1))
					if got := o.LevelBound(l); got != bound {
						t.Fatalf("B=%d M=%d n=%d: level %d is bounded by %d, want min(n, bufCap·2^(k-1)) = %d", b, mWords, n, l, got, bound)
					}
					if live := len(o.DumpLevel(l)); live > bound {
						t.Fatalf("B=%d M=%d n=%d step %d: level %d holds %d live entries, over the bound %d", b, mWords, n, step, l, live, bound)
					}
					checked++
				}
			}
			switch key := r.IntN(n); r.IntN(3) {
			case 0:
				err = o.Dummy()
			case 1:
				_, err = o.Read(key)
			default:
				err = o.Write(key, make([]uint64, b))
			}
			if err != nil {
				t.Fatalf("B=%d M=%d n=%d step %d: %v", b, mWords, n, step, err)
			}
		}
		if checked == 0 {
			t.Fatalf("B=%d M=%d n=%d: no level was checked", b, mWords, n)
		}
	}
}

// TestRebuildOverflowDeclared makes the Monte-Carlo failure happen: buckets
// of one slot overflow as soon as two keys share one. The rebuild that
// overflows must run the trace of one that does not — the same I/Os and
// round trips, the cache balanced — and say so afterwards, and the
// structure must keep saying so.
func TestRebuildOverflowDeclared(t *testing.T) {
	// 64 keys into 128 one-slot buckets: the initial build itself overflows.
	// The bucket size does not change the arm, the hierarchy's at this
	// geometry.
	t.Run("New", func(t *testing.T) {
		const n, b, mWords = 64, 8, 4096
		env := extmem.NewEnv(256, b, mWords, 3)
		col := env.EnableObs()
		o, err := oram.New(env, n, oram.Options{BucketSize: 1})
		if !errors.Is(err, oram.ErrOverflow) || o != nil {
			t.Fatalf("New with one-slot buckets: (%v, %v), want ErrOverflow", o, err)
		}
		if env.Cache.Used() != 0 || env.Cache.HighWater() > mWords {
			t.Fatalf("cache after a failed build: %d in use, high-water %d of %d", env.Cache.Used(), env.Cache.HighWater(), mWords)
		}
		sp := rebuildSpans(col.Roots())[0]
		// l0 = 6, so 64 blocks of buffer are held; 2^7 buckets.
		g := oram.RebuildGeometry{Sources: []int{n}, Bounds: []int{n}, CapE: n, Kept: n, Table: 128, B: b, M: mWords, Free: mWords - 64*b, Sorter: "auto"}
		if c := oram.RebuildCost(g); sp.IO.Cost() != c {
			t.Fatalf("overflowing build measured %+v, predicted %+v", sp.IO.Cost(), c)
		}
	})

	// Small buckets: most rebuilds succeed, and one before long does not.
	// At n = 64 every rebuild merges the buffer's 64 entries and the one
	// level's 64 into that level, sorts the 128 and installs the 64 it keeps,
	// all of them within the free cache. At n = 256 the rebuild of the
	// largest level sorts 512 entries, more than the free cache holds, and
	// installs the 256 it keeps from the cache. A seed whose first overflow
	// falls in another rebuild, or in one no rebuild of its geometry
	// succeeded before, is passed over.
	for _, tc := range []struct {
		name       string
		n, beta    int
		sortedFits bool
	}{{"access", 64, 3, true}, {"small cache", 256, 4, false}} {
		t.Run(tc.name, func(t *testing.T) { overflowOnAccess(t, tc.n, tc.beta, tc.sortedFits) })
	}
}

// overflowOnAccess drives buckets of beta slots in an ORAM of n blocks at
// B = 8, M = 4096, until a scheduled rebuild, which installs from the
// cache, overflows: one whose sorted entries fit the free cache, or do not.
func overflowOnAccess(t *testing.T, n, beta int, sortedFits bool) {
	const b, mWords = 8, 4096
seeds:
	for seed := uint64(1); ; seed++ {
		env := extmem.NewEnv(256, b, mWords, seed)
		o, err := oram.New(env, n, oram.Options{BucketSize: beta})
		if errors.Is(err, oram.ErrOverflow) {
			continue // this seed's initial build overflows; the case above
		}
		if err != nil || o.Arm() != oram.ArmHierarchy {
			t.Fatalf("(%v, %v), want the hierarchy", o, err)
		}
		col := env.EnableObs()
		g := o.Geometry()
		// The geometry of the last rebuild of each level that did not
		// overflow, and what it measured.
		type success struct {
			g       oram.RebuildGeometry
			io, rts int64
		}
		succeeded := map[int]success{}
		for step := 0; ; step++ {
			if step == 4000 {
				t.Fatalf("no rebuild overflowed in 4000 accesses of %d-slot buckets", beta)
			}
			target, next := o.NextRebuild()
			col.Reset()
			err := o.Write(step%n, make([]uint64, b))
			spans := rebuildSpans(col.Roots())
			if len(spans) == 0 {
				if err != nil {
					t.Fatalf("step %d: %v without a rebuild", step, err)
				}
				continue
			}
			sp := spans[0]
			if c := oram.RebuildCost(next); sp.IO.Cost() != c {
				t.Fatalf("step %d: rebuild measured %+v, predicted %+v", step, sp.IO.Cost(), c)
			}
			if !installs(next) {
				t.Fatalf("step %d: a rebuild of %+v expands its kept prefix, want it installed from the cache", step, next)
			}
			if err == nil {
				succeeded[target] = success{next, sp.IO.Total(), sp.IO.RoundTrips}
				continue
			}
			if !errors.Is(err, oram.ErrOverflow) || !o.Failed() {
				t.Fatalf("step %d: %v (failed = %v), want a declared overflow", step, err, o.Failed())
			}
			if o.Buffered() != 0 {
				t.Fatalf("step %d: the overflow was declared with %d entries buffered, not by a rebuild", step, o.Buffered())
			}
			ok, seen := succeeded[target]
			if !seen || fits(next, next.CapE) != sortedFits {
				continue seeds
			}
			if !reflect.DeepEqual(ok.g, next) {
				t.Fatalf("step %d: a rebuild of level %d overflowed with geometry %+v, a successful one had %+v", step, target, next, ok.g)
			}
			if sp.IO.Total() != ok.io || sp.IO.RoundTrips != ok.rts {
				t.Fatalf("overflowing rebuild measured %d I/Os in %d round trips, a successful one %d in %d", sp.IO.Total(), sp.IO.RoundTrips, ok.io, ok.rts)
			}
			break
		}
		before := env.D.Stats()
		if _, err := o.Read(0); !errors.Is(err, oram.ErrOverflow) {
			t.Fatalf("read after the overflow: %v", err)
		}
		if err := o.Write(1, make([]uint64, b)); !errors.Is(err, oram.ErrOverflow) {
			t.Fatalf("write after the overflow: %v", err)
		}
		if err := o.Dummy(); !errors.Is(err, oram.ErrOverflow) {
			t.Fatalf("dummy after the overflow: %v", err)
		}
		if env.D.Stats() != before {
			t.Fatal("a failed structure still touched the disk")
		}
		if used, share := env.Cache.Used(), g.BufCap*g.B; used != share || env.Cache.HighWater() > mWords {
			t.Fatalf("cache after the overflow: %d in use (the buffer's share is %d), high-water %d of %d", used, share, env.Cache.HighWater(), mWords)
		}
		return
	}
}

// TestAccessCostExact: over one full rebuild period after the build, the
// hierarchy's accesses, rebuilds included, cost exactly the block I/Os and
// round trips AccessCost prices, and the period is the schedule's: the
// largest level is the one live level at its end, as at its start. The
// rows (n, B, M) are TestPredictorsExact's crossover rows where the scan is
// the arm — the benchmark's ORAM and a larger one — which New never makes a
// hierarchy, and a larger cache where the hierarchy is; TestPredictorsExact
// measures the hierarchy's other row, (4 096, 8, 512), through New.
func TestAccessCostExact(t *testing.T) {
	for _, row := range [][3]int{{32, 8, 512}, {1024, 8, 512}, {64, 8, 4096}} {
		n, b, m := row[0], row[1], row[2]
		env := extmem.NewEnv(256, b, m, 1)
		o, err := oram.NewHierarchy(env, n, oram.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, accesses := oram.AccessCost(n, b, m, m)
		before := env.D.Stats()
		for i := int64(0); i < accesses; i++ {
			if _, err := o.Read(int(i) % n); err != nil {
				t.Fatal(err)
			}
		}
		if got := env.D.Stats().Sub(before).Cost(); got != want {
			t.Errorf("n=%d B=%d M=%d: %d accesses measured %+v, AccessCost %+v", n, b, m, accesses, got, want)
		}
		if g := o.Geometry(); o.LiveLevels() != 1 || !o.LevelLive(g.LMax) {
			t.Errorf("n=%d B=%d M=%d: %d levels live after the period, want the largest alone", n, b, m, o.LiveLevels())
		}
	}
}
