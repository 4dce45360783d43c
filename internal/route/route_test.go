package route

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

func newEnv(blocks, b, m int, seed uint64) *extmem.Env {
	return extmem.NewEnv(blocks, b, m, seed)
}

// traceOf records the trace of fn against a fresh env.
func traceOf(n, b, m int, fill func(a extmem.Array), fn func(env *extmem.Env, a extmem.Array)) trace.Summary {
	env := newEnv(n, b, m, 4)
	rec := trace.NewRecorder(0)
	env.D.SetRecorder(rec)
	a := env.D.Alloc(n)
	fill(a)
	fn(env, a)
	return rec.Summarize()
}

// The routing trace must be a function of public geometry only: invariant
// under the data (how many cells are occupied, from none to all, and which)
// at every size on either side of a choice the
// routing makes from the geometry (B = 4, M = 64: 15 cells fit the cache
// beside a block of slack, 8 fill one routing window).
func TestRouteTraceInvariance(t *testing.T) {
	const b, m = 4, 64
	ops := map[string]func(env *extmem.Env, a extmem.Array){
		"compact": func(env *extmem.Env, a extmem.Array) {
			CompactBlocksTight(env, a, PredOccupied, 0)
		},
		"compact+expand": func(env *extmem.Env, a extmem.Array) {
			CompactBlocksTight(env, a, PredOccupied, 0)
			ExpandInto(env, a, a, PredOccupied, nil)
		},
		"consolidate": func(env *extmem.Env, a extmem.Array) {
			Consolidate(env, a, extmem.Element.Occupied)
		},
		"consolidate+compact": consolidateCompact,
		"compact, half the cache held": func(env *extmem.Env, a extmem.Array) {
			env.Cache.Acquire(m/2 - b)
			CompactBlocksTight(env, a, PredOccupied, 0)
			env.Cache.Release(m/2 - b)
		},
	}
	for _, n := range []int{1, 2, 8, 9, 15, 16, 32} {
		fill := func(count int) func(a extmem.Array) {
			return func(a extmem.Array) {
				buildCells(a, occupiedSets(rand.New(rand.NewPCG(uint64(count), 1)), n, count))
			}
		}
		for name, op := range ops {
			base := traceOf(n, b, m, fill(n/2), op)
			for _, count := range []int{0, n / 3, n} {
				if got := traceOf(n, b, m, fill(count), op); got != base {
					t.Errorf("%s, n=%d: trace depends on data (%d of %d cells occupied)", name, n, count, n)
				}
			}
		}
	}
}

func consolidateCompact(env *extmem.Env, a extmem.Array) {
	ConsolidateCompact(env, a, extmem.Element.Occupied)
}

// Every routing span measures exactly what it predicts, round trips
// included, on each arm of the dispatch — the whole array in the cache, two
// routing groups, three — and under a held cache.
func TestSpansMeasureTheirPrediction(t *testing.T) {
	const b = 4
	ops := map[string]func(env *extmem.Env, a extmem.Array){
		"compact": func(env *extmem.Env, a extmem.Array) {
			CompactBlocksTight(env, a, PredOccupied, 0)
		},
		"compact, one level a group": func(env *extmem.Env, a extmem.Array) {
			CompactBlocksTight(env, a, PredOccupied, 1)
		},
		"compact+expand from half the array": func(env *extmem.Env, a extmem.Array) {
			CompactBlocksTight(env, a, PredOccupied, 0) // a third of the cells are occupied
			ExpandInto(env, a.Slice(0, a.Len()/2), a, PredOccupied, nil)
		},
		"compact into": func(env *extmem.Env, a extmem.Array) {
			CompactInto(env, env.D.Alloc(a.Len()), nil, PredOccupied, a)
		},
		"consolidate": func(env *extmem.Env, a extmem.Array) {
			Consolidate(env, a, extmem.Element.Occupied)
		},
		"consolidate+compact": consolidateCompact,
	}
	seen := map[string]int{}
	for _, g := range []struct{ n, m, held int }{
		{1, 64, 0}, {12, 64, 0}, {16, 64, 0}, {100, 64, 0}, {100, 64, 24}, {640, 192, 0}, {1000, 512, 128},
	} {
		for name, op := range ops {
			env := newEnv(4*g.n, b, g.m, 5)
			col := env.EnableObs()
			a := env.D.Alloc(g.n)
			buildCells(a, occupiedSets(rand.New(rand.NewPCG(uint64(g.n), 2)), g.n, g.n/3))
			env.Cache.Acquire(g.held)
			op(env, a)
			env.Cache.Release(g.held)
			var walk func(spans []*obs.Span)
			walk = func(spans []*obs.Span) {
				for _, sp := range spans {
					if got, want := sp.IO.Cost(), sp.Predicted; got != want {
						t.Errorf("%s, n=%d m=%d held=%d: a %s span measured %+v, predicted %+v", name, g.n, g.m, g.held, sp.Name, got, want)
					}
					seen[sp.Name]++
					walk(sp.Children)
				}
			}
			walk(col.Roots())
		}
	}
	for _, name := range []string{"butterfly-compact", "butterfly-expand", "consolidate-compact", "consolidate"} {
		if seen[name] == 0 {
			t.Errorf("no %s span seen", name)
		}
	}
}
