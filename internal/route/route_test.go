package route

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
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
			ExpandBlocks(env, a, PredOccupied, 0)
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
