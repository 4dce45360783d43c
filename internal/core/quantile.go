package core

import (
	"errors"
	"fmt"
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
)

// This file computes the q quantiles of an array (the paper's Theorem 17
// problem) as the cheaper, by exact block I/Os, of two arms built from
// primitives with exact predictors: sort a copy with Lemma 2's
// deterministic sort (obsort.Deterministic) and read the ranks off in one
// scan, or count N in one scan and run Select (Theorem 13) once per
// rank. The choice is a function of (n, B, M, q) alone, ties go to the
// sort. The Select arm is linear in n at fixed M/B and q, so it keeps the
// theorem's O(N/B) once the sort's log² term outgrows q Selects; below
// that, including at every benchmark call site, the sort is cheaper.

// ErrQuantilesFailed reports q out of range or a declared Select failure;
// the trace is a prefix of the success trace.
var ErrQuantilesFailed = errors.New("core: quantile computation failed")

// Quantiles returns the q elements of ranks round(i·N/(q+1)), i = 1..q,
// among the occupied elements of a (the paper's q quantiles), without
// modifying a. q must satisfy 8·q·B <= M.
func Quantiles(env *extmem.Env, a extmem.Array, q int) ([]extmem.Element, error) {
	n := a.Len()
	b := a.B()
	if q < 1 {
		return nil, fmt.Errorf("%w: q=%d", ErrQuantilesFailed, q)
	}
	if 8*q*b > env.M {
		return nil, fmt.Errorf("%w: q=%d exceeds the private-memory budget (M=%d, B=%d)", ErrQuantilesFailed, q, env.M, b)
	}
	_, bySelect := quantilesPlan(n, b, env.M, q)
	mark := env.D.Mark()
	defer env.D.Release(mark)

	// One scan counts N; the sort arm copies a into work as it goes.
	var work extmem.Array
	if !bySelect {
		work = env.D.Alloc(n)
	}
	var total int64
	env.Scan(a, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				total++
			}
		}
	})
	if int64(q) > total {
		return nil, fmt.Errorf("%w: q=%d > N=%d", ErrQuantilesFailed, q, total)
	}
	ranks := make([]int64, q)
	for i := range ranks {
		ranks[i] = max(1, int64(math.Round(float64(i+1)*float64(total)/float64(q+1))))
	}
	if !bySelect {
		return quantilesBySort(env, work, ranks)
	}
	out := make([]extmem.Element, q)
	for i, k := range ranks {
		e, err := Select(env, a, k)
		if err != nil {
			return nil, fmt.Errorf("%w: quantile %d: %w", ErrQuantilesFailed, i+1, err)
		}
		out[i] = e
	}
	return out, nil
}

// QuantilesCost predicts the exact block I/Os and vectored round trips of
// Quantiles on nBlocks blocks of b elements with a cache of m and q
// quantiles, entered with the whole cache free and batches bounded by the
// cache alone (no MaxBatch).
func QuantilesCost(nBlocks, b, m, q int) obs.Cost {
	c, _ := quantilesPlan(nBlocks, b, m, q)
	return c
}

// quantilesPlan prices both arms of Quantiles and returns the cheaper by
// block I/Os, ties to the sort, and whether it is the Select arm: the count
// scan and q Selects, against the copy, the sort and the rank scan.
func quantilesPlan(nBlocks, b, m, q int) (obs.Cost, bool) {
	bySort := sortTailCost(nBlocks, b, m, true)
	bySelect := obs.Cost{IOs: int64(nBlocks), RoundTrips: extmem.ScanRoundTrips(nBlocks, b, m, 1)}
	sel := SelectCost(nBlocks, b, m)
	for range q {
		bySelect = bySelect.Add(sel)
	}
	if bySelect.IOs < bySort.IOs {
		return bySelect, true
	}
	return bySort, false
}

// quantilesBySort sorts work in place with obsort.Deterministic and reads
// the ranks off in one scan: the sort arm of Quantiles and the terminating
// path of Select.
func quantilesBySort(env *extmem.Env, work extmem.Array, ranks []int64) ([]extmem.Element, error) {
	obsort.Deterministic(env, work, obsort.ByKey)
	out := make([]extmem.Element, len(ranks))
	var idx int64
	ri := 0
	env.Scan(work, extmem.Array{}, env.ScanBatchN(1, work.Len()), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			if !chunk[t].Occupied() {
				continue
			}
			idx++
			for ri < len(ranks) && ranks[ri] == idx {
				out[ri] = chunk[t]
				ri++
			}
		}
	})
	if ri != len(ranks) {
		return nil, fmt.Errorf("%w: resolved %d of %d ranks", ErrQuantilesFailed, ri, len(ranks))
	}
	return out, nil
}

// sortTailCost prices quantilesBySort on n blocks with the whole cache
// free — obsort.DeterministicCost and the rank scan — plus, when copied,
// the scan that first copies the caller's array into the work array.
func sortTailCost(n, b, m int, copied bool) obs.Cost {
	scan := obs.Cost{IOs: int64(n), RoundTrips: extmem.ScanRoundTrips(n, b, m, 1)}
	c := obsort.DeterministicCost(n, b, m).Add(scan)
	if copied {
		c = c.Add(scan).Add(scan)
	}
	return c
}
