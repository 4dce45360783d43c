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
// primitives with exact predictors: sort the array into scratch with Lemma
// 2's deterministic sort (obsort.DeterministicInto), counting N as its
// first pass reads, and read the ranks off its last pass; or count N in one
// scan and run Select (Theorem 13) once per rank. The choice is a function
// of (n, B, M, q) alone, ties go to the sort. The Select arm is linear in n
// at fixed M/B and q, so it keeps the theorem's O(N/B) once the sort's log²
// term outgrows q Selects; below that, including at every benchmark call
// site, the sort is cheaper.

// ErrQuantilesFailed reports q out of range or a declared Select failure;
// the trace is a prefix of the success trace.
var ErrQuantilesFailed = errors.New("core: quantile computation failed")

// QuantilesPlan is the public shape of Quantiles over an array of given
// geometry: its arm, chosen by exact block I/Os, ties to the sort — sortRanks
// counting N in its first pass, against a count scan and q Selects — the
// Select plan every rank walks on the Select arm, and the price.
type QuantilesPlan struct {
	q        int
	bySelect bool
	sel      SelectPlan
	cost     obs.Cost
}

// PlanQuantiles plans Quantiles on nBlocks blocks of b elements with a
// cache of m and q quantiles, entered with the whole cache free and
// batches bounded by the cache alone (no MaxBatch).
func PlanQuantiles(nBlocks, b, m, q int) QuantilesPlan {
	p := QuantilesPlan{q: q, sel: PlanSelect(nBlocks, b, m)}
	bySort := obsort.DeterministicVisitCost(nBlocks, b, m)
	bySelect := obs.Cost{IOs: int64(nBlocks), RoundTrips: extmem.ScanRoundTrips(nBlocks, b, m, 1)}
	for range q {
		bySelect = bySelect.Add(p.sel.Cost())
	}
	if p.cost, p.bySelect = bySort, bySelect.IOs < bySort.IOs; p.bySelect {
		p.cost = bySelect
	}
	return p
}

// Cost is the exact block I/Os and vectored round trips of the plan's
// Quantiles.
func (p QuantilesPlan) Cost() obs.Cost { return p.cost }

// Quantiles returns the q elements of ranks round(i·N/(q+1)), i = 1..q,
// among the occupied elements of a (the paper's q quantiles), without
// modifying a. q must satisfy 8·q·B <= M.
func Quantiles(env *extmem.Env, a extmem.Array, q int) ([]extmem.Element, error) {
	return QuantilesWith(env, a, PlanQuantiles(a.Len(), a.B(), env.M, q))
}

// QuantilesWith is Quantiles walking p, PlanQuantiles' plan for a's
// geometry.
func QuantilesWith(env *extmem.Env, a extmem.Array, p QuantilesPlan) ([]extmem.Element, error) {
	n, b, q := a.Len(), a.B(), p.q
	if q < 1 {
		return nil, fmt.Errorf("%w: q=%d", ErrQuantilesFailed, q)
	}
	if 8*q*b > env.M {
		return nil, fmt.Errorf("%w: q=%d exceeds the private-memory budget (M=%d, B=%d)", ErrQuantilesFailed, q, env.M, b)
	}
	mark := env.D.Mark()
	defer env.D.Release(mark)

	var total int64
	count := func(chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				total++
			}
		}
	}
	ranks := make([]int64, q)
	setRanks := func() {
		for i := range ranks {
			ranks[i] = max(1, int64(math.Round(float64(i+1)*float64(total)/float64(q+1))))
		}
	}
	if !p.bySelect {
		// The sort's first pass counts N, and the ranks follow from it
		// before its last pass hands over the first element.
		out, err := sortRanks(env, a, env.D.Alloc(n), ranks, count, setRanks)
		if int64(q) > total {
			return nil, fmt.Errorf("%w: q=%d > N=%d", ErrQuantilesFailed, q, total)
		}
		return out, err
	}
	env.Scan(a, extmem.Array{}, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) { count(chunk) })
	if int64(q) > total {
		return nil, fmt.Errorf("%w: q=%d > N=%d", ErrQuantilesFailed, q, total)
	}
	setRanks()
	out := make([]extmem.Element, q)
	for i, k := range ranks {
		e, err := SelectWith(env, a, k, p.sel)
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
// cache alone (no MaxBatch): PlanQuantiles' price.
func QuantilesCost(nBlocks, b, m, q int) obs.Cost { return PlanQuantiles(nBlocks, b, m, q).Cost() }

// sortRanks sorts src into dst, which may be src itself, with
// obsort.DeterministicInto and reads the elements of the given ascending
// ranks off the sorted array as the sort hands it over: the sort arm of
// Quantiles and the terminating path of Select. src is never written.
// first, when not nil, sees src as the sort's first pass reads it, and
// setRanks, when not nil, sets ranks before the first element is read.
func sortRanks(env *extmem.Env, src, dst extmem.Array, ranks []int64, first func(chunk []extmem.Element), setRanks func()) ([]extmem.Element, error) {
	out := make([]extmem.Element, len(ranks))
	var idx int64
	ri := 0
	obsort.DeterministicInto(env, src, dst, obsort.ByKey, first, func(_ int, chunk []extmem.Element) {
		if setRanks != nil {
			setRanks()
			setRanks = nil
		}
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
