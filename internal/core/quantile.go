package core

import (
	"errors"
	"fmt"
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
)

// This file implements Theorem 17: selecting the q quantiles of an array in
// O(N/B) I/Os. A rate-N^{-1/4} sample is compacted and sorted; sample ranks
// bracket each quantile in an interval [x_i, y_i] holding O(N^{3/4})
// elements w.h.p.; interval members are compacted, padded per interval to
// exactly capI = 8·N^{3/4} slots, sorted by (interval, key); and each
// quantile is read out of its interval by the selection algorithm
// (Theorem 13).
//
// The paper's probability analysis assumes q <= (M/B)^{1/4}; the
// implementation accepts any q that fits the private-memory budget and lets
// the failure probability degrade.

// ErrQuantilesFailed reports a low-probability bracketing or capacity
// failure; the trace matches the success trace.
var ErrQuantilesFailed = errors.New("core: quantile computation failed")

// Quantiles returns the q elements of ranks round(i·N/(q+1)), i = 1..q,
// among the occupied elements of a (the paper's q quantiles), without
// modifying a, in O(n) I/Os.
func Quantiles(env *extmem.Env, a extmem.Array, q int) ([]extmem.Element, error) {
	n := a.Len()
	b := a.B()
	if q < 1 {
		return nil, fmt.Errorf("%w: q=%d", ErrQuantilesFailed, q)
	}
	if 8*q*b > env.M {
		return nil, fmt.Errorf("%w: q=%d exceeds the private-memory budget (M=%d, B=%d)", ErrQuantilesFailed, q, env.M, b)
	}
	mark := env.D.Mark()
	defer env.D.Release(mark)

	// Pass 1: copy, count, find extremes.
	work := env.D.Alloc(n)
	var total int64
	var lo, hi extmem.Element
	first := true
	env.Scan(a, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			chunk[t].Flags &^= extmem.FlagMarked
			if !chunk[t].Occupied() {
				continue
			}
			total++
			if first {
				lo, hi = chunk[t], chunk[t]
				first = false
				continue
			}
			if chunk[t].Less(lo) {
				lo = chunk[t]
			}
			if hi.Less(chunk[t]) {
				hi = chunk[t]
			}
		}
	})
	if int64(q) > total {
		return nil, fmt.Errorf("%w: q=%d > N=%d", ErrQuantilesFailed, q, total)
	}
	ranks := make([]int64, q)
	for i := range ranks {
		ranks[i] = int64(math.Round(float64(i+1) * float64(total) / float64(q+1)))
		if ranks[i] < 1 {
			ranks[i] = 1
		}
	}

	// Small inputs (or the paper's large-cache regime, where one
	// deterministic sort is linear): sort and read the ranks off.
	if int(total) <= env.M/2 || float64(env.MBlocks()) > math.Pow(float64(n), 0.25) {
		return quantilesBySort(env, work, ranks)
	}

	nf := float64(total)
	nhat := math.Pow(nf, 0.75)
	sqrtN := math.Sqrt(nf)
	capC := int64(math.Ceil(nhat + sqrtN))
	capI := int64(math.Ceil(8 * nhat))
	if capI > total {
		capI = total
	}
	capIBlocks := extmem.CeilDiv(int(capI), b)
	capI = int64(capIBlocks * b)

	// Pass 2: Bernoulli(N^{-1/4}) sampling, one coin per slot.
	p := 1 / math.Pow(nf, 0.25)
	var sampled int64
	env.Scan(work, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			coin := env.Tape.CoinP(p)
			if coin && chunk[t].Occupied() {
				chunk[t].Flags |= extmem.FlagMarked
				sampled++
			}
		}
	})

	rCapC := extmem.CeilDiv(int(capC), b) + 1
	sample, _, err := CompactMarkedTight(env, work, rCapC)
	if err != nil {
		return nil, err
	}
	if sampled > capC {
		return nil, fmt.Errorf("%w: sample %d exceeds %d", ErrQuantilesFailed, sampled, capC)
	}
	obsort.Bitonic(env, sample, obsort.ByKey)

	// Interval bounds from sample ranks (clamped; clamping only widens).
	xs := make([]bound, q)
	ys := make([]bound, q)
	sampleAt := make(map[int64]int) // target sample ranks -> bound index
	for i := 0; i < q; i++ {
		rx := int64(math.Ceil(nhat*float64(i+1)/float64(q+1) - sqrtN))
		ry := sampled - int64(math.Ceil(nhat-nhat*float64(i+1)/float64(q+1)-2*sqrtN))
		if rx < 1 {
			rx = 1
		}
		if rx > sampled {
			rx = sampled
		}
		if ry < rx {
			ry = rx
		}
		if ry > sampled {
			ry = sampled
		}
		sampleAt[rx] = -1
		sampleAt[ry] = -1
		xs[i] = bound{neg: true}
		ys[i] = bound{pos2: true}
		xs[i].key, ys[i].key = uint64(rx), uint64(ry) // stash ranks temporarily
	}
	// One scan of the sorted sample resolving every needed rank.
	rankVal := map[int64]bound{}
	var idx int64
	env.Scan(sample, extmem.Array{}, env.ScanBatchN(1, sample.Len()), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			if !chunk[t].Occupied() {
				continue
			}
			idx++
			if _, want := sampleAt[idx]; want {
				rankVal[idx] = boundOf(chunk[t])
			}
		}
	})
	for i := 0; i < q; i++ {
		if v, ok := rankVal[int64(xs[i].key)]; ok {
			xs[i] = v
		}
		if v, ok := rankVal[int64(ys[i].key)]; ok {
			ys[i] = v
		}
	}
	xs[0] = boundOf(lo)   // the paper's exception: x_1 = min(A)
	ys[q-1] = boundOf(hi) // and y_q = max(A)
	// Disjointify: the analysis makes overlaps vanishingly unlikely at
	// large N, but at practical sizes adjacent intervals can overlap; an
	// element then belongs to the first interval containing it, which is
	// equivalent to starting interval i just above y_{i-1}.
	for i := 1; i < q; i++ {
		succ := bound{key: ys[i-1].key, pos: ys[i-1].pos + 1}
		if ys[i-1].pos2 {
			succ = bound{pos2: true}
		}
		if !xs[i].greaterElemBound(succ) {
			xs[i] = succ
		}
	}

	// Pass 3: assign elements to intervals; count below_i and cnt_i.
	below := make([]int64, q)
	cnt := make([]int64, q)
	env.Scan(work, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			chunk[t].Flags &^= extmem.FlagMarked
			if !chunk[t].Occupied() {
				continue
			}
			e := chunk[t]
			assigned := false
			for j := 0; j < q; j++ {
				if xs[j].greaterElem(e) {
					// Below interval j — and therefore below every later
					// interval too; keep counting for each.
					below[j]++
					continue
				}
				if !assigned && !ys[j].lessElem(e) {
					chunk[t].Flags |= extmem.FlagMarked
					cnt[j]++
					assigned = true
				}
			}
		}
	})
	for j := 0; j < q; j++ {
		if cnt[j] > capI {
			return nil, fmt.Errorf("%w: interval %d holds %d > %d elements", ErrQuantilesFailed, j+1, cnt[j], capI)
		}
		k := ranks[j] - below[j]
		if k < 1 || k > cnt[j] {
			return nil, fmt.Errorf("%w: interval %d missed its quantile (k=%d, cnt=%d)", ErrQuantilesFailed, j+1, k, cnt[j])
		}
	}

	// Compact the union of intervals.
	rCapD := q*capIBlocks + 1
	d, _, err := CompactMarkedTight(env, work, rCapD)
	if err != nil {
		return nil, err
	}
	// Color pass: re-derive each element's interval from the private
	// bounds (tight compaction may clobber color bits, so assign after).
	// Pure per-block compute against read-only bounds, so it fans out.
	var cells []extmem.Element
	color := func(plo, phi int) { // built once: a chunk costs no closure
		for t := plo; t < phi; t++ {
			if !cells[t].Occupied() {
				continue
			}
			e := cells[t]
			for j := 0; j < q; j++ {
				if !xs[j].greaterElem(e) && !ys[j].lessElem(e) {
					cells[t].SetColor(j + 1)
					break
				}
			}
		}
	}
	env.Scan(d, d, env.ScanBatchN(1, d.Len()), func(_ int, chunk []extmem.Element) {
		cells = chunk
		env.ParCells(len(chunk), color)
	})

	// Padding region: exactly capI - cnt_j dummies per interval.
	padBlocks := q * capIBlocks
	padded := env.D.Alloc(d.Len() + padBlocks)
	copyArray(env, d, padded.Slice(0, d.Len()))
	j, emitted := 0, int64(0)
	env.Scan(extmem.Array{}, padded.Slice(d.Len(), padded.Len()), env.ScanBatchN(1, padBlocks), func(_ int, pad []extmem.Element) {
		for t := range pad {
			for j < q && emitted >= capI-cnt[j] {
				j, emitted = j+1, 0
			}
			if j < q {
				pad[t] = extmem.Element{Key: math.MaxUint64, Pos: math.MaxUint64, Flags: extmem.FlagOccupied}
				pad[t].SetColor(j + 1)
				emitted++
			}
		}
	})

	// Sort by (interval, key, pos): interval i now occupies blocks
	// [i·capIBlocks, (i+1)·capIBlocks).
	obsort.Bitonic(env, padded, byIntervalKey)

	out := make([]extmem.Element, q)
	for i := 0; i < q; i++ {
		sub := padded.Slice(i*capIBlocks, (i+1)*capIBlocks)
		e, err := Select(env, sub, ranks[i]-below[i])
		if err != nil {
			return nil, fmt.Errorf("%w: interval %d: %v", ErrQuantilesFailed, i+1, err)
		}
		e.SetColor(0)
		e.Flags &^= extmem.FlagMarked
		out[i] = e
	}
	return out, nil
}

// byIntervalKey orders occupied elements by (color, key, pos), empties last.
func byIntervalKey(a, b extmem.Element) bool {
	ao, bo := a.Occupied(), b.Occupied()
	if ao != bo {
		return ao
	}
	if a.Color() != b.Color() {
		return a.Color() < b.Color()
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Pos < b.Pos
}

// greaterElemBound compares two bounds: bd > o.
func (bd bound) greaterElemBound(o bound) bool {
	if bd.pos2 || o.neg {
		return !(bd.neg || o.pos2) || (bd.pos2 && o.neg)
	}
	if bd.neg || o.pos2 {
		return false
	}
	if bd.key != o.key {
		return bd.key > o.key
	}
	return bd.pos > o.pos
}

// quantilesBySort sorts a copy and reads the ranks off — the fast path for
// inputs that fit the cache or the paper's (M/B) > (N/B)^{1/4} regime.
func quantilesBySort(env *extmem.Env, work extmem.Array, ranks []int64) ([]extmem.Element, error) {
	obsort.Bitonic(env, work, obsort.ByKey)
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
