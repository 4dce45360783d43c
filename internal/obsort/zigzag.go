package obsort

import (
	"oblivext/internal/extmem"
)

// This file implements the deterministic merge-round sorter in the family
// of Goodrich's zig-zag sort (arXiv:1403.2777): an O(n log n)-per-round,
// data-oblivious external sort built from merge-split rounds over
// cache-sized runs. The run schedule here is Batcher's odd-even merge
// network applied at run granularity: by the merge-split theorem (replace
// each wire of a sorting network with a sorted run of r elements and each
// comparator with a merge-split, and the network sorts the blocked input),
// the result is a correct sort with a fixed, data-independent trace.
//
// With K = ceil(N/(M/4)) runs the external cost is
// O((N/B)·(1 + log² K)) block I/Os in exactly 2 round trips per
// merge-split — one vectored read, one vectored write, each moving half a
// cache. Bitonic's packed passes close over log₂(M/2B) address bits each
// and beat this wherever the cache holds more than a few blocks; Zigzag
// wins when it holds few (a Bitonic pass then gathers one or two bits).
//
// Unlike Bitonic, Zigzag does not require the block size to be a power of
// two, and it needs no scratch arena: runs past the end of the array are
// virtual +infinity pads, skipped by ForEachComparator.

// Zigzag sorts the array with deterministic data-oblivious merge-split
// rounds. Requirements: M >= 4B. The address trace depends only on
// (len, B, M).
func Zigzag(env *extmem.Env, a extmem.Array, less Less) {
	n := a.Len()
	if n == 0 {
		return
	}
	b := a.B()
	if env.M < 4*b {
		panic("obsort: Zigzag requires M >= 4B")
	}
	sp := env.Obs.Start("zigzag")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(ZigzagIOCount(n, b, env.M), ZigzagRoundTrips(n, b, env.M))
	defer env.Obs.End(sp)
	cb := zigzagRunBlocks(b, env.M)
	k := extmem.CeilDiv(n, cb)
	runLen := func(r int) int {
		if (r+1)*cb <= n {
			return cb
		}
		return n - r*cb
	}

	buf := env.Cache.Buf(2 * cb * b)
	idx := make([]int, 2*cb)

	// Round 0: sort each run privately — one vectored read and one vectored
	// write per run.
	sp0 := env.Obs.Start("run-formation")
	sp0.SetAttrInt("runs", int64(k))
	sp0.SetPredicted(2*int64(n), 2*int64(k))
	for r := 0; r < k; r++ {
		lo, l := r*cb, runLen(r)
		a.ReadRange(lo, lo+l, buf[:l*b])
		InCachePar(env, buf[:l*b], less)
		a.WriteRange(lo, lo+l, buf[:l*b])
	}
	env.Obs.End(sp0)

	// Merge rounds: each comparator (i, j) of the run-level network becomes
	// a merge-split — read both runs in one vectored round trip, sort the
	// concatenation privately (a stable sort of two sorted runs is their
	// merge), and write the low part back to run i and the high part to
	// run j.
	spm := env.Obs.Start("merge-rounds")
	spm.SetAttrInt("merge-splits", int64(ZigzagMergeSplits(n, b, env.M)))
	ForEachComparator(k, func(i, j int) {
		li, lj := runLen(i), runLen(j)
		for t := 0; t < li; t++ {
			idx[t] = i*cb + t
		}
		for t := 0; t < lj; t++ {
			idx[li+t] = j*cb + t
		}
		a.ReadMany(idx[:li+lj], buf[:(li+lj)*b])
		InCachePar(env, buf[:(li+lj)*b], less)
		a.WriteMany(idx[:li+lj], buf[:(li+lj)*b])
	})
	env.Obs.End(spm)

	env.Cache.Free(buf)
}

// zigzagRunBlocks returns the run size in blocks: two runs plus slack must
// fit in cache, so a run is a quarter of the cache, at least one block.
func zigzagRunBlocks(b, m int) int {
	return max(1, m/(4*b))
}

// ZigzagSorter adapts Zigzag to the Sorter interface.
func ZigzagSorter(env *extmem.Env, a extmem.Array, less Less) { Zigzag(env, a, less) }

// ZigzagMergeSplits predicts the number of merge-splits Zigzag performs:
// the comparators of Batcher's network on ceil(n/runBlocks) run-wires,
// minus the ones ForEachComparator skips as virtual pads.
func ZigzagMergeSplits(nBlocks, b, m int) int {
	cb := zigzagRunBlocks(b, m)
	k := extmem.CeilDiv(nBlocks, cb)
	c := 0
	ForEachComparator(k, func(_, _ int) { c++ })
	return c
}

// ZigzagIOCount predicts the exact number of block I/Os Zigzag performs:
// one read+write of every block for round 0, plus one read+write of both
// runs per merge-split. The sorter tests check measured I/O against this.
func ZigzagIOCount(nBlocks, b, m int) int64 {
	if nBlocks == 0 {
		return 0
	}
	cb := zigzagRunBlocks(b, m)
	k := extmem.CeilDiv(nBlocks, cb)
	runLen := func(r int) int {
		if (r+1)*cb <= nBlocks {
			return cb
		}
		return nBlocks - r*cb
	}
	total := int64(2 * nBlocks)
	ForEachComparator(k, func(i, j int) {
		total += int64(2 * (runLen(i) + runLen(j)))
	})
	return total
}

// ZigzagRoundTrips predicts the number of vectored round trips: two per run
// in round 0 and two per merge-split.
func ZigzagRoundTrips(nBlocks, b, m int) int64 {
	if nBlocks == 0 {
		return 0
	}
	cb := zigzagRunBlocks(b, m)
	k := extmem.CeilDiv(nBlocks, cb)
	return int64(2*k) + 2*int64(ZigzagMergeSplits(nBlocks, b, m))
}
