package obsort

import (
	"fmt"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
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
// With free the cache the caller leaves it and K = ceil(N/(free/4)) runs
// the external cost is O((N/B)·(1 + log² K)) block I/Os in exactly 2 round
// trips per merge-split — one vectored read, one vectored write, each
// moving half the free cache. Bitonic's packed passes close over
// ⌊log₂(free/B)⌋ dimensions each, at the same free cache, and beat this
// wherever more than a few blocks are free; Zigzag wins in block I/Os where
// bitonic's window is two blocks (a pass then closes over a single level,
// and Batcher's odd-even network has fewer comparators: TestZigzagProbe).
//
// Unlike Bitonic, Zigzag does not require the block size to be a power of
// two. Like it, it needs no scratch arena: runs past the end of the array
// are virtual +infinity pads, skipped by ForEachComparator.

// Zigzag sorts the array with deterministic data-oblivious merge-split
// rounds, its runs sized from the cache free at the call: it needs two
// blocks of it, and panics with fewer. The address trace depends only on
// (len, B, free).
// Its Order argument is inert; it goes with the benchmark's call site
// (benchmark/layers.go) in ROADMAP item 1(a)'s benchmark change.
func Zigzag(env *extmem.Env, a extmem.Array, _ Order) {
	n := a.Len()
	if n == 0 {
		return
	}
	b := a.B()
	free := env.M - env.Cache.Used()
	if free < 2*b {
		panic(fmt.Sprintf("obsort: Zigzag needs 2 blocks, %d elements, but the cache has %d free (M=%d, used=%d)",
			2*b, free, env.M, env.Cache.Used()))
	}
	sp := env.Obs.Start("zigzag")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(ZigzagCost(n, b, free))
	defer env.Obs.End(sp)
	cb := zigzagRunBlocks(b, free)
	k := extmem.CeilDiv(n, cb)
	runLen := func(r int) int { return min(cb, n-r*cb) }

	buf := env.Cache.Buf(2 * cb * b)

	// Round 0: sort each run privately — one vectored read and one vectored
	// write per run.
	sp0 := env.Obs.Start("run-formation")
	sp0.SetAttrInt("runs", int64(k))
	sp0.SetPredicted(obs.Cost{IOs: 2 * int64(n), RoundTrips: 2 * int64(k)})
	for r := 0; r < k; r++ {
		lo, l := r*cb, runLen(r)
		a.ReadRange(lo, lo+l, buf[:l*b])
		InCache(buf[:l*b])
		a.WriteRange(lo, lo+l, buf[:l*b])
	}
	env.Obs.End(sp0)

	// Merge rounds: each comparator (i, j) of the run-level network becomes
	// a merge-split — read both runs in one vectored round trip, sort the
	// concatenation privately (a stable sort of two sorted runs is their
	// merge), and write the low part back to run i and the high part to
	// run j.
	spm := env.Obs.Start("merge-rounds")
	spm.SetAttrInt("merge-splits", int64(zigzagMergeSplits(n, b, free)))
	ForEachComparator(k, func(i, j int) {
		li, lj := runLen(i), runLen(j)
		pair := buf[:(li+lj)*b]
		x := env.D.Batch(li + lj)
		x.ReadRange(a, i*cb, i*cb+li)
		x.ReadRange(a, j*cb, j*cb+lj)
		x.Do(nil, pair)
		InCache(pair)
		x = env.D.Batch(li + lj)
		x.WriteRange(a, i*cb, i*cb+li)
		x.WriteRange(a, j*cb, j*cb+lj)
		x.Do(pair, nil)
	})
	env.Obs.End(spm)

	env.Cache.Free(buf)
}

// zigzagRunBlocks returns the run size in blocks: a quarter of the free
// cache, at least one block, so the two runs of a merge-split fill half of
// it.
func zigzagRunBlocks(b, free int) int {
	return max(1, free/(4*b))
}

// zigzagMergeSplits is the number of merge-splits Zigzag performs: the
// comparators of Batcher's network on ceil(n/runBlocks) run-wires, minus the
// ones ForEachComparator skips as virtual pads.
func zigzagMergeSplits(nBlocks, b, free int) int {
	c := 0
	ForEachComparator(extmem.CeilDiv(nBlocks, zigzagRunBlocks(b, free)), func(_, _ int) { c++ })
	return c
}

// ZigzagCost predicts the exact block I/Os and vectored round trips of one
// Zigzag call with free elements of cache free: a read and a write of every
// block, in two round trips a run, for round 0, and a read and a write of
// both runs, in two round trips, per merge-split.
func ZigzagCost(nBlocks, b, free int) obs.Cost {
	cb := zigzagRunBlocks(b, free)
	k := extmem.CeilDiv(nBlocks, cb)
	c := obs.Cost{IOs: 2 * int64(nBlocks), RoundTrips: 2 * int64(k)}
	ForEachComparator(k, func(i, j int) {
		c.IOs += 2 * int64(min(cb, nBlocks-i*cb)+min(cb, nBlocks-j*cb))
		c.RoundTrips += 2
	})
	return c
}
