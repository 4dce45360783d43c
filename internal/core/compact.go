package core

import (
	"errors"
	"fmt"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/route"
)

// This file holds the two compactions of marked elements the public API
// runs. Both consolidate the marked elements (Lemma 3) and route the
// consolidated cells through Theorem 6's butterfly as the consolidation
// reads (route.ConsolidateCompactInto), straight into the leading blocks of
// their output; one write-only scan zero-fills the output past the input's
// length. They differ only in that length: rCap blocks for tight
// compaction, 5·rCap for loose. The butterfly costs fewer block I/Os and
// fewer round trips than the paper's Theorem 4 (an IBLT peeled privately)
// and Theorems 8 and 9 at every geometry priced against them (the tables
// in docs/ARCHITECTURE.md), and is deterministic, so its only declared
// failures are over-capacity and, before any I/O, a cache too small for
// the routing.

// ErrCompactionFailed reports a declared compaction failure: more marked
// elements than the declared capacity holds, returned after the whole
// trace of a completed call, or, before any I/O, a compaction entered with
// less cache free than the routing needs.
var ErrCompactionFailed = errors.New("core: compaction failed")

// CompactMarkedTight is tight compaction as the public API runs it: the
// marked elements of a, at most rCap blocks of them, in order in a fresh
// array of exactly rCap blocks, empties after them, in CompactTightCost's
// block I/Os and round trips exactly. It fails, with ErrCompactionFailed,
// only where more than rCap blocks' worth are marked, or before any I/O
// where less cache is free than route.ConsolidateCompactFree.
func CompactMarkedTight(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int64, error) {
	return compactMarked(env, a, rCap, rCap)
}

// CompactMarkedLoose is loose compaction as the public API runs it: the
// marked elements of a, at most rCap blocks of them, in a fresh array of
// 5·rCap blocks, the rest of it empty, in CompactLooseCost's block I/Os and
// round trips exactly. The marked elements land in order in the leading
// blocks, but a loose compaction promises only that they are somewhere in
// the output. It fails as CompactMarkedTight does.
func CompactMarkedLoose(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int64, error) {
	return compactMarked(env, a, 5*rCap, rCap)
}

// compactMarked routes the consolidated marked elements of a into the
// leading a.Len() blocks of a fresh array of max(a.Len(), length) blocks,
// zero-fills the blocks past a.Len() with one write-only scan, and returns
// the first length blocks, the number of marked elements and overCapacity's
// verdict against rCap. The blocks past length go back to the Disk: the
// call leaves it exactly length blocks higher. Below the routing's least
// free cache it fails with ErrCompactionFailed before any I/O.
func compactMarked(env *extmem.Env, a extmem.Array, length, rCap int) (extmem.Array, int64, error) {
	n := a.Len()
	if free, need := env.M-env.Cache.Used(), route.ConsolidateCompactFree(n, a.B()); free < need {
		return extmem.Array{}, 0, fmt.Errorf("%w: the butterfly over n=%d blocks of B=%d needs %d elements of cache free, not %d",
			ErrCompactionFailed, n, a.B(), need, free)
	}
	mark := env.D.Mark()
	out := env.D.Alloc(max(n, length))
	marked := route.ConsolidateCompactInto(env, a, out.Slice(0, n), extmem.Element.Marked)
	zeroArray(env, out.Slice(n, out.Len()))
	env.D.Release(mark + length)
	return out.Slice(0, length), marked, overCapacity(marked, env.B(), rCap)
}

// overCapacity is the declared failure of a compaction whose marked
// elements fill more than rCap blocks of b.
func overCapacity(marked int64, b, rCap int) error {
	if need := extmem.CeilDiv64(marked, int64(b)); need > int64(rCap) {
		return fmt.Errorf("%w: %d marked blocks exceed capacity %d", ErrCompactionFailed, need, rCap)
	}
	return nil
}

// CompactTightCost predicts CompactMarkedTight on n blocks of b elements
// with capacity rCap, entered with m elements of the cache free and batches
// bounded by the cache alone (no MaxBatch).
func CompactTightCost(n, rCap, b, m int) obs.Cost { return compactCost(n, rCap, b, m) }

// CompactLooseCost predicts CompactMarkedLoose as CompactTightCost predicts
// CompactMarkedTight.
func CompactLooseCost(n, rCap, b, m int) obs.Cost { return compactCost(n, 5*rCap, b, m) }

// compactCost predicts compactMarked with an output of length blocks: the
// consolidating butterfly over the n blocks, and the write scan that
// zero-fills the length − n blocks past them, where there are any.
func compactCost(n, length, b, m int) obs.Cost {
	fill := max(length-n, 0)
	return route.ConsolidateCompactCost(n, b, m).Add(obs.Cost{IOs: int64(fill), RoundTrips: extmem.ScanRoundTrips(fill, b, m, 1)})
}
