package core

import (
	"errors"
	"fmt"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/iblt"
	"oblivext/internal/obsort"
	"oblivext/internal/rng"
	"oblivext/internal/route"
)

// This file implements Theorem 4: tight order-preserving compaction of a
// sparse array through an invertible Bloom lookup table. Every position i
// of the input touches the same k table cells whether or not cell i is
// occupied — the semi-oblivious property of IBLT insertion (§2) — after
// which the table is peeled privately, in Alice's cache. The paper peels a
// table larger than the cache by a RAM simulation of the listEntries
// method; here such a table never arises, because CompactMarkedTight takes
// Theorem 6's butterfly wherever the table would not fit.

// ErrCompactionFailed reports a declared compaction failure: marked or
// occupied cells over the declared capacity, on either arm; on Theorem 4's
// arm an IBLT peel that did not recover every occupied cell (probability
// bounded by Lemma 1), its message saying "sparse"; and, before any I/O, a
// butterfly compaction entered with less cache free than the routing
// needs. The trace up to the failure is exactly the success trace —
// Monte-Carlo semantics, no data-dependent retry.
var ErrCompactionFailed = errors.New("core: compaction failed")

// Theorem 4's table geometry.
const (
	// sparseK is the number of hash functions.
	sparseK = 4
	// sparseTableFactor is m/r, the cells per unit capacity (the paper's
	// "table of size 3r").
	sparseTableFactor = 3
)

// sparseTableCells is the table size m for capacity rCap.
func sparseTableCells(rCap int) int { return max(sparseTableFactor*rCap, sparseK) }

// cellWords returns the serialized width of one IBLT cell for block values:
// count and keySum plus ElementWords words per element of the block.
func cellWords(b int) int { return 2 + extmem.ElementWords*b }

// SparseTableFits reports whether Theorem 4's table for capacity rCap would
// fit the cache free at the call, i.e. whether CompactBlocksSparse accepts
// it.
func SparseTableFits(env *extmem.Env, rCap int) bool {
	rCap = max(rCap, 1)
	return peelFitsCache(env, sparseTableCells(rCap), rCap)
}

// peelFitsCache reports whether everything peelPrivate checks out at once —
// the m table cells, the rCap recovered (key, block) pairs, and a scan
// buffer of one block with ScanBatch's block of slack — fits in the cache
// not checked out.
func peelFitsCache(env *extmem.Env, m, rCap int) bool {
	b := env.B()
	return m*cellWords(b)+rCap*(cellWords(b)-1)+2*b <= env.M-env.Cache.Used()
}

// CompactBlocksSparse compacts the occupied block-cells of a — at most rCap
// of them — into a fresh array of exactly rCap blocks, occupied cells
// first in their original element order (by the Pos field), empties after.
// It uses O(n + rCap·polylog) I/Os: one insertion scan with k cell touches
// per input position, a peel, and an order-restoring oblivious sort.
//
// The occupied count is returned privately. If more than rCap cells are
// occupied, or peeling fails (Lemma 1's low-probability event), the full
// fixed-length trace is still produced and ErrCompactionFailed is returned.
//
// The table must fit the cache (SparseTableFits); CompactBlocksSparse
// panics otherwise, before any I/O.
func CompactBlocksSparse(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int, error) {
	n := a.Len()
	b := a.B()
	if rCap < 1 {
		rCap = 1
	}
	m := sparseTableCells(rCap)
	if !peelFitsCache(env, m, rCap) {
		panic(fmt.Sprintf("core: sparse compaction's table of m = %d cells for rCap = %d blocks does not fit the cache: %d of M = %d free, B = %d",
			m, rCap, env.M-env.Cache.Used(), env.M, b))
	}
	seed := env.Tape.Uint64() // hash family seed: one draw, data-independent
	hasher := rng.NewHasher(seed, sparseK, m)

	mark := env.D.Mark()
	out := env.D.Alloc(rCap)

	// Table storage: one sum block per cell plus packed (count, keySum)
	// headers, B per block. Zeroing is a chunked run write.
	sums := env.D.Alloc(m)
	hdrs := env.D.Alloc(extmem.CeilDiv(m, b))
	zeroArray(env, sums)
	zeroArray(env, hdrs)

	// Insertion pass: each position touches its k cells; unoccupied
	// positions write the cells back unchanged (re-encrypted in the real
	// deployment — indistinguishable either way). The cell indices are hash
	// outputs of the (public) position, so the k sum cells and their header
	// blocks travel as vectored batches: one read and one write each —
	// four round trips per position instead of 4k. Colliding hash functions
	// are deduplicated first-touch so each address appears once per batch;
	// the in-cache copy absorbs the multiplicity exactly as the scalar
	// read-modify-write sequence did.
	ablk := env.Cache.Buf(b)
	g := env.ScanBatchN(2, sparseK) // unique cells per vectored group
	sbuf := env.Cache.Buf(g * b)
	hbuf := env.Cache.Buf(g * b)
	cells := make([]int, 0, sparseK)
	hblks := make([]int, 0, sparseK)
	occCount := 0
	for i := 0; i < n; i++ {
		a.Read(i, ablk)
		occ := route.PredOccupied(ablk)
		if occ {
			occCount++
		}
		// Keys are positions offset by one so that a zero keySum is never a
		// valid key; the peeler subtracts the offset back.
		cells = cells[:0]
		hblks = hblks[:0]
		for j := 0; j < sparseK; j++ {
			c := hasher.Index(j, uint64(i)+1)
			if !slices.Contains(cells, c) {
				cells = append(cells, c)
			}
			if !slices.Contains(hblks, c/b) {
				hblks = append(hblks, c/b)
			}
		}
		for glo := 0; glo < len(cells); glo += g {
			grp := cells[glo:min(glo+g, len(cells))]
			sums.ReadMany(grp, sbuf[:len(grp)*b])
			if occ {
				for j := 0; j < sparseK; j++ {
					c := hasher.Index(j, uint64(i)+1)
					gi := slices.Index(grp, c)
					if gi < 0 {
						continue
					}
					sblk := sbuf[gi*b : (gi+1)*b]
					for t := 0; t < b; t++ {
						sblk[t].Key += ablk[t].Key
						sblk[t].Val += ablk[t].Val
						sblk[t].Pos += ablk[t].Pos
						sblk[t].Flags += ablk[t].Flags
					}
				}
			}
			sums.WriteMany(grp, sbuf[:len(grp)*b])
		}
		for glo := 0; glo < len(hblks); glo += g {
			grp := hblks[glo:min(glo+g, len(hblks))]
			hdrs.ReadMany(grp, hbuf[:len(grp)*b])
			if occ {
				for j := 0; j < sparseK; j++ {
					c := hasher.Index(j, uint64(i)+1)
					gi := slices.Index(grp, c/b)
					if gi < 0 {
						continue
					}
					hbuf[gi*b+c%b].Val++                // count
					hbuf[gi*b+c%b].Key += uint64(i) + 1 // keySum (offset keys: key 0 stays distinguishable)
				}
			}
			hdrs.WriteMany(grp, hbuf[:len(grp)*b])
		}
	}
	env.Cache.Free(hbuf)
	env.Cache.Free(sbuf)
	env.Cache.Free(ablk)

	var err error
	if recovered := peelPrivate(env, sums, hdrs, hasher, m, rCap, out); recovered != occCount || occCount > rCap {
		err = fmt.Errorf("%w: sparse: recovered %d of %d occupied cells (capacity %d)",
			ErrCompactionFailed, recovered, occCount, rCap)
	}

	// Order restoration: sort the fixed-size output by original position.
	obsort.Deterministic(env, out, obsort.ByPos)

	// Reclaim the table arenas but keep out: it was allocated first, so
	// releasing to its end preserves it.
	env.D.Release(mark + rCap)
	return out, occCount, err
}

// peelPrivate loads the table into Alice's memory, peels it there (no trace
// at all), and writes exactly rCap output blocks.
func peelPrivate(env *extmem.Env, sums, hdrs extmem.Array, h *rng.Hasher, m, rCap int, out extmem.Array) int {
	b := sums.B()
	w := cellWords(b) - 2
	env.Cache.Acquire(m * (w + 2))
	cells := make([]iblt.Cell, m)
	flat := make([]uint64, m*w)
	for i := range cells {
		cells[i].ValSum = flat[i*w : (i+1)*w]
	}

	kc := env.ScanBatchN(1, m)
	env.Scan(sums, extmem.Array{}, kc, func(lo int, chunk []extmem.Element) {
		for c := lo; c < lo+len(chunk)/b; c++ {
			encodeBlockWords(cells[c].ValSum, chunk[(c-lo)*b:(c-lo+1)*b])
		}
	})
	env.Scan(hdrs, extmem.Array{}, kc, func(lo int, chunk []extmem.Element) {
		for t, e := range chunk[:min(len(chunk), m-lo*b)] { // the last header block is part padding
			cells[lo*b+t].Count = int64(e.Val)
			cells[lo*b+t].KeySum = e.Key
		}
	})

	// The recovered keys are positions, which the values' Pos fields
	// repeat: only the values are kept.
	var recs [][]uint64
	env.Cache.Acquire(rCap * (w + 1))
	iblt.Peel(cells, h, func(_ uint64, val []uint64) {
		if len(recs) < rCap {
			recs = append(recs, val)
		}
	})

	// Emit exactly rCap blocks: recovered cells then empties.
	env.Scan(extmem.Array{}, out, env.ScanBatchN(1, rCap), func(lo int, chunk []extmem.Element) {
		for i := lo; i < min(lo+len(chunk)/b, len(recs)); i++ {
			decodeBlockWords(chunk[(i-lo)*b:(i-lo+1)*b], recs[i])
		}
	})
	env.Cache.Release(rCap * (w + 1))
	env.Cache.Release(m * (w + 2))
	return len(recs)
}

// encodeBlockWords flattens a block's elements into words.
func encodeBlockWords(dst []uint64, blk []extmem.Element) {
	for t, e := range blk {
		dst[t*4+0] = e.Key
		dst[t*4+1] = e.Val
		dst[t*4+2] = e.Pos
		dst[t*4+3] = e.Flags
	}
}

// decodeBlockWords unflattens words into a block's elements.
func decodeBlockWords(blk []extmem.Element, src []uint64) {
	for t := range blk {
		blk[t] = extmem.Element{
			Key:   src[t*4+0],
			Val:   src[t*4+1],
			Pos:   src[t*4+2],
			Flags: src[t*4+3],
		}
	}
}
