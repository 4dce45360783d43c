package core

import (
	"errors"
	"fmt"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// This file implements Theorem 8: loose compaction of at most R < N/4
// marked blocks into an array of size 5R using O(N/B) I/Os. The algorithm
// runs c0 randomized thinning passes that scatter occupied cells into a
// 4R-cell array C, then repeatedly sorts O(log n)-block regions and keeps
// only their first halves (each region holds at most half its cells of
// survivors w.h.p. — Lemma 7), until the residue is small enough that one
// deterministic sort is linear; the residue compacts into the final R
// cells.

// ErrLooseOverflow reports a low-probability failure: a region held more
// survivors than the halving step can keep (Lemma 7's bad event), or the
// final residue exceeded R. The trace is unchanged by the failure.
var ErrLooseOverflow = errors.New("core: loose compaction overflow")

// LooseParams tunes Theorem 8's constants.
type LooseParams struct {
	// C0 is the number of thinning passes per round (paper: >= 3 for the
	// Lemma 7 analysis; default 4).
	C0 int
	// C1 scales the region size c1·log2(n) (paper: d+2; default 4).
	C1 int
}

func (p *LooseParams) setDefaults() {
	if p.C0 == 0 {
		p.C0 = 4
	}
	if p.C1 == 0 {
		p.C1 = 4
	}
}

// CompactBlocksLoose compacts the occupied block-cells of a — at most rCap
// of them, with rCap <= len/4 — into a fresh array of exactly 5·rCap
// blocks using O(n) I/Os. Order is not preserved (this is the paper's
// loose compaction). Returns the output array and the occupied count.
func CompactBlocksLoose(env *extmem.Env, a extmem.Array, rCap int, p LooseParams) (extmem.Array, int, error) {
	p.setDefaults()
	n := a.Len()
	b := a.B()
	if rCap < 1 {
		rCap = 1
	}
	if n < 8 {
		// Degenerate small case: fall back to a single sort.
		return looseBySort(env, a, rCap)
	}

	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	c := out.Slice(0, 4*rCap)
	tail := out.Slice(4*rCap, 5*rCap)

	// Zero C.
	zeroArray(env, c)

	// Working copy of A (the halving is destructive).
	work := env.D.Alloc(n)
	occ := 0
	scanCopy(env, a, work, func(_ int, blk []extmem.Element) {
		if route.PredOccupied(blk) {
			occ++
		}
	})

	var failed error
	if occ > rCap {
		failed = fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLooseOverflow, occ, rCap)
	}

	// Region size: c1·log2(n) blocks, at least 2 and even.
	g := p.C1 * extmem.CeilLog2(max(2, n))
	if g < 2 {
		g = 2
	}
	g += g % 2

	// Stop halving when one deterministic sort of the residue is linear:
	// with the bitonic realization that is s ~ n/(1+log2^2(nB/M)).
	l := extmem.CeilLog2(max(2, n*b/env.M))
	stop := n / (1 + l*l)
	if stop < g {
		stop = g
	}
	if stop < 4 {
		stop = 4
	}

	s := n
	cur := work
	for s > stop {
		for pass := 0; pass < p.C0; pass++ {
			thinningPass(env, cur.Slice(0, s), c)
		}
		// Region halving: sort each region occupied-first, keep the first
		// half of each.
		ns := 0
		for lo := 0; lo < s; lo += g {
			hi := lo + g
			if hi > s {
				hi = s
			}
			ns += (hi - lo + 1) / 2
		}
		next := env.D.Alloc(ns)
		w := 0
		for lo := 0; lo < s; lo += g {
			hi := lo + g
			if hi > s {
				hi = s
			}
			keep := (hi - lo + 1) / 2
			if err := halveRegion(env, cur.Slice(lo, hi), next.Slice(w, w+keep)); err != nil && failed == nil {
				failed = err
			}
			w += keep
		}
		cur = next
		s = ns
	}

	// Final deterministic compression of the residue into the tail.
	obsort.Bitonic(env, cur.Slice(0, s), blockOccLess)
	wbuf := env.Cache.Buf(env.ScanBatchN(2, tail.Len()) * b)
	wr := extmem.NewSeqWriter(tail, 0, wbuf)
	survivors := 0
	scanReadSync(env, cur.Slice(0, s), func(i int, blk []extmem.Element) {
		if route.PredOccupied(blk) {
			survivors++
		}
		if i < tail.Len() {
			copy(wr.Next(), blk)
		}
	})
	for i := s; i < tail.Len(); i++ {
		blk := wr.Next()
		for t := range blk {
			blk[t] = extmem.Element{}
		}
	}
	wr.Flush()
	env.Cache.Free(wbuf)
	if survivors > tail.Len() && failed == nil {
		failed = fmt.Errorf("%w: %d survivors exceed tail capacity %d", ErrLooseOverflow, survivors, tail.Len())
	}

	env.D.Release(mark + out.Len())
	return out, occ, failed
}

// ThinningPassForTest exposes one A-to-C thinning pass for the E12
// experiment and external tests.
func ThinningPassForTest(env *extmem.Env, src, dst extmem.Array) { thinningPass(env, src, dst) }

// thinningPass is one A-to-C pass: for every cell of src, draw a uniform
// slot of dst, and move the cell there if the cell is occupied and the slot
// empty — the probe sequence is tape-driven, so the trace is
// data-independent.
//
// The pass runs in windows: w source cells are fetched with one vectored
// read, their w probe slots are drawn from the tape and fetched (distinct
// slots only — a repeated probe reuses the cached copy, preserving the
// scalar loop's sequential move semantics), the transfers happen privately,
// and both sides go back with vectored writes.
func thinningPass(env *extmem.Env, src, dst extmem.Array) {
	b := src.B()
	w := env.ScanBatchN(2, src.Len())
	sbuf := env.Cache.Buf(w * b)
	dbuf := env.Cache.Buf(w * b)
	js := make([]int, w)
	idx := make([]int, 0, w)
	slot := make(map[int]int, w)
	for i0 := 0; i0 < src.Len(); i0 += w {
		cnt := min(w, src.Len()-i0)
		src.ReadRange(i0, i0+cnt, sbuf[:cnt*b])
		idx = idx[:0]
		clear(slot)
		for t := 0; t < cnt; t++ {
			j := env.Tape.IntN(dst.Len())
			js[t] = j
			if _, seen := slot[j]; !seen {
				slot[j] = len(idx)
				idx = append(idx, j)
			}
		}
		dst.ReadMany(idx, dbuf[:len(idx)*b])
		for t := 0; t < cnt; t++ {
			sblk := sbuf[t*b : (t+1)*b]
			dblk := dbuf[slot[js[t]]*b : (slot[js[t]]+1)*b]
			if route.PredOccupied(sblk) && !route.PredOccupied(dblk) {
				copy(dblk, sblk)
				for e := range sblk {
					sblk[e] = extmem.Element{}
				}
			}
		}
		dst.WriteMany(idx, dbuf[:len(idx)*b])
		src.WriteRange(i0, i0+cnt, sbuf[:cnt*b])
	}
	env.Cache.Free(dbuf)
	env.Cache.Free(sbuf)
}

// blockOccLess orders elements so that blocks of occupied cells precede
// empty cells; within the occupied prefix the order is irrelevant for
// loose compaction, but Key order keeps the sort total.
func blockOccLess(a, b extmem.Element) bool { return a.Less(b) }

// halveRegion sorts one region occupied-first and writes its first half to
// dst, reporting overflow if more than half the region survived.
func halveRegion(env *extmem.Env, region, dst extmem.Array) error {
	b := region.B()
	g := region.Len()
	if g*b <= env.M-env.B() {
		buf := env.Cache.Buf(g * b)
		region.ReadRange(0, g, buf)
		// Private block-level sort: occupied cells first. Order within a
		// block must be preserved, so sort at block granularity.
		type cell struct {
			occ  bool
			data []extmem.Element
		}
		cells := make([]cell, g)
		for i := range cells {
			d := buf[i*b : (i+1)*b]
			cells[i] = cell{occ: route.PredOccupied(d), data: d}
		}
		surv := 0
		wbuf := env.Cache.Buf(env.ScanBatchN(1, dst.Len()) * b)
		wr := extmem.NewSeqWriter(dst, 0, wbuf)
		for _, cl := range cells {
			if cl.occ && wr.Pos() < dst.Len() {
				copy(wr.Next(), cl.data)
			}
			if cl.occ {
				surv++
			}
		}
		for wr.Pos() < dst.Len() {
			blk := wr.Next()
			for t := range blk {
				blk[t] = extmem.Element{}
			}
		}
		wr.Flush()
		env.Cache.Free(wbuf)
		env.Cache.Free(buf)
		if surv > dst.Len() {
			return fmt.Errorf("%w: region with %d survivors > %d", ErrLooseOverflow, surv, dst.Len())
		}
		return nil
	}
	// Region exceeds cache (no wide-block assumption): sort it obliviously.
	obsort.Bitonic(env, region, blockOccLess)
	wbuf := env.Cache.Buf(env.ScanBatchN(2, dst.Len()) * b)
	wr := extmem.NewSeqWriter(dst, 0, wbuf)
	surv := 0
	scanReadSync(env, region, func(i int, blk []extmem.Element) {
		if route.PredOccupied(blk) {
			surv++
		}
		if i < dst.Len() {
			copy(wr.Next(), blk)
		}
	})
	wr.Flush()
	env.Cache.Free(wbuf)
	if surv > dst.Len() {
		return fmt.Errorf("%w: region with %d survivors > %d", ErrLooseOverflow, surv, dst.Len())
	}
	return nil
}

// looseBySort is the tiny-input fallback: one deterministic sort.
func looseBySort(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int, error) {
	n := a.Len()
	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	work := env.D.Alloc(n)
	occ := 0
	scanCopy(env, a, work, func(_ int, blk []extmem.Element) {
		if route.PredOccupied(blk) {
			occ++
		}
	})
	obsort.Bitonic(env, work, blockOccLess)
	cp := min(n, out.Len())
	scanCopy(env, work.Slice(0, cp), out.Slice(0, cp), func(_ int, blk []extmem.Element) {})
	if cp < out.Len() {
		zeroArray(env, out.Slice(cp, out.Len()))
	}
	var err error
	if occ > rCap {
		err = fmt.Errorf("%w: %d occupied > capacity %d", ErrLooseOverflow, occ, rCap)
	}
	env.D.Release(mark + out.Len())
	return out, occ, err
}
