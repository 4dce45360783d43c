package route

import (
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Consolidate is the data consolidation of Lemma 3: given an array A of
// blocks, produce a new array A' of exactly ceil(N/B) blocks in which every
// block is either completely full of kept elements or completely empty of
// them (at most the final block is partially full), preserving the relative
// order of kept elements. The keep predicate selects elements (the classic
// use keeps FlagMarked; the sorter engines keep FlagOccupied).
//
// The scan reads each input block once and writes each output block once
// (2·ceil(N/B) I/Os total), needs only M >= 2B, and is deterministic: the
// trace is a left-to-right scan regardless of where the kept elements are.
// Returns the output array and the number of kept elements (which only
// Alice learns — it travels in block contents, never in the trace).
//
// Kept elements are copied verbatim (all flag bits preserved); filler cells
// are zero elements.
func Consolidate(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool) (extmem.Array, int64) {
	n := a.Len()
	b := a.B()
	out := env.D.Alloc(n)
	if n == 0 {
		return out, 0
	}
	sp := env.Obs.Start("consolidate")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(obs.Cost{IOs: 2 * int64(n), RoundTrips: -1}) // Lemma 3: exactly n reads + n writes
	defer env.Obs.End(sp)

	l := lag{keep: keep, hold: env.Cache.Buf(2 * b)}
	k := env.ScanBatchN(2, n)
	wbuf := env.Cache.Buf(k * b)
	wr := extmem.NewSeqWriter(out, 0, wbuf)

	// The scan keeps the scalar lag structure — output block i-1 is decided
	// only after input block i has been absorbed — but moves up to k blocks
	// per round trip in each direction. The still-exact total is n reads
	// and n writes (Lemma 3).
	env.Scan(a, extmem.Array{}, k, func(lo int, chunk []extmem.Element) {
		for x := 0; x < len(chunk)/b; x++ {
			l.absorb(chunk[x*b : (x+1)*b])
			if lo+x > 0 {
				l.emit(wr.Next(), false)
			}
		}
	})
	l.emit(wr.Next(), true)
	wr.Flush()

	env.Cache.Free(wbuf)
	env.Cache.Free(l.hold)
	return out, l.kept
}

// lag is Lemma 3's holding buffer, 2B elements: under a block's worth of
// kept elements waiting to fill a cell, plus the block being absorbed.
// Output cell i is decided once input block i+1 has been absorbed — full if
// B elements wait, empty otherwise — and the last cell takes what is left,
// so n inputs make exactly n cells whatever the data.
type lag struct {
	keep    func(extmem.Element) bool
	hold    []extmem.Element
	pending int
	kept    int64
}

// absorb takes the kept elements of one input block.
func (l *lag) absorb(blk []extmem.Element) {
	for _, e := range blk {
		if l.keep(e) {
			l.hold[l.pending] = e
			l.pending++
			l.kept++
		}
	}
}

// emit writes the next output cell: a full block when one waits, everything
// left when last, zeros otherwise.
func (l *lag) emit(dst []extmem.Element, last bool) {
	take := 0
	if last || l.pending >= len(dst) {
		take = min(l.pending, len(dst))
	}
	if last && l.pending > take {
		panic("route: consolidation invariant violated") // one emit per input keeps pending <= B
	}
	copy(dst, l.hold[:take])
	clear(dst[take:])
	l.pending = copy(l.hold, l.hold[take:l.pending])
}

// cells fills dst with output cells [lo, hi) of the consolidation of src,
// for the butterfly's first pass, which asks for every cell once, in order.
// The input blocks that decide them, (lo, hi], are read into dst itself,
// each into the slot of the cell it decides and absorbed before that cell
// overwrites it. Block 0 decides nothing: it comes along when dst holds
// the whole array, and ahead of the first chunk, through the hold buffer's
// upper half, otherwise.
func (l *lag) cells(src extmem.Array, lo, hi int, dst []extmem.Element) {
	n, b := src.Len(), src.B()
	rlo, rhi := lo+1, min(hi+1, n)
	if lo == 0 {
		if hi == n {
			rlo = 0
		} else {
			src.Read(0, l.hold[b:])
			l.absorb(l.hold[b:])
		}
	}
	if rlo < rhi {
		src.ReadRange(rlo, rhi, dst[:(rhi-rlo)*b])
	}
	next := rlo
	for j := lo; j < hi; j++ {
		for ; next <= j+1 && next < rhi; next++ {
			l.absorb(dst[(next-rlo)*b : (next-rlo+1)*b])
		}
		l.emit(dst[(j-lo)*b:(j-lo+1)*b], j == n-1)
	}
}

// ConsolidateCost predicts Consolidate on n blocks of b elements, entered
// with m elements of the cache free and batches bounded by the cache alone:
// n reads and n writes (Lemma 3), in one round trip per input chunk and one
// per output chunk, both of the size two streams share beside the 2B
// holding buffer.
func ConsolidateCost(n, b, m int) obs.Cost {
	return obs.Cost{IOs: 2 * int64(n), RoundTrips: 2 * extmem.ScanRoundTrips(n, b, m-2*b, 2)}
}
