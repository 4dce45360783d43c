package route

import (
	"oblivext/internal/extmem"
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
	sp.SetPredicted(2*int64(n), -1) // Lemma 3: exactly n reads + n writes
	defer env.Obs.End(sp)

	hold := env.Cache.Buf(2 * b) // pending kept elements, always < B live + incoming B
	k := env.ScanBatch(2)
	if k > n {
		k = n
	}
	in := env.Cache.Buf(k * b)
	wbuf := env.Cache.Buf(k * b)
	wr := extmem.NewSeqWriter(out, 0, wbuf)
	pending := 0
	var kept int64
	nw := env.WorkerCount()
	kcnt := make([]int, k)

	// The scan keeps the scalar lag structure — output block i-1 is decided
	// only after input block i has been absorbed — but moves up to k blocks
	// per round trip in each direction. The still-exact total is n reads
	// and n writes (Lemma 3). Per chunk, the keep predicate and the
	// intra-block gather run in parallel (each block's kept elements are
	// compacted, stably, to its front in the private buffer); the serial
	// lag loop then absorbs the pre-gathered runs.
	gather := func(plo, phi int) { // built once: a chunk costs no closure
		for x := plo; x < phi; x++ {
			blk := in[x*b : (x+1)*b]
			w := 0
			for t := range blk {
				if keep(blk[t]) {
					blk[w] = blk[t]
					w++
				}
			}
			kcnt[x] = w
		}
	}
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		a.ReadRange(lo, hi, in[:(hi-lo)*b])
		parFor(nw, hi-lo, gather)
		for i := lo; i < hi; i++ {
			x := i - lo
			copy(hold[pending:pending+kcnt[x]], in[x*b:x*b+kcnt[x]])
			pending += kcnt[x]
			kept += int64(kcnt[x])
			if i == 0 {
				continue
			}
			slot := wr.Next()
			if pending >= b {
				copy(slot, hold[:b])
				copy(hold, hold[b:pending])
				pending -= b
			} else {
				for t := range slot {
					slot[t] = extmem.Element{}
				}
			}
		}
	}
	// Final block: whatever remains (possibly a partial block).
	if pending > b {
		// Cannot happen: pending < B before the last read, so pending <
		// 2B, and pending >= B would have emitted a full block — unless
		// the last block pushed it over; flush the full block then the
		// remainder would be lost. Guard explicitly.
		panic("route: consolidation invariant violated")
	}
	slot := wr.Next()
	for t := range slot {
		slot[t] = extmem.Element{}
	}
	copy(slot, hold[:min(pending, b)])
	wr.Flush()

	env.Cache.Free(wbuf)
	env.Cache.Free(in)
	env.Cache.Free(hold)
	return out, kept
}

// ConsolidateRoundTrips predicts the vectored round trips of Consolidate on
// n blocks of b elements, entered with all m elements of the cache free and
// batches bounded by the cache alone: one per input chunk and one per output
// chunk, both of the size two streams share beside the 2B holding buffer.
func ConsolidateRoundTrips(n, b, m int) int64 {
	if n == 0 {
		return 0
	}
	return 2 * int64(extmem.CeilDiv(n, min(n, extmem.ScanBatchOf(m-2*b, b, 2))))
}
