package core

import "oblivext/internal/extmem"

// consolidateColors is §5's (q+1)-way data consolidation: scan the array in
// groups of `colors` blocks, keep per-color staging lists in the cache, and
// emit exactly `colors` blocks per group — as many monochromatic full
// blocks as available (up to the group quota), padded with empty blocks —
// plus a fixed 2·colors-block flush of the partial remainders. Every block
// of the output is monochromatic; all but the flush blocks are full. The
// trace is a strict left-to-right read/write sequence.
func consolidateColors(env *extmem.Env, a extmem.Array, colors int) extmem.Array {
	n := a.Len()
	b := a.B()
	groups := extmem.CeilDiv(n, colors)
	out := env.D.Alloc(groups*colors + 2*colors)

	// Staging: held elements never exceed colors*(2B-1) by the group
	// accounting invariant (see package tests), plus the vectored chunk
	// buffers sized from what cache remains.
	env.Cache.Acquire(colors * (2*b - 1))
	hold := make([][]extmem.Element, colors+1) // 1-based colors
	k := env.ScanBatchN(2, out.Len())
	wbuf := env.Cache.Buf(k * b)
	wr := extmem.NewSeqWriter(out, 0, wbuf)

	emit := func(quota int) {
		emitted := 0
		for c := 1; c <= colors && emitted < quota; c++ {
			for len(hold[c]) >= b && emitted < quota {
				copy(wr.Next(), hold[c][:b])
				hold[c] = hold[c][b:]
				emitted++
			}
		}
		for ; emitted < quota; emitted++ {
			blk := wr.Next()
			for t := range blk {
				blk[t] = extmem.Element{}
			}
		}
	}

	// The input arrives a scan batch at a time; the group accounting runs
	// after every colors-th block whatever the batch boundaries are.
	env.Scan(a, extmem.Array{}, k, func(lo int, in []extmem.Element) {
		for i := lo; i < lo+len(in)/b; i++ {
			for _, e := range in[(i-lo)*b : (i-lo+1)*b] {
				if e.Occupied() {
					hold[e.Color()] = append(hold[e.Color()], e)
				}
			}
			if (i+1)%colors == 0 || i == n-1 {
				emit(colors)
			}
		}
	})
	// Flush: partial blocks, padded to exactly 2·colors outputs.
	flushed := 0
	for c := 1; c <= colors; c++ {
		for len(hold[c]) > 0 && flushed < 2*colors {
			take := len(hold[c])
			if take > b {
				take = b
			}
			blk := wr.Next()
			for t := 0; t < b; t++ {
				if t < take {
					blk[t] = hold[c][t]
				} else {
					blk[t] = extmem.Element{}
				}
			}
			hold[c] = hold[c][take:]
			flushed++
		}
	}
	for ; flushed < 2*colors; flushed++ {
		blk := wr.Next()
		for t := range blk {
			blk[t] = extmem.Element{}
		}
	}
	wr.Flush()
	env.Cache.Free(wbuf)
	env.Cache.Release(colors * (2*b - 1))
	return out
}

// deal distributes the shuffled monochromatic blocks into one array per
// color: each batch of `batch` blocks is read into the cache and exactly
// `quota` blocks are written to every color array (full blocks first,
// empties after). A batch holding more than quota full blocks of one color
// is the Corollary 19 overflow event, at most 2^-40 at sortPlan's quota
// (dealTail): the excess is dropped and dealOK returns false, with the
// trace unchanged.
func deal(env *extmem.Env, a extmem.Array, colors, batch, quota int) ([]extmem.Array, bool) {
	n := a.Len()
	b := a.B()
	batches := extmem.CeilDiv(n, batch)
	out := make([]extmem.Array, colors)
	for c := range out {
		out[c] = env.D.Alloc(batches * quota)
	}

	buf := env.Cache.Buf(batch * b)
	wbuf := env.Cache.Buf(env.ScanBatchN(1, quota) * b)
	// The color arrays are independent targets fed from the in-cache batch
	// buffer: one writer, retargeted color by color.
	wr := extmem.NewSeqWriter(out[0], 0, wbuf)
	ok := true
	perColor := make([][]int, colors+1) // reused batch after batch
	for g := 0; g < batches; g++ {
		lo := g * batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		cnt := hi - lo
		a.ReadRange(lo, hi, buf[:cnt*b])
		// Index the batch's full blocks by color (private).
		for c := range perColor {
			perColor[c] = perColor[c][:0]
		}
		for i := 0; i < cnt; i++ {
			cell := buf[i*b : (i+1)*b]
			if cell[0].Occupied() {
				c := cell[0].Color()
				perColor[c] = append(perColor[c], i)
			}
		}
		for c := 1; c <= colors; c++ {
			if len(perColor[c]) > quota {
				ok = false // Corollary 19 overflow; excess blocks dropped
			}
			wr.Retarget(out[c-1], g*quota)
			for s := 0; s < quota; s++ {
				blk := wr.Next()
				if s < len(perColor[c]) {
					copy(blk, buf[perColor[c][s]*b:(perColor[c][s]+1)*b])
				} else {
					for t := range blk {
						blk[t] = extmem.Element{}
					}
				}
			}
			wr.Flush()
		}
	}
	env.Cache.Free(wbuf)
	env.Cache.Free(buf)
	return out, ok
}
