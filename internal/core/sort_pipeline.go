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

	// Staging: the held elements, in arrival order, in one buffer of
	// colors·(2B−1), which they never exceed by the group accounting
	// invariant (see package tests), plus the vectored chunk buffers sized
	// from what cache remains. held[c] of them have color c.
	stage := env.Cache.Buf(colors * (2*b - 1))
	hold := stage[:0]
	held := make([]int, colors+1) // 1-based colors
	k := env.ScanBatchN(2, out.Len())
	wbuf := env.Cache.Buf(k * b)
	wr := extmem.NewSeqWriter(out, 0, wbuf)

	// take moves the first B held elements of color c, or all there are,
	// into the next output block, empties after them, and closes the gaps
	// they leave: each color leaves in the order it arrived.
	take := func(c int) {
		blk := wr.Next()
		got, kept := 0, 0
		for _, e := range hold {
			if got < b && e.Color() == c {
				blk[got] = e
				got++
			} else {
				hold[kept] = e
				kept++
			}
		}
		clear(blk[got:])
		hold = hold[:kept]
		held[c] -= got
	}
	emit := func(quota int) {
		emitted := 0
		for c := 1; c <= colors && emitted < quota; c++ {
			for held[c] >= b && emitted < quota {
				take(c)
				emitted++
			}
		}
		for ; emitted < quota; emitted++ {
			clear(wr.Next())
		}
	}

	// The input arrives a scan batch at a time; the group accounting runs
	// after every colors-th block whatever the batch boundaries are.
	env.Scan(a, extmem.Array{}, k, func(lo int, in []extmem.Element) {
		for i := lo; i < lo+len(in)/b; i++ {
			for _, e := range in[(i-lo)*b : (i-lo+1)*b] {
				if e.Occupied() {
					if len(hold) == cap(hold) {
						panic("core: color consolidation holds more than colors·(2B−1) elements")
					}
					hold = append(hold, e)
					held[e.Color()]++
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
		for held[c] > 0 && flushed < 2*colors {
			take(c)
			flushed++
		}
	}
	for ; flushed < 2*colors; flushed++ {
		clear(wr.Next())
	}
	wr.Flush()
	env.Cache.Free(wbuf)
	env.Cache.Free(stage)
	return out
}

// deal distributes the shuffled monochromatic blocks into one array per
// color: each batch of `batch` blocks is read into the cache and exactly
// `quota` blocks are written to every color array (full blocks first,
// empties after), every color's quota in one vectored write across the
// color arrays, split only where the cache beside the batch cannot hold
// it; a batch's last write carries the next batch's read. A batch holding
// more than quota full blocks of one color is the Corollary 19 overflow
// event, at most 2^-40 at the plan's quota (dealTail): the excess is
// dropped and dealOK returns false, with the trace unchanged.
func deal(env *extmem.Env, a extmem.Array, colors, batch, quota int) ([]extmem.Array, bool) {
	n := a.Len()
	b := a.B()
	batches := extmem.CeilDiv(n, batch)
	l := batches * quota
	// The color arrays lie end to end, so one write reaches all of them.
	all := env.D.Alloc(colors * l)
	out := make([]extmem.Array, colors)
	for c := range out {
		out[c] = all.Slice(c*l, (c+1)*l)
	}

	buf := env.Cache.Buf(batch * b)
	per := colors * quota
	k := env.ScanBatchN(1, per)
	wbuf := env.Cache.Buf(k * b)
	ok := true
	// The batch's blocks of each color, batch after batch in the same
	// storage: a color holds at most the batch.
	perColor := make([][]int, colors+1)
	backing := make([]int, (colors+1)*batch)
	for c := range perColor {
		perColor[c] = backing[c*batch : c*batch : (c+1)*batch]
	}
	a.ReadRange(0, min(batch, n), buf[:min(batch, n)*b])
	for g := 0; g < batches; g++ {
		lo := g * batch
		hi := min(lo+batch, n)
		cnt := hi - lo
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
		idx := env.D.IndexScratch(k)
		fill := 0
		for c := 1; c <= colors; c++ {
			if len(perColor[c]) > quota {
				ok = false // Corollary 19 overflow; excess blocks dropped
			}
			for s := 0; s < quota; s++ {
				blk := wbuf[fill*b : (fill+1)*b]
				if s < len(perColor[c]) {
					copy(blk, buf[perColor[c][s]*b:(perColor[c][s]+1)*b])
				} else {
					clear(blk)
				}
				idx[fill] = (c-1)*l + g*quota + s
				if fill++; fill == k && (c-1)*quota+s+1 < per {
					all.WriteMany(idx, wbuf)
					fill = 0
				}
			}
		}
		// The batch's last write, and the next batch's read.
		next := min(hi+batch, n)
		x := env.D.Batch(max(fill, next-hi))
		x.Write(all, idx[:fill])
		x.ReadRange(a, hi, next)
		x.Do(wbuf, buf)
	}
	env.Cache.Free(wbuf)
	env.Cache.Free(buf)
	return out, ok
}
