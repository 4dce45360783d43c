package core

import (
	"slices"

	"oblivext/internal/extmem"
)

// consolidateShuffle is one distributing level's pass from its input a to
// the shuffled consolidated array it returns, ap of lv.apLen blocks (§5).
// It reads a once and colors every occupied element as it arrives: bucket
// 1 + #splitters strictly below it.
//
// Consolidation: the occupied elements of each input block join a staging
// buffer in the cache, and one output block takes the input block's place
// — B elements of the first color holding B, or an empty block — then
// 2·colors flush blocks take what remains, up to B elements of one color
// each. Every output block is monochromatic, and all but the flush blocks
// are full or empty. Between blocks the staging holds at most
// colors·(B−1) elements: a block adds at most B, and then either a color
// holds B and a full block leaves, or every color holds at most B−1. So it
// holds at most B more while a block arrives, and what is left at the end
// fills fewer than 2·colors blocks.
//
// Shuffle: the output blocks land through an inside-out Fisher–Yates —
// output block i is swapped with block j = tape.IntN(i+1) of ap, j ≤ i —
// so ap ends a uniform permutation of them, Corollary 19's assumption
// (dealTail), and the tape draws only the j's. The pass runs in windows of
// lv.win blocks: a window's input is read into its own slots and
// consolidated there, its swaps are replayed in the cache against its
// targets below it, read beforehand, and the window and those targets,
// padded to exactly min(window, start) with the lowest untouched blocks,
// go back in one exchange that carries the next window's input and
// targets. Every count is a function of (n, B, free) and every address of
// the tape.
func consolidateShuffle(env *extmem.Env, a extmem.Array, bounds []bound, lv sortLevel) extmem.Array {
	n, b, q := a.Len(), a.B(), len(bounds)
	colors, l, w := q+1, lv.apLen, lv.win
	ap := env.D.Alloc(l)
	stage := env.Cache.Buf(colors*(b-1) + b)
	buf := env.Cache.Buf(2 * w * b) // a window's targets, then the window
	// The staged elements of color c are a queue through the stage's
	// slots, head[c] to tail[c] by next, held[c] of them, and free chains
	// the empty slots. A window's block s swaps with block loc[s] of buf;
	// tgt lists its targets below it, which keys sorts as j·w+s. All of it
	// is cut from one list.
	scratch := make([]int, len(stage)+3*(colors+1)+3*w)
	cut := func(n int) []int {
		s := scratch[:n:n]
		scratch = scratch[n:]
		return s
	}
	next, head, tail, held := cut(len(stage)), cut(colors+1), cut(colors+1), cut(colors+1)
	loc, keys, tgt := cut(w), cut(w)[:0], cut(w)[:0]
	free := 0
	for i := range next {
		next[i] = i + 1
	}
	next[len(next)-1] = -1
	for c := range head {
		head[c], tail[c] = -1, -1
	}

	// draw lays out the window of cnt blocks from i0: nt = min(cnt, i0)
	// targets below it, the distinct ones its draws hit in ascending
	// order, then the lowest untouched ones.
	nt := 0
	draw := func(i0, cnt int) {
		nt, keys, tgt = min(cnt, i0), keys[:0], tgt[:0]
		for s := range cnt {
			j := 0
			if i := i0 + s; i > 0 {
				j = env.Tape.IntN(i + 1)
			}
			if j >= i0 {
				loc[s] = nt + j - i0
			} else {
				keys = append(keys, j*w+s)
			}
		}
		slices.Sort(keys)
		for _, key := range keys {
			if j := key / w; len(tgt) == 0 || tgt[len(tgt)-1] != j {
				tgt = append(tgt, j)
			}
			loc[key%w] = len(tgt) - 1
		}
		for p, k, hit := 0, 0, len(tgt); len(tgt) < nt; p++ {
			if k < hit && tgt[k] == p {
				k++
			} else {
				tgt = append(tgt, p)
			}
		}
	}

	cnt := min(w, l)
	draw(0, cnt)
	a.ReadRange(0, min(cnt, n), buf[:min(cnt, n)*b])
	for i0 := 0; i0 < l; {
		win := buf[nt*b : (nt+cnt)*b]
		for s := range cnt {
			blk := win[s*b : (s+1)*b]
			need := 1 // a flush block takes what a color has left
			if i0+s < n {
				need = b
				for t := range blk {
					if !blk[t].Occupied() {
						continue
					}
					if free < 0 {
						panic("core: color consolidation holds more than colors·(B−1)+B elements")
					}
					c := 1
					for j := range q {
						if bounds[j].lessElem(blk[t]) {
							c = j + 2
						}
					}
					slot := free
					free, next[slot] = next[slot], -1
					stage[slot] = blk[t]
					stage[slot].SetColor(c)
					if tail[c] < 0 {
						head[c] = slot
					} else {
						next[tail[c]] = slot
					}
					tail[c] = slot
					held[c]++
				}
			}
			// The output block: the first B, or all, of the first color
			// holding need, in the order they arrived, empties after.
			c := 1
			for c <= colors && held[c] < need {
				c++
			}
			got := 0
			for ; c <= colors && got < b && head[c] >= 0; got++ {
				slot := head[c]
				blk[got] = stage[slot]
				head[c], next[slot], free = next[slot], free, slot
			}
			clear(blk[got:])
			if c <= colors {
				held[c] -= got
				if head[c] < 0 {
					tail[c] = -1
				}
			}
		}
		for s := range cnt {
			if i, j := nt+s, loc[s]; i != j {
				x, y := buf[i*b:(i+1)*b], buf[j*b:(j+1)*b]
				for e := range x {
					x[e], y[e] = y[e], x[e]
				}
			}
		}
		x := env.D.Batch(2 * w)
		x.Write(ap, tgt)
		x.WriteRange(ap, i0, i0+cnt)
		if i0 += cnt; i0 < l {
			cnt = min(w, l-i0)
			draw(i0, cnt)
			x.Read(ap, tgt)
			x.ReadRange(a, min(i0, n), min(i0+cnt, n))
		}
		x.Do(buf, buf)
	}
	env.Cache.Free(buf)
	env.Cache.Free(stage)
	return ap
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
