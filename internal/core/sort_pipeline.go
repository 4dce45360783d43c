package core

import (
	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

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

// sweepFailures is the data-oblivious failure sweeping of §5 over res, the
// concatenation of a level's sorted buckets, each at most maxSub cells long.
// It runs the same trace whether zero, one, or several buckets failed: copy
// the failed cells (marked with FlagFailed) into a scratch array, tightly
// compact them with the butterfly network, record each compacted cell's
// fill count and origin, sort the prefix deterministically, repack the
// sorted elements into cells with the original fill shape, route them back
// with the expansion network, and merge. Returns false if the failure set
// exceeded the capD cells the prefix has room for (irreparable).
func sweepFailures(env *extmem.Env, res extmem.Array, maxSub int) bool {
	n := res.Len()
	if n == 0 {
		return true
	}
	// Room for two failed buckets: what the sweep costs grows with capD and
	// it is paid on every level, failures or none. A level therefore
	// declares failure when three or more of its q+1 sub-sorts fail —
	// probability at most C(q+1,3)·p³ for a per-bucket failure probability
	// p <= (N/B)^-d (Lemma 20's argument with one more factor of p).
	capD := min(2*maxSub+8, n)
	b := res.B()
	mark := env.D.Mark()
	defer env.D.Release(mark)

	// Copy failed cells; everything else becomes empty.
	cpy := env.D.Alloc(n)
	env.Scan(res, cpy, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for off := 0; off < len(chunk); off += b {
			blk := chunk[off : off+b]
			if !route.PredFailed(blk) {
				clear(blk)
			} else {
				for t := range blk {
					blk[t].Flags &^= extmem.FlagFailed
				}
			}
		}
	})

	failedCells := route.CompactBlocksTight(env, cpy, route.PredOccupied, 0)
	ok := failedCells <= capD

	// Record fill counts and origins of the compacted prefix.
	fo := env.D.Alloc(extmem.CeilDiv(capD, b))
	ent := env.Cache.Buf(b)
	for i := range ent {
		ent[i] = extmem.Element{}
	}
	env.Scan(cpy.Slice(0, capD), extmem.Array{}, env.ScanBatchN(1, capD), func(lo int, chunk []extmem.Element) {
		for i := lo; i < lo+len(chunk)/b; i++ {
			blk := chunk[(i-lo)*b : (i-lo+1)*b]
			cnt := 0
			for _, e := range blk {
				if e.Occupied() {
					cnt++
				}
			}
			ent[i%b] = extmem.Element{Val: uint64(cnt), Pos: uint64(blk[0].Aux())}
			if (i+1)%b == 0 || i == capD-1 {
				fo.Write(i/b, ent)
				clear(ent)
			}
		}
	})

	// Deterministic sort of the prefix (Lemma 2).
	obsort.Bitonic(env, cpy.Slice(0, capD), obsort.ByKey)

	// Repack the dense sorted stream into cells with the recorded fill
	// shape, stamping each cell's expansion target. The schedule is
	// lockstep — at step s read stream block s and write output cell s —
	// so the trace never depends on the fill pattern. Feasibility: output
	// cell s needs at most (s+1)·B elements, and the dense stream's first
	// s+1 blocks hold at least that many when they exist. The private
	// queue absorbs the lag, which stays small because almost every failed
	// cell is full (only consolidation flush blocks are partial).
	// Not an env.Scan: a second stream, the cell buffer, fills in lock step.
	d2 := env.D.Alloc(capD)
	queueCap := env.M / 4
	queue := env.Cache.Buf(queueCap)
	qh, qt := 0, 0 // ring indices: head (consume), tail (produce)
	qlen := 0
	kd := env.ScanBatchN(2, capD)
	sbuf := env.Cache.Buf(kd * b)
	dbuf := env.Cache.Buf(kd * b)
	for lo := 0; lo < capD; lo += kd {
		hi := min(lo+kd, capD)
		cpy.ReadRange(lo, hi, sbuf[:(hi-lo)*b])
		for s := lo; s < hi; s++ {
			for _, e := range sbuf[(s-lo)*b : (s-lo+1)*b] {
				if !e.Occupied() {
					continue
				}
				if qlen == queueCap {
					ok = false // queue overflow: drop, keep the trace fixed
					continue
				}
				queue[qt] = e
				qt = (qt + 1) % queueCap
				qlen++
			}
			if s%b == 0 {
				fo.Read(s/b, ent)
			}
			fill := int(ent[s%b].Val)
			origin := int(ent[s%b].Pos)
			blk := dbuf[(s-lo)*b : (s-lo+1)*b]
			for t := 0; t < b; t++ {
				blk[t] = extmem.Element{}
				if t < fill && qlen > 0 {
					blk[t] = queue[qh]
					qh = (qh + 1) % queueCap
					qlen--
				}
				blk[t].SetAux(origin)
			}
		}
		d2.WriteRange(lo, hi, dbuf[:(hi-lo)*b])
	}
	env.Cache.Free(dbuf)
	env.Cache.Free(sbuf)
	env.Cache.Free(queue)
	env.Cache.Free(ent)

	// Install the repacked prefix and route everything home.
	copyArray(env, d2, cpy.Slice(0, capD))
	route.ExpandBlocks(env, cpy, route.PredOccupied, 0)

	// Merge: failed cells take the repaired copy. Not an env.Scan: two
	// sources, read chunk for chunk.
	km := env.ScanBatchN(2, n)
	rb := env.Cache.Buf(km * b)
	cb := env.Cache.Buf(km * b)
	for lo := 0; lo < n; lo += km {
		hi := min(lo+km, n)
		res.ReadRange(lo, hi, rb[:(hi-lo)*b])
		cpy.ReadRange(lo, hi, cb[:(hi-lo)*b])
		for i := lo; i < hi; i++ {
			blk := rb[(i-lo)*b : (i-lo+1)*b]
			if route.PredFailed(blk) {
				copy(blk, cb[(i-lo)*b:(i-lo+1)*b])
			}
			for t := range blk {
				blk[t].Flags &^= extmem.FlagFailed
			}
		}
		res.WriteRange(lo, hi, rb[:(hi-lo)*b])
	}
	env.Cache.Free(cb)
	env.Cache.Free(rb)
	return ok
}
