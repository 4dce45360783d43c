// Package emsort provides classical, non-oblivious external-memory
// baselines: the I/O-optimal (M/B−1)-way mergesort of Aggarwal–Vitter and a
// pivot-based external quickselect. Both leak their access patterns — their
// traces depend on the data — which is exactly their role here: the paper's
// algorithms are measured against them to show the price of obliviousness,
// and the leak itself is what TestTraceInvariantAcrossWorkloads requires of
// QuickSelect to sanity-check its method.
package emsort

import (
	"errors"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
)

// MergeSort sorts the array with run formation followed by (M/B−1)-way
// merge passes: the I/O-optimal Θ((N/B)·log_{M/B}(N/B)) non-oblivious sort.
// Padded semantics: unoccupied cells sort last under Element.Less.
// Its Order argument is inert; it goes with the benchmark's call site
// (benchmark/layers.go) in ROADMAP item 1(a)'s benchmark change.
func MergeSort(env *extmem.Env, a extmem.Array, _ obsort.Order) {
	n := a.Len()
	if n == 0 {
		return
	}
	m := env.MBlocks()
	if m < 3 {
		panic("emsort: MergeSort requires M >= 3B")
	}
	runBlocks := m // a full cache of blocks per initial run
	mark := env.D.Mark()
	defer env.D.Release(mark)

	sp := env.Obs.Start("emsort")
	sp.SetAttrInt("blocks", int64(n))
	defer env.Obs.End(sp)

	// Run formation: each cache-sized run is one vectored read, an in-cache
	// sort, and one vectored write.
	spr := env.Obs.Start("run-formation")
	spr.SetPredicted(obs.Cost{IOs: 2 * int64(n), RoundTrips: -1})
	env.Scan(a, a, runBlocks, func(_ int, run []extmem.Element) { obsort.InCache(run) })
	env.Obs.End(spr)

	fan := m - 1
	src, dst := a, env.D.Alloc(n)
	runLen := runBlocks
	pass := 0
	for runLen < n {
		spm := env.Obs.Start("merge-pass")
		spm.SetAttrInt("pass", int64(pass))
		spm.SetAttrInt("run-blocks", int64(runLen))
		mergePass(env, src, dst, runLen, fan)
		env.Obs.End(spm)
		src, dst = dst, src
		runLen *= fan
		pass++
	}
	if src.Base() != a.Base() {
		// Copy-back: a streaming vectored scan instead of block-at-a-time.
		spc := env.Obs.Start("copy-back")
		env.Scan(src, a, env.ScanBatchN(1, n), nil)
		env.Obs.End(spc)
	}
}

// mergePass merges consecutive groups of fan runs of runLen blocks from src
// into dst.
func mergePass(env *extmem.Env, src, dst extmem.Array, runLen, fan int) {
	n := src.Len()
	b := src.B()
	bufs := env.Cache.Buf(fan * b)
	outBuf := env.Cache.Buf(b)
	for group := 0; group < n; group += runLen * fan {
		// Per-run cursors within this group.
		type cursor struct {
			next, end int // block range remaining
			pos, lim  int // element position within bufs[i]
		}
		curs := make([]cursor, 0, fan)
		for r := 0; r < fan; r++ {
			lo := group + r*runLen
			if lo >= n {
				break
			}
			hi := lo + runLen
			if hi > n {
				hi = n
			}
			c := cursor{next: lo, end: hi}
			curs = append(curs, c)
		}
		// Prime buffers: the first block of every run in this group is known
		// upfront, so fetch them all with one vectored gather. (The refills
		// inside the merge loop stay scalar: which run empties next depends
		// on the data, which is exactly the leak these baselines exhibit.)
		prime := make([]int, len(curs))
		for i := range curs {
			prime[i] = curs[i].next
			curs[i].next++
			curs[i].lim = b
		}
		src.ReadMany(prime, bufs[:len(curs)*b])
		out := group
		op := 0
		total := 0
		for i := range curs {
			total += (curs[i].end - (group + i*runLen)) * b
		}
		for written := 0; written < total; written++ {
			best := -1
			for i := range curs {
				if curs[i].pos >= curs[i].lim {
					continue
				}
				if best < 0 || bufs[i*b+curs[i].pos].Less(bufs[best*b+curs[best].pos]) {
					best = i
				}
			}
			outBuf[op] = bufs[best*b+curs[best].pos]
			curs[best].pos++
			if curs[best].pos == curs[best].lim && curs[best].next < curs[best].end {
				src.Read(curs[best].next, bufs[best*b:(best+1)*b])
				curs[best].next++
				curs[best].pos, curs[best].lim = 0, b
			}
			op++
			if op == b {
				dst.Write(out, outBuf)
				out++
				op = 0
			}
		}
	}
	env.Cache.Free(outBuf)
	env.Cache.Free(bufs)
}

// ErrNotFound reports a selection rank outside the number of occupied
// elements.
var ErrNotFound = errors.New("emsort: selection rank out of range")

// denseWriter streams occupied elements into dst as densely packed blocks
// through a SeqWriter, padding the final partial block with empties.
type denseWriter struct {
	w    *extmem.SeqWriter
	b    int
	slot []extmem.Element
	op   int
}

func newDenseWriter(dst extmem.Array, buf []extmem.Element) *denseWriter {
	return &denseWriter{w: extmem.NewSeqWriter(dst, 0, buf), b: dst.B()}
}

func (d *denseWriter) put(e extmem.Element) {
	if d.op == 0 {
		d.slot = d.w.Next()
	}
	d.slot[d.op] = e
	d.op++
	if d.op == d.b {
		d.op = 0
	}
}

// finish pads the trailing partial block and flushes everything buffered.
func (d *denseWriter) finish() {
	if d.op > 0 {
		for i := d.op; i < d.b; i++ {
			d.slot[i] = extmem.Element{}
		}
	}
	d.w.Flush()
}

// QuickSelect returns the k-th smallest occupied element (k is 1-based)
// under (Key, Pos) order, using randomized pivoting. Its trace and I/O
// count depend on the data — it is the non-oblivious baseline.
func QuickSelect(env *extmem.Env, a extmem.Array, k int64) (extmem.Element, error) {
	n := a.Len()
	b := a.B()
	mark := env.D.Mark()
	defer env.D.Release(mark)

	sp := env.Obs.Start("quickselect")
	sp.SetAttrInt("blocks", int64(n))
	defer env.Obs.End(sp)

	// Compact occupied elements into a dense scratch array (non-oblivious:
	// writes only as many blocks as there are items), reading and writing
	// through the vectored streaming paths.
	cur := env.D.Alloc(n)
	wbuf := env.Cache.Buf(env.ScanBatchN(2, n) * b)
	dw := newDenseWriter(cur, wbuf)
	cnt := int64(0)
	env.Scan(a, extmem.Array{}, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				dw.put(e)
				cnt++
			}
		}
	})
	dw.finish()
	env.Cache.Free(wbuf)

	if k < 1 || k > cnt {
		return extmem.Element{}, ErrNotFound
	}
	buf := env.Cache.Buf(b)

	next := env.D.Alloc(n)
	rank := k
	length := cnt // elements in cur
	for {
		blocks := int(extmem.CeilDiv64(length, int64(b)))
		if length <= int64(env.M-env.B()) {
			// The survivors fit in cache: one vectored read of the dense
			// prefix, then select privately.
			env.Cache.Free(buf)
			all := env.Cache.Buf(blocks * b)
			cur.ReadRange(0, blocks, all)
			got := 0
			for _, e := range all {
				if e.Occupied() {
					all[got] = e
					got++
				}
			}
			obsort.InCache(all[:got])
			e := all[rank-1]
			env.Cache.Free(all)
			return e, nil
		}
		// Pick a pivot: first occupied element of a random block.
		var pivot extmem.Element
		for {
			cur.Read(env.Tape.IntN(blocks), buf)
			found := false
			for _, e := range buf {
				if e.Occupied() {
					pivot = e
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		// Partition pass (vectored read scan): count the sides.
		var below, equal int64
		env.Scan(cur.Slice(0, blocks), extmem.Array{}, env.ScanBatchN(1, blocks), func(_ int, chunk []extmem.Element) {
			for _, e := range chunk {
				if !e.Occupied() {
					continue
				}
				switch {
				case e.Less(pivot):
					below++
				case e.Key == pivot.Key && e.Pos == pivot.Pos:
					equal++
				}
			}
		})
		if rank <= below {
			length = keepSide(env, cur, next, blocks, b, func(e extmem.Element) bool { return e.Less(pivot) })
		} else if rank <= below+equal {
			env.Cache.Free(buf)
			return pivot, nil
		} else {
			rank -= below + equal
			length = keepSide(env, cur, next, blocks, b, func(e extmem.Element) bool { return pivot.Less(e) })
		}
		cur, next = next, cur
	}
}

// keepSide streams the elements satisfying pred from src into dst (densely
// packed, via the vectored scan and sequential-writer paths) and returns how
// many were kept.
func keepSide(env *extmem.Env, src, dst extmem.Array, blocks, b int, pred func(extmem.Element) bool) int64 {
	wbuf := env.Cache.Buf(env.ScanBatchN(2, blocks) * b)
	dw := newDenseWriter(dst, wbuf)
	kept := int64(0)
	env.Scan(src.Slice(0, blocks), extmem.Array{}, env.ScanBatchN(1, blocks), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() && pred(e) {
				dw.put(e)
				kept++
			}
		}
	})
	dw.finish()
	env.Cache.Free(wbuf)
	return kept
}
