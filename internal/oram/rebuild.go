package oram

import (
	"fmt"
	"math/bits"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/par"
)

// rebuildOnSchedule flushes the full top buffer down the hierarchy using
// the classic binary-counter schedule: after the j-th flush, the target
// level is l0 + trailingZeros(j) + 1 (capped at the largest level), and all
// levels below it are merged in. The schedule — and therefore the entire
// rebuild trace — depends only on the access count.
func (o *ORAM) rebuildOnSchedule() error {
	j := o.t / int64(o.bufCap)
	k := bits.TrailingZeros64(uint64(j)) + 1
	target := o.l0 + k
	if target > o.lmax {
		target = o.lmax
	}
	var sources []extmem.Array
	for l := o.l0 + 1; l < target; l++ {
		lv := o.lvl(l)
		if lv.live {
			sources = append(sources, lv.table)
		}
	}
	tl := o.lvl(target)
	if target == o.lmax && tl.live {
		sources = append(sources, tl.table)
	}
	err := o.rebuildInto(target, sources, true)
	for l := o.l0 + 1; l < target; l++ {
		o.lvl(l).live = false
	}
	o.bufLen = 0
	return err
}

// initialBuild loads the n zeroed logical blocks into the largest level.
func (o *ORAM) initialBuild() error {
	mark := o.env.D.Mark()
	defer o.env.D.Release(mark)
	src := o.env.D.Alloc(o.n)
	o.env.Scan(extmem.Array{}, src, o.env.ScanBatchN(1, o.n), func(lo int, chunk []extmem.Element) {
		for t := range chunk {
			i := lo + t/o.b
			chunk[t] = extmem.Element{Flags: extmem.FlagOccupied}
			chunk[t].SetColor(i)
			chunk[t].SetCellDest(i & 0x7fffffff)
		}
	})
	o.ts = uint64(o.n)
	o.t = 0
	return o.rebuildInto(o.lmax, []extmem.Array{src}, false)
}

// In-flight entry representation during a rebuild. Rebuild sorts may be
// performed by any padded oblivious Sorter — including the randomized sort,
// which clobbers the color/dest flag bits it uses as routing scratch — so
// between sorts an entry's metadata lives only in fields every sorter
// preserves: the Key and Pos of its elements (plus FlagOccupied).
//
//	sort 1 (dedupe):   Key = logicalKey (fillerKey sentinel for fillers)
//	                   Pos = (maxTS − ts)<<8 | elementIndex  (freshest first)
//	sorts 2–3 (bucket): Key = bucket<<33 | fillerBit<<32 | logicalKey
//	                   Pos = ts<<8 | elementIndex
//
// Discarded entries are simply unoccupied: padded sorts treat their content
// as don't-care, which is exactly right.
const (
	fillerKey  = uint64(1) << 40
	fillerBit  = uint64(1) << 32
	keyLowMask = (uint64(1) << 32) - 1
	maxTS      = uint64(0x7fffffff)
)

// rebuildInto rebuilds the target level's bucket table from the given
// source arrays (tables of lower levels and/or scratch) plus, when withBuf
// is set, the private top buffer. The pipeline is three oblivious sorts
// with interleaved scans:
//
//  1. sort by logical key with freshest-first tiebreak, then a scan that
//     drops stale duplicates and assigns PRF buckets under the new epoch;
//  2. sort by (bucket, real-before-filler), then a scan that keeps exactly
//     beta entries per bucket (a real entry beyond beta is an overflow);
//  3. sort survivors to the front and copy the exactly buckets*beta-block
//     prefix into the level table.
//
// Every pass touches every block, so the trace depends only on the source
// sizes, which the schedule fixes.
func (o *ORAM) rebuildInto(target int, sources []extmem.Array, withBuf bool) error {
	tl := o.lvl(target)
	tl.epoch++
	buckets := tl.bucket
	b := o.b

	srcBlocks := 0
	for _, s := range sources {
		srcBlocks += s.Len()
	}
	bufBlocks := 0
	if withBuf {
		bufBlocks = o.bufCap
	}
	fill := buckets * o.beta
	total := srcBlocks + bufBlocks + fill

	mark := o.env.D.Mark()
	defer o.env.D.Release(mark)
	work := o.env.D.Alloc(total)

	sp := o.env.Obs.Start("oram-rebuild")
	sp.SetAttrInt("target-level", int64(target))
	sp.SetAttrInt("blocks", int64(total))
	sp.SetAttr("sorter", o.sorterName)
	if o.sorterName != "randomized" {
		// The rebuild trace is a deterministic function of the geometry and
		// the array layout (every scan pass touches every block; the sorter's
		// trace depends only on size) — except under the randomized sorter,
		// which consumes tape. The key pins every address-determining input
		// so equal keys really do promise equal traces.
		srcSig := ""
		for _, s := range sources {
			srcSig += fmt.Sprintf("+%d:%d", s.Base(), s.Len())
		}
		sp.Audit(fmt.Sprintf("oram/rebuild/target=%d/total=%d/beta=%d/B=%d/M=%d/work=%d/table=%d/src=%s",
			target, total, o.beta, b, o.env.M, work.Base(), tl.table.Base(), srcSig))
	}
	defer o.env.Obs.End(sp)

	// Copy sources and the buffer, converting each live entry from table
	// form (metadata in color/dest bits) to in-flight form (metadata in
	// Key/Pos); then append the fillers. Sources are read a vectored chunk
	// at a time.
	toFlight := func(blk []extmem.Element) {
		if !blk[0].Occupied() {
			return
		}
		key := uint64(blk[0].Color())
		ts := uint64(blk[0].CellDest())
		for t := range blk {
			blk[t].Key = key
			blk[t].Pos = (maxTS-ts)<<8 | uint64(t)
			blk[t].Flags = extmem.FlagOccupied
		}
	}
	spf := o.env.Obs.Start("flight-copy")
	spf.SetPredicted(int64(srcBlocks)+int64(total), -1)
	kc := o.env.ScanBatchN(2, total)
	wbuf := o.env.Cache.Buf(kc * b)
	wr := extmem.NewSeqWriter(work, 0, wbuf)
	// Convert a chunk's blocks to in-flight form in parallel (toFlight is
	// pure per-block compute), then hand them to the writer serially.
	var rbuf []extmem.Element
	convert := func(plo, phi int) { // built once: a chunk costs no closure
		for i := plo; i < phi; i++ {
			toFlight(rbuf[i*b : (i+1)*b])
		}
	}
	for _, s := range sources {
		o.env.Scan(s, extmem.Array{}, kc, func(_ int, chunk []extmem.Element) {
			rbuf = chunk
			par.For(o.env.ParWorkers(len(chunk)), len(chunk)/b, convert)
			for off := 0; off < len(chunk); off += b {
				copy(wr.Next(), chunk[off:off+b])
			}
		})
	}
	if withBuf {
		for i := 0; i < o.bufCap; i++ {
			blk := wr.Next()
			copy(blk, o.buf[i*b:(i+1)*b])
			toFlight(blk)
		}
	}
	for i := 0; i < fill; i++ {
		blk := wr.Next()
		for t := range blk {
			blk[t] = extmem.Element{
				Key:   fillerKey,
				Pos:   uint64(i)<<8 | uint64(t),
				Flags: extmem.FlagOccupied,
			}
		}
	}
	wr.Flush()
	o.env.Cache.Free(wbuf)
	o.env.Obs.End(spf)
	o.sorter(o.env, work, obsort.ByKey)

	// Pass 1: drop stale duplicates (the freshest copy of each key sorts
	// first), assign buckets under the new epoch, and give fillers their
	// deterministic buckets. Each chunk is read with one vectored call,
	// rewritten in cache, and written back with one vectored call; every
	// block is written whether kept or discarded, keeping the trace fixed.
	sp1 := o.env.Obs.Start("assign-buckets")
	sp1.SetPredicted(2*int64(total), -1)
	prevKey := int64(-1)
	fillerIdx := 0
	overflow := false
	o.env.Scan(work, work, o.env.ScanBatchN(1, total), func(_ int, chunk []extmem.Element) {
		for off := 0; off < len(chunk); off += b {
			blk := chunk[off : off+b]
			if !blk[0].Occupied() {
				continue // discarded; still written back below
			}
			if blk[0].Key == fillerKey {
				bkt := uint64(fillerIdx / o.beta)
				ts := uint64(fillerIdx)
				fillerIdx++
				for t := range blk {
					blk[t].Key = bkt<<33 | fillerBit
					blk[t].Pos = ts<<8 | uint64(t)
				}
			} else {
				key := blk[0].Key
				ts := maxTS - blk[0].Pos>>8
				if int64(key) == prevKey {
					for t := range blk {
						blk[t].Flags &^= extmem.FlagOccupied
					}
				} else {
					prevKey = int64(key)
					bkt := uint64(o.bucketOf(tl, target, key))
					for t := range blk {
						blk[t].Key = bkt<<33 | key
						blk[t].Pos = ts<<8 | uint64(t)
					}
				}
			}
		}
	})
	o.env.Obs.End(sp1)
	o.sorter(o.env, work, obsort.ByKey)

	// Pass 2: keep exactly beta entries per bucket (reals sort before
	// fillers within a bucket, so only real overflow is a failure). Same
	// vectored read-rewrite-write chunking as pass 1.
	sp2 := o.env.Obs.Start("cap-buckets")
	sp2.SetPredicted(2*int64(total), -1)
	curBucket := int64(-1)
	kept := 0
	o.env.Scan(work, work, o.env.ScanBatchN(1, total), func(_ int, chunk []extmem.Element) {
		for off := 0; off < len(chunk); off += b {
			blk := chunk[off : off+b]
			if blk[0].Occupied() {
				bkt := int64(blk[0].Key >> 33)
				real := blk[0].Key&fillerBit == 0
				if bkt != curBucket {
					curBucket = bkt
					kept = 0
				}
				kept++
				if kept > o.beta {
					if real {
						overflow = true
					}
					for t := range blk {
						blk[t].Flags &^= extmem.FlagOccupied
					}
				}
			}
		}
	})
	o.env.Obs.End(sp2)
	o.sorter(o.env, work, obsort.ByKey)

	// Pass 3: the survivors are exactly buckets*beta blocks in bucket
	// order; install them as the new table, converting back to table form
	// and demoting fillers to empty slots — chunked run reads from the work
	// prefix, chunked run writes into the table.
	sp3 := o.env.Obs.Start("install")
	sp3.SetPredicted(2*int64(fill), -1)
	var ibuf []extmem.Element
	install := func(plo, phi int) { // built once: a chunk costs no closure
		for i := plo; i < phi; i++ {
			blk := ibuf[i*b : (i+1)*b]
			if blk[0].Key&fillerBit != 0 {
				for t := range blk {
					blk[t] = extmem.Element{}
				}
			} else {
				key := int(blk[0].Key & keyLowMask)
				ts := int(blk[0].Pos >> 8)
				for t := range blk {
					blk[t].Key = 0
					blk[t].Pos = 0
					blk[t].Flags = extmem.FlagOccupied
					blk[t].SetColor(key)
					blk[t].SetCellDest(ts & 0x7fffffff)
				}
			}
		}
	}
	o.env.Scan(work, tl.table, o.env.ScanBatchN(1, fill), func(_ int, chunk []extmem.Element) {
		// Serial invariant check first (deterministic panic point), then the
		// per-block table-form conversion fans out — each block is rewritten
		// independently from its own header.
		for off := 0; off < len(chunk); off += b {
			if !chunk[off].Occupied() {
				panic("oram: rebuild prefix not fully occupied")
			}
		}
		ibuf = chunk
		par.For(o.env.ParWorkers(len(chunk)), len(chunk)/b, install)
	})
	o.env.Obs.End(sp3)

	tl.live = true
	o.rebuild.Count++
	o.rebuild.EntryBlocks += int64(total)
	if overflow {
		o.failed = true
		return ErrOverflow
	}
	return nil
}
