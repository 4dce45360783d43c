package oram

import "oblivext/internal/extmem"

// What the external test package (oram_test, which may import internal/core
// for the randomized sorter without an import cycle) sees of the hierarchy.
// Everything here reads fields the rebuild keeps whatever its pipeline.

// Entry is one live table entry as a test sees it.
type Entry struct {
	Level  int // hierarchy level l, l0 < l <= lmax
	Slot   int // block index inside the level's table
	Bucket int // the PRF bucket the level's current epoch assigns Key
	Key    int
	TS     uint64
	Words  []uint64
}

// Geometry is the public shape of the hierarchy.
type Geometry struct {
	L0, LMax, BufCap, Beta, B int
}

func (o *ORAM) Geometry() Geometry {
	return Geometry{L0: o.l0, LMax: o.lmax, BufCap: o.bufCap, Beta: o.beta, B: o.b}
}

// Accesses returns the number of accesses made since creation.
func (o *ORAM) Accesses() int64 { return o.t }

// Stamp returns the freshness timestamp the latest access stored.
func (o *ORAM) Stamp() uint64 { return o.ts & 0x7fffffff }

// LevelLive reports whether level l is probed by the next access.
func (o *ORAM) LevelLive(l int) bool { return o.lvl(l).live }

// Buffered returns the number of entries in the private top buffer.
func (o *ORAM) Buffered() int { return o.bufLen }

// DumpLevel reads level l's whole table and returns its occupied entries in
// slot order. The read goes through the Disk (it moves the I/O counters and
// any enabled trace) into memory the cache accountant never sees.
func (o *ORAM) DumpLevel(l int) []Entry {
	lv := o.lvl(l)
	n, b := lv.table.Len(), o.b
	buf := make([]extmem.Element, n*b)
	lv.table.ReadRange(0, n, buf)
	var out []Entry
	for s := 0; s < n; s++ {
		blk := buf[s*b : (s+1)*b]
		if !blk[0].Occupied() {
			continue
		}
		key := blk[0].Color()
		out = append(out, Entry{
			Level:  l,
			Slot:   s,
			Bucket: o.bucketOf(lv, l, uint64(key)),
			Key:    key,
			TS:     uint64(blk[0].CellDest()),
			Words:  extractPayload(blk),
		})
	}
	return out
}

// NextRebuild is the geometry of the rebuild the access that fills the top
// buffer will run, as rebuildInto will see it: a function of the access
// count and of which levels are live, both fixed by the schedule.
func (o *ORAM) NextRebuild() (target int, g RebuildGeometry) {
	target, sources := o.scheduled(o.t/int64(o.bufCap) + 1)
	return target, o.geometry(target, sources, true)
}

// LevelBound is the public bound on the live entries of level l.
func (o *ORAM) LevelBound(l int) int { return o.levelBound(l) }
