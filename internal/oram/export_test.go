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
	target, levels := o.scheduled(o.t/int64(o.bufCap) + 1)
	return target, o.geometry(target, levels)
}

// LevelBound is the public bound on the live entries of level l.
func (o *ORAM) LevelBound(l int) int { return o.bound(l) }

// DumpFlat reads the scan arm's n blocks and returns each one's words, in
// index order, through the Disk like DumpLevel.
func (o *ORAM) DumpFlat() [][]uint64 {
	buf := make([]extmem.Element, o.n*o.b)
	o.flat.ReadRange(0, o.n, buf)
	out := make([][]uint64, o.n)
	for i := range out {
		out[i] = extractPayload(buf[i*o.b : (i+1)*o.b])
	}
	return out
}

// NewHierarchy makes the hierarchy whatever Arm prices cheapest, so that a
// test can measure what AccessCost prices where the scan is the arm. It
// takes the sorters New does, and "" as "auto".
func NewHierarchy(env *extmem.Env, n int, opts Options) (*ORAM, error) {
	sorter, err := rebuildSorter(opts.Sorter)
	if err != nil {
		return nil, err
	}
	o := &ORAM{env: env, plan: plan{n: n, b: env.B()}, sorter: sorter}
	return o.build(opts.BucketSize)
}
