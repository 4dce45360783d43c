package oram

import (
	"fmt"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// source is one array a rebuild merges, with the public bound on the live
// entries it can hold.
type source struct {
	arr   extmem.Array
	bound int
}

// scheduled returns what the j-th flush of the top buffer rebuilds: the
// target level of the binary-counter schedule (plan.target), and the live
// levels below it — and the largest level itself, when it is the target —
// that it merges. The schedule, and therefore the entire rebuild trace,
// depends only on the access count.
func (o *ORAM) scheduled(j int64) (target int, levels []int) {
	target = o.target(j)
	for l := o.l0 + 1; l <= target; l++ {
		if o.lvl(l).live && (l < target || target == o.lmax) {
			levels = append(levels, l)
		}
	}
	return target, levels
}

// geometry is the public shape of the flush into target merging levels,
// with the cache free now.
func (o *ORAM) geometry(target int, levels []int) RebuildGeometry {
	return o.plan.geometry(target, levels, o.env.M, o.env.M-o.env.Cache.Used(), o.sorter)
}

// rebuildOnSchedule flushes the full top buffer down the hierarchy.
func (o *ORAM) rebuildOnSchedule() error {
	target, levels := o.scheduled(o.t / int64(o.bufCap))
	var sources []source
	for _, l := range levels {
		sources = append(sources, source{o.lvl(l).table, o.bound(l)})
	}
	err := o.rebuildInto(target, sources, o.geometry(target, levels))
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
	return o.rebuildInto(o.lmax, []source{{src, o.n}}, RebuildGeometry{
		Sources: []int{o.n}, Bounds: []int{o.n}, CapE: o.n, Kept: o.n, Table: o.table(o.lmax),
		B: o.b, M: o.env.M, Free: o.env.M - o.env.Cache.Used(), Sorter: o.sorter,
	})
}

// In-flight entry representation during a rebuild. The routing network
// keeps its labels in the color/dest flag bits, and the rebuild sort may
// be performed by any engine core.SortWith runs — including the randomized
// sort, which uses the same bits as scratch — so from the moment an entry
// leaves its table until the moment it enters the new one its metadata
// lives only in fields every one of them preserves: the Key and Pos of its
// elements (plus FlagOccupied).
//
//	Key = bucket<<32 | logicalKey            (the target's bucket, new epoch)
//	Pos = (maxTS − ts)<<8 | elementIndex     (the timestamp, carried through)
//
// One sort by (Key, Pos) therefore orders the entries by bucket, then key,
// and sinks the empties. A key has at most one live copy in the whole
// hierarchy — an access erases the copy it finds, wherever it finds it — so
// no key meets another copy of itself; the install checks that. Discarded
// entries are simply unoccupied: the routing and the padded sort treat
// their content as don't-care, which is exactly right.
const (
	keyLowMask = (uint64(1) << 32) - 1
	maxTS      = uint64(0x7fffffff)
)

// toFlight converts an entry from table form (metadata in color/dest bits)
// to in-flight form, bucketed for the target level under its new epoch.
func (o *ORAM) toFlight(blk []extmem.Element, target int) {
	if !blk[0].Occupied() {
		clear(blk)
		return
	}
	key := uint64(blk[0].Color())
	ts := uint64(blk[0].CellDest())
	bkt := uint64(o.bucketOf(o.lvl(target), target, key))
	for t := range blk {
		blk[t].Key = bkt<<32 | key
		blk[t].Pos = (maxTS-ts)<<8 | uint64(t)
		blk[t].Flags = extmem.FlagOccupied
	}
}

// toTable converts an entry back from in-flight form to table form.
func toTable(blk []extmem.Element) {
	key := int(blk[0].Key & keyLowMask)
	ts := int(maxTS - blk[0].Pos>>8)
	for t := range blk {
		blk[t].Key = 0
		blk[t].Pos = 0
		blk[t].Flags = extmem.FlagOccupied
		blk[t].SetColor(key)
		blk[t].SetCellDest(ts)
	}
}

// overKept is the broken invariant of more live entries than the target
// keeps: some key has two live copies among them.
func overKept(count, target, kept int) string {
	return fmt.Sprintf("oram: %d live entries in a rebuild of level %d, over the %d it keeps", count, target, kept)
}

// twoCopies is the broken invariant of a key live twice in a rebuild.
func twoCopies(target int) string {
	return fmt.Sprintf("oram: a key has two live copies in a rebuild of level %d", target)
}

// slots hands the entries of a rebuild, arriving in (bucket, key) order,
// their table slots: bucket·beta + rank within the bucket, stamped into the
// Aux bits as the routing target. The targets are strictly increasing and
// none is left of its entry's position among the entries — what an
// expansion asks of them. An entry of rank beta or more is the overflow the
// structure declares; it and every entry after it are emptied, so that the
// targets stay valid and the trace is the one of a rebuild that succeeds.
// Two copies of a key would arrive side by side; twice records that some
// did.
type slots struct {
	beta, bucket, rank int
	prev               int64 // the in-flight Key of the last live entry
	overflow, twice    bool
}

func newSlots(beta int) slots { return slots{beta: beta, bucket: -1, prev: -1} }

func (s *slots) stamp(blk []extmem.Element) {
	if !blk[0].Occupied() {
		clear(blk)
		return
	}
	key := int64(blk[0].Key)
	s.twice = s.twice || key == s.prev
	s.prev = key
	if bkt := int(key >> 32); bkt != s.bucket {
		s.bucket, s.rank = bkt, 0
	}
	if s.rank >= s.beta {
		s.overflow = true
	}
	if s.overflow {
		clear(blk)
		return
	}
	for t := range blk {
		blk[t].Flags = extmem.FlagOccupied
		blk[t].SetAux(s.bucket*s.beta + s.rank)
	}
	s.rank++
}

// RebuildGeometry is everything the I/O of one rebuild depends on, all of
// it public: the lengths of the tables merged and the bounds on their live
// entries, how many entries come from the private buffer, the bound on the
// live entries among them all and on those the target keeps, the size of
// the table built, and the cache.
type RebuildGeometry struct {
	Sources []int  // blocks of each source table, in merge order
	Bounds  []int  // public bound on the live entries of each source
	Buffer  int    // entries taken from the private top buffer
	CapE    int    // sum of the sources' bounds and the buffer: what is sorted
	Kept    int    // public bound on the live entries: the sorted prefix installed
	Table   int    // blocks of the table built: buckets·beta
	B, M    int    // block and cache size, in elements
	Free    int    // elements of the cache free when the rebuild starts
	Sorter  string // engine name, "auto" where Options.Sorter is ""
}

// in is the number of blocks the rebuild merges.
func (g RebuildGeometry) in() int {
	in := g.Buffer
	for _, s := range g.Sources {
		in += s
	}
	return in
}

// fits reports whether n entries fit the free cache beside the chunk of a
// scan, in which case they are handled privately rather than routed.
func (g RebuildGeometry) fits(n int) bool { return (n+2)*g.B <= g.Free }

// collects reports whether source i's live entries are collected privately.
func (g RebuildGeometry) collects(i int) bool { return g.fits(g.Bounds[i]) }

// collectCost is the cost of collecting source i: a read-only scan of its
// table beside the bound-block buffer, and one write.
func (g RebuildGeometry) collectCost(i int) obs.Cost {
	return obs.Cost{
		IOs:        int64(g.Sources[i] + g.Bounds[i]),
		RoundTrips: extmem.ScanRoundTrips(g.Sources[i], g.B, g.Free-g.Bounds[i]*g.B, 1) + 1,
	}
}

// routed is the number of source blocks the network compacts.
func (g RebuildGeometry) routed() (n int) {
	for i, s := range g.Sources {
		if !g.collects(i) {
			n += s
		}
	}
	return n
}

// RebuildCost predicts the exact block I/Os and vectored round trips of one
// rebuild, batches bounded by the cache alone, or -1 for both under a sorter
// with no exact predictor: the live prefix — each collected source's read
// and its bound's write, the buffer's write, and the routed sources'
// compaction (their one read, and Theorem 6's passes less the first read) —
// one sort of the live entries, and then, for the kept prefix of the sorted
// entries, either one read of it and one write of the table, or the scan
// that stamps the slots and Theorem 6's expansion into the table.
func RebuildCost(g RebuildGeometry) obs.Cost {
	sort, ok := obsort.Cost(core.Engine(g.Sorter, g.CapE, g.B, g.M, g.Free, "mem"), g.CapE, g.B, g.Free)
	if !ok {
		return obs.Cost{IOs: -1, RoundTrips: -1}
	}
	scan := func(n, held int) int64 { return extmem.ScanRoundTrips(n, g.B, g.Free-held, 1) }
	// The compaction's feed reads each routed source a chunk overlaps.
	feedRT := func(lo, hi int) (rt int64) {
		base := 0
		for i, s := range g.Sources {
			if g.collects(i) {
				continue
			}
			if max(lo, base) < min(hi, base+s) {
				rt++
			}
			base += s
		}
		return rt
	}
	c := obs.Cost{IOs: int64(g.Buffer), RoundTrips: scan(g.Buffer, 0)}.Add(sort)
	c = c.Add(route.CompactIntoCost(g.routed(), g.routed(), g.B, g.Free, feedRT))
	for i := range g.Sources {
		if g.collects(i) {
			c = c.Add(g.collectCost(i))
		}
	}
	k := g.Kept
	if g.fits(k) {
		return c.Add(obs.Cost{IOs: int64(k + g.Table), RoundTrips: 1 + scan(g.Table, k*g.B)})
	}
	c = c.Add(obs.Cost{IOs: 2 * int64(k), RoundTrips: 2 * scan(k, 0)})
	return c.Add(route.ExpandIntoCost(k, g.Table, g.B, g.Free))
}

// rebuildInto rebuilds the target level's bucket table from the given
// source arrays (tables of lower levels and/or scratch) plus, when its
// geometry g takes a buffer's entries, the private top buffer. Only the
// live entries are ever sorted; one private scan or the paper's routing
// network (Theorem 6) carries them out of the sparse source tables, and the
// network into the sparse new one:
//
//  1. the live prefix, in in-flight form, laid out as [the bound of each
//     collected source | the buffer | the routed sources]: a source whose
//     bound fits the free cache is read in one scan and its live entries
//     written from private memory, padded to the bound; the buffer is
//     written out; the other sources go through the network's tight
//     compaction, converted as its first pass reads them. Conversion puts
//     each entry in the PRF bucket of the target's new epoch. The prefix is
//     sliced to the sum of the sources' bounds and the buffer;
//  2. one sort by (bucket, key), which sinks the empties: the live entries,
//     one per key and no more than the target keeps, fill a prefix of the
//     public bound on those;
//  3. the install of that kept prefix. When it fits the free cache it is
//     read once and handed its slots privately (an entry beyond beta in its
//     bucket is an overflow), and the table is written from it in one scan;
//     otherwise it is stamped with its slots in a scan and expanded by the
//     network in reverse into the table, back in table form as its last
//     pass writes them.
//
// A key live twice is a broken invariant, and so is a count of live entries
// over the kept bound: both are checked privately, and panic.
//
// Every pass touches every block of what it scans and every length is a
// bound, not a count, so the trace depends only on the source sizes, which
// the schedule fixes.
func (o *ORAM) rebuildInto(target int, sources []source, g RebuildGeometry) error {
	tl := o.lvl(target)
	tl.epoch++
	b := o.b
	in := g.in()
	if g.Kept > g.Table {
		panic(fmt.Sprintf("oram: rebuild of level %d keeps up to %d entries, over its table's %d slots", target, g.Kept, g.Table))
	}

	// The collected bounds and the buffer lie ahead of the routed region,
	// whose live entries are bounded by routedBound.
	var routed []source
	prefix, routedBound := g.Buffer, 0
	for i, s := range sources {
		if g.collects(i) {
			prefix += s.bound
		} else {
			routed = append(routed, s)
			routedBound += s.bound
		}
	}

	mark := o.env.D.Mark()
	defer o.env.D.Release(mark)
	work := o.env.D.Alloc(prefix + g.routed())

	sp := o.env.Obs.Start("oram-rebuild")
	defer o.env.Obs.End(sp)
	if sp != nil { // the prediction replays the rebuild's batching: not for nobody
		sp.SetAttrInt("target-level", int64(target))
		sp.SetAttrInt("blocks", int64(in))
		sp.SetAttrInt("live-bound", int64(g.CapE))
		sp.SetAttr("sorter", o.sorter)
		sp.SetPredicted(RebuildCost(g))
	}
	if sp != nil && o.sorter != obsort.EngineRandomized {
		// The rebuild trace is a deterministic function of the geometry and
		// the array layout (every scan pass touches every block; the routing
		// and the sorter's trace depend only on sizes and the free cache) —
		// except under the randomized sorter, which consumes tape. The key
		// pins every address-determining input — each source's bound and
		// the arm it takes among them, and the bound the target keeps, which
		// picks the install's arm and the prefix it reads — so equal keys
		// really do promise equal traces.
		srcSig := ""
		for i, s := range sources {
			arm := "r"
			if g.collects(i) {
				arm = "c"
			}
			srcSig += fmt.Sprintf("+%d:%d:%d:%s", s.arr.Base(), s.arr.Len(), s.bound, arm)
		}
		sp.Audit(fmt.Sprintf("oram/rebuild/target=%d/in=%d/capE=%d/kept=%d/fill=%d/beta=%d/B=%d/M=%d/free=%d/work=%d/table=%d/src=%s",
			target, in, g.CapE, g.Kept, g.Table, o.beta, b, g.M, g.Free, work.Base(), tl.table.Base(), srcSig))
	}

	// Step 1. The collected sources and the buffer first; the network last,
	// since it writes the whole of its region. count is the live entries.
	at, count := 0, 0
	for i, s := range sources {
		if g.collects(i) {
			spc := o.env.Obs.Start("collect")
			spc.SetPredicted(g.collectCost(i))
			count += o.collect(s, work.Slice(at, at+s.bound), target)
			o.env.Obs.End(spc)
			at += s.bound
		}
	}
	o.env.Scan(extmem.Array{}, work.Slice(at, prefix), o.env.ScanBatchN(1, g.Buffer), func(lo int, chunk []extmem.Element) {
		copy(chunk, o.buf[lo*b:])
		for off := 0; off < len(chunk); off += b {
			if chunk[off].Occupied() {
				count++
			}
			o.toFlight(chunk[off:off+b], target)
		}
	})
	// The network's first pass asks for the cells of the routed sources a
	// chunk at a time.
	feed := func(lo, hi int, dst []extmem.Element) {
		base := 0
		for _, s := range routed {
			if plo, phi := max(lo, base), min(hi, base+s.arr.Len()); plo < phi {
				s.arr.ReadRange(plo-base, phi-base, dst[(plo-lo)*b:(phi-lo)*b])
			}
			base += s.arr.Len()
		}
		for off := 0; off < len(dst); off += b {
			o.toFlight(dst[off:off+b], target)
		}
	}
	routedCount := route.CompactInto(o.env, work.Slice(prefix, work.Len()), g.routed(), feed, route.PredOccupied)
	if routedCount > routedBound {
		panic(fmt.Sprintf("oram: %d live entries in a rebuild of level %d, over the bound %d", routedCount, target, routedBound))
	}
	if count += routedCount; count > g.Kept {
		panic(overKept(count, target, g.Kept))
	}

	// Step 2. The engine is resolved here, with the cache free at the sort;
	// only a randomized sort can fail, and a rebuild cannot recover from
	// that: it panics.
	engine := core.Engine(o.sorter, g.CapE, o.b, o.env.M, o.env.M-o.env.Cache.Used(), "mem")
	if err := core.SortWith(o.env, work.Slice(0, g.CapE), engine); err != nil {
		panic(err)
	}
	live := work.Slice(0, g.Kept)

	// Step 3.
	place := newSlots(o.beta)
	if g.fits(g.Kept) {
		sp2 := o.env.Obs.Start("install")
		sp2.SetPredicted(obs.Cost{IOs: int64(g.Kept + g.Table), RoundTrips: -1})
		o.install(tl.table, live, &place, target)
		o.env.Obs.End(sp2)
	} else {
		sp2 := o.env.Obs.Start("assign-slots")
		sp2.SetPredicted(obs.Cost{IOs: 2 * int64(g.Kept), RoundTrips: -1})
		o.env.Scan(live, live, o.env.ScanBatchN(1, g.Kept), func(_ int, chunk []extmem.Element) {
			for off := 0; off < len(chunk); off += b {
				place.stamp(chunk[off : off+b])
			}
		})
		o.env.Obs.End(sp2)
		if place.twice {
			panic(twoCopies(target))
		}
		route.ExpandInto(o.env, live, tl.table, route.PredOccupied, toTable)
	}

	tl.live = true
	o.rebuild.Count++
	o.rebuild.EntryBlocks += int64(in)
	if place.overflow {
		o.failed = true
		return ErrOverflow
	}
	return nil
}

// install writes table from private memory: the sorted entries of src,
// read in one call, are handed their slots, and the table goes out in one
// write-only scan. A key live twice is a broken invariant.
func (o *ORAM) install(table, src extmem.Array, place *slots, target int) {
	b, n := o.b, src.Len()
	ents := o.env.Cache.Buf(n * b)
	src.ReadRange(0, n, ents)
	for off := 0; off < len(ents); off += b {
		place.stamp(ents[off : off+b])
	}
	if place.twice {
		o.env.Cache.Free(ents)
		panic(twoCopies(target))
	}
	next := 0 // the first entry not yet in the table
	o.env.Scan(extmem.Array{}, table, o.env.ScanBatchN(1, table.Len()), func(lo int, chunk []extmem.Element) {
		for ; next < n; next++ {
			blk := ents[next*b : (next+1)*b]
			if !blk[0].Occupied() {
				continue
			}
			off := (blk[0].Aux() - lo) * b
			if off >= len(chunk) {
				break
			}
			toTable(blk)
			copy(chunk[off:off+b], blk)
		}
	})
	o.env.Cache.Free(ents)
}

// collect copies the live entries of a source whose bound fits the free
// cache into dst, its bound's worth of blocks, in flight form and padded with
// empties: one read-only scan of the table beside a private buffer of that
// many blocks, and one write. It returns how many it copied; a count above
// the bound is a broken invariant.
func (o *ORAM) collect(s source, dst extmem.Array, target int) int {
	b := o.b
	ents := o.env.Cache.Buf(s.bound * b)
	count := 0
	o.env.Scan(s.arr, extmem.Array{}, o.env.ScanBatchN(1, s.arr.Len()), func(_ int, chunk []extmem.Element) {
		for off := 0; off < len(chunk); off += b {
			if blk := chunk[off : off+b]; blk[0].Occupied() {
				if count < s.bound {
					copy(ents[count*b:], blk)
					o.toFlight(ents[count*b:(count+1)*b], target)
				}
				count++
			}
		}
	})
	if count > s.bound {
		o.env.Cache.Free(ents)
		panic(fmt.Sprintf("oram: %d live entries in a level-%d rebuild's source, over its bound %d", count, target, s.bound))
	}
	clear(ents[count*b:])
	dst.WriteRange(0, s.bound, ents)
	o.env.Cache.Free(ents)
	return count
}
