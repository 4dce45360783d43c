// Package route holds the data-oblivious block-routing primitives shared
// by the core algorithm pipeline and the sorter engines: the butterfly-like
// compaction/expansion network of Theorem 6 (Figure 1) and the data
// consolidation scan of Lemma 3. It sits below both internal/core and
// internal/obsort so either can route blocks without an import cycle.
package route

import (
	"fmt"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/par"
)

// parMinCells is the chunk length below which per-cell compute stays on
// the calling goroutine — spawning workers costs more than processing a
// handful of cells. It compares public chunk lengths only, so the fan-out
// decision never depends on data.
const parMinCells = 32

// parFor fans fn out over [0, n) across w workers when the range is large
// enough to amortize the spawns, inline otherwise. All I/O and all cache
// accounting stay with the caller.
func parFor(w, n int, fn func(lo, hi int)) {
	if n < parMinCells {
		w = 1
	}
	par.For(w, n, fn)
}

// This file implements Theorem 6: deterministic tight order-preserving
// compaction through the butterfly-like routing network of Figure 1, and
// its reverse (order-preserving expansion). The network has ceil(log2 n)
// levels; an occupied cell at position j labelled with leftward distance d
// routes to j − (d mod 2^{i+1}) at level i, which Lemma 5 shows is
// collision-free for valid labels. Processing the levels in groups of
// g = Θ(log(M/B)) against a private sliding window gives the windowed
// variant with O(n·log(n)/log(M/B)) I/Os; g = 1 recovers the naive
// per-level variant — the ablation pair TestWindowedBeatsNaive compares.
//
// A routing is one pass per group — each cell read once and written once —
// and nothing else. The labels are a prefix count, and the first group of
// a compaction loads the cells in address order, so it labels them as they
// stream through the cache; an expansion routes on the targets its caller
// stamped and checks their order as its last group emits. An array that
// fits the free cache whole is one group whatever its length: one read, a
// private stable move, one write.
//
// A cell here is one disk block. A cell's destination (its occupied-rank)
// and its origin are carried inside the block's elements (CellDest/Aux flag
// bits), so the adversary never sees them; the address trace of every pass
// is a fixed function of n, B and the free cache the routing is entered
// with.

// BlockPred decides whether a block-cell counts as occupied for routing.
type BlockPred func(blk []extmem.Element) bool

// PredOccupied treats a cell as occupied if any element is occupied.
func PredOccupied(blk []extmem.Element) bool {
	for _, e := range blk {
		if e.Occupied() {
			return true
		}
	}
	return false
}

// PredFailed treats a cell as occupied if any element carries FlagFailed —
// the predicate used by the failure-sweeping step of Theorem 21.
func PredFailed(blk []extmem.Element) bool {
	for _, e := range blk {
		if e.Flags&extmem.FlagFailed != 0 {
			return true
		}
	}
	return false
}

// fitsCache reports whether n cells fit free elements of private memory
// beside a block of slack — a function of the geometry and of what the
// caller has checked out, both public.
func fitsCache(n, b, free int) bool { return (n+1)*b <= free }

// label stamps an occupied cell with its destination and its origin.
func label(blk []extmem.Element, dest, origin int) {
	for t := range blk {
		blk[t].SetCellDest(dest)
		blk[t].SetAux(origin)
	}
}

// CompactBlocksTight performs Theorem 6's tight order-preserving compaction
// in place at block granularity: all cells satisfying pred move to a
// contiguous prefix, preserving order; other cells become empty. It returns
// the number of occupied cells (private knowledge). levelsPerPass <= 0
// chooses the largest group the free cache allows — the whole array when it
// fits; a positive value runs the network with that many levels to a group,
// 1 giving the naive variant.
//
// Side effects: the CellDest and Aux (color) flag bits of every element are
// overwritten — CellDest with the cell's final position and Aux with its
// original position (which is exactly what ExpandBlocks needs to undo the
// compaction).
func CompactBlocksTight(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) int {
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	defer env.Obs.End(sp)
	return compact(env, sp, a, a.Len(), a.ReadRange, pred, levelsPerPass)
}

// CompactInto is CompactBlocksTight of cells that are not in a yet: feed
// yields cells [lo, hi) into dst — every range once, in address order — as
// the first pass loads them, so the cells of several arrays, or cells
// converted on the way, are compacted without first being copied together.
// fed is the number of blocks feed reads in all, for the span's prediction.
// The passes after the first run in a, in place.
func CompactInto(env *extmem.Env, a extmem.Array, fed int, feed func(lo, hi int, dst []extmem.Element), pred BlockPred) int {
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	defer env.Obs.End(sp)
	return compact(env, sp, a, fed, feed, pred, 0)
}

// ConsolidateCompact is Consolidate followed by CompactBlocksTight on its
// output, without the array between them: the kept elements of a, in order,
// packed into the leading blocks of a fresh array of a.Len() blocks, and
// their number. The butterfly's first pass takes its cells from Lemma 3's
// holding buffer as that reads a, and writes them routed to the fresh
// array; later passes run there in place. Kept elements must be occupied.
func ConsolidateCompact(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool) (extmem.Array, int64) {
	out := env.D.Alloc(a.Len())
	if a.Len() == 0 {
		return out, 0
	}
	sp := env.Obs.Start("consolidate-compact")
	defer env.Obs.End(sp)
	l := lag{keep: keep, hold: env.Cache.Buf(2 * a.B())}
	compact(env, sp, out, a.Len(), func(lo, hi int, dst []extmem.Element) { l.cells(a, lo, hi, dst) }, PredOccupied, 0)
	env.Cache.Free(l.hold)
	return out, l.kept
}

// compact routes the cells that feed yields — cells [lo, hi) into dst, each
// range asked for once, in address order, fed block reads in all — to a
// tight prefix of a, which may be where they come from.
func compact(env *extmem.Env, sp *obs.Span, a extmem.Array, fed int, feed func(lo, hi int, dst []extmem.Element), pred BlockPred, levelsPerPass int) int {
	n, b := a.Len(), a.B()
	free := env.M - env.Cache.Used()
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(routingIOs(fed, n, ButterflyPassCount(n, levelsPerPass, free/b)), -1)
	rank := 0
	if levelsPerPass <= 0 && fitsCache(n, b, free) {
		buf := env.Cache.Buf(n * b)
		feed(0, n, buf)
		for j := 0; j < n; j++ {
			if blk := buf[j*b : (j+1)*b]; pred(blk) {
				label(blk, rank, j)
				copy(buf[rank*b:], blk)
				rank++
			}
		}
		clear(buf[rank*b:])
		a.WriteRange(0, n, buf)
		env.Cache.Free(buf)
		return rank
	}
	levels, g := max(1, extmem.CeilLog2(n)), groupSize(free/b, levelsPerPass)
	for i0 := 0; i0 < levels; i0 += g {
		rank += routeGroupLeft(env, a, feed, pred, i0, min(g, levels-i0))
	}
	return rank
}

// ExpandBlocks reverses a tight compaction: every cell of the compact
// prefix satisfying pred carries a destination in its Aux bits (strictly
// increasing across the prefix, never left of the cell); the cells are
// routed right so cell i ends at position Aux(i), its CellDest bits saying
// the same. Cells not reached stay empty. This is the paper's "use this
// method in reverse" remark after Theorem 6. Bad targets panic: up front
// when the array fits the cache, and otherwise no later than the last
// group, which emits the cells in address order and checks that their
// origins are in order too.
func ExpandBlocks(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) {
	expand(env, a, a, pred, levelsPerPass, nil)
}

// ExpandInto is ExpandBlocks of a tight prefix held apart from where it
// expands to: the cells of src, at most dst.Len() of them, are routed to
// their targets in dst without first being copied there — the first group
// reads src where ExpandBlocks reads the array, every cell past src's end
// counting as empty, and the groups after it run in dst, in place. finish,
// when it is not nil, rewrites each routed cell as the last group emits it
// (from the form it travelled in to the form dst keeps); it must be pure
// per-cell compute, as it runs on the workers.
func ExpandInto(env *extmem.Env, src, dst extmem.Array, pred BlockPred, finish func(blk []extmem.Element)) {
	if src.Len() > dst.Len() {
		panic(fmt.Sprintf("route: expansion of %d cells into %d", src.Len(), dst.Len()))
	}
	expand(env, src, dst, pred, 0, finish)
}

func expand(env *extmem.Env, src, dst extmem.Array, pred BlockPred, levelsPerPass int, finish func(blk []extmem.Element)) {
	n, ns, b := dst.Len(), src.Len(), dst.B()
	if n == 0 {
		return
	}
	free := env.M - env.Cache.Used()
	sp := env.Obs.Start("butterfly-expand")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(routingIOs(ns, n, ButterflyPassCount(n, levelsPerPass, free/b)), -1)
	defer env.Obs.End(sp)
	if levelsPerPass <= 0 && fitsCache(n, b, free) {
		buf := env.Cache.Buf(n * b)
		src.ReadRange(0, ns, buf[:ns*b])
		prev := -1
		for j := 0; j < ns; j++ {
			if blk := buf[j*b : (j+1)*b]; pred(blk) {
				d := blk[0].Aux()
				if d < j || d <= prev {
					panic(badTargets(j, d))
				}
				if d >= n {
					panic("route: expansion routed past array end")
				}
				prev = d
			}
		}
		// Right to left, so a cell never lands on one still to move.
		for j := ns - 1; j >= 0; j-- {
			blk := buf[j*b : (j+1)*b]
			if !pred(blk) {
				clear(blk)
				continue
			}
			d := blk[0].Aux()
			for t := range blk {
				blk[t].SetCellDest(d)
			}
			if finish != nil {
				finish(blk)
			}
			if d != j {
				copy(buf[d*b:(d+1)*b], blk)
				clear(blk)
			}
		}
		dst.WriteRange(0, n, buf)
		env.Cache.Free(buf)
		return
	}
	// The same group boundaries as a compaction, in descending stride order.
	levels, g := max(1, extmem.CeilLog2(n)), groupSize(free/b, levelsPerPass)
	for i0 := (levels - 1) / g * g; i0 >= 0; i0 -= g {
		routeGroupRight(env, src, dst, pred, i0, min(g, levels-i0), finish)
	}
}

func badTargets(cell, dest int) string {
	return fmt.Sprintf("route: expansion targets not strictly increasing at cell %d (dest %d)", cell, dest)
}

// groupSize resolves the number of network levels to process per pass
// against mBlocks blocks of free cache.
func groupSize(mBlocks, levelsPerPass int) int {
	if levelsPerPass > 0 {
		return levelsPerPass
	}
	// Private window of 2w cells plus an I/O block: 2w+2 <= m.
	g := 0
	for w := 1; 4*w+2 <= mBlocks; w *= 2 {
		g++
	}
	return max(g, 1)
}

// windowCells returns the half-window size w = 2^g, checking the cache can
// hold 2w cells plus an I/O buffer.
func windowCells(env *extmem.Env, g int) int {
	w := 1 << g
	if (2*w+1)*env.B() > env.M {
		panic(fmt.Sprintf("route: butterfly window 2^%d cells exceeds cache (m=%d blocks)", g, env.MBlocks()))
	}
	return w
}

// routeGroupLeft routes one group of levels [i0, i0+gg) of the compaction
// network: every occupied cell moves left by ((j − dest) mod S·2^gg) where
// S = 2^i0, which Lemma 5 guarantees lands it on a distinct cell. Cells at
// distance S apart form independent virtual sequences (the paper's "simple
// shuffle that brings together cells that are m apart"); each is processed
// with a sliding window of 2w cells, w = 2^gg.
//
// The first group (S = 1, one sequence) takes its cells from feed, in
// address order, labels each occupied one with its rank and its origin as
// it arrives, and returns the number it saw; later groups read a and
// return 0. Every group writes a.
func routeGroupLeft(env *extmem.Env, a extmem.Array, feed func(lo, hi int, dst []extmem.Element), pred BlockPred, i0, gg int) int {
	n := a.Len()
	b := a.B()
	s := 1 << i0
	w := windowCells(env, gg)
	modulus := s * w

	stash := env.Cache.Buf(2 * w * b)
	live := make([]bool, 2*w)
	// Strided chunk buffer, shared between loads and write gathering (the
	// two are never in flight at once): cb cells per vectored round trip.
	cb := min(w, env.ScanBatch(1))
	io := env.Cache.Buf(cb * b)
	idx := make([]int, cb)
	nw := env.WorkerCount()
	// Per-cell stash slots are computed in parallel, the Lemma 5 collision
	// check runs serially over the O(cb) slot list (deterministic panic),
	// and the block copies into distinct slots fan back out.
	slotOf := make([]int, cb)

	// Every closure below is built once per group, not per residue class or
	// per chunk: c, loaded and lo are the loop state they read.
	var c, loaded, lo, rank int
	place := func(plo, phi int) {
		for t := plo; t < phi; t++ {
			blk := io[t*b : (t+1)*b]
			slotOf[t] = -1
			if !pred(blk) {
				continue
			}
			j := idx[t]
			dist := j - blk[0].CellDest()
			if dist < 0 || dist%s != 0 {
				panic("route: butterfly invariant violated (distance not multiple of stride)")
			}
			move := dist % modulus / s
			fin := loaded + t - move
			slotOf[t] = ((fin % (2 * w)) + 2*w) % (2 * w)
		}
	}
	stow := func(plo, phi int) {
		for t := plo; t < phi; t++ {
			if slotOf[t] >= 0 {
				copy(stash[slotOf[t]*b:(slotOf[t]+1)*b], io[t*b:(t+1)*b])
			}
		}
	}
	// Output cells in [lo, chi) span less than 2w virtual positions, so
	// their slots are pairwise distinct — each worker touches its own stash
	// slots and live entries.
	emit := func(plo, phi int) {
		for out := lo + plo; out < lo+phi; out++ {
			slot := out % (2 * w)
			dst := io[(out-lo)*b : (out-lo+1)*b]
			if live[slot] {
				copy(dst, stash[slot*b:(slot+1)*b])
				live[slot] = false
			} else {
				clear(dst)
			}
			idx[out-lo] = c + out*s
		}
	}
	load := func(hi int) {
		for loaded < hi {
			cnt := min(cb, hi-loaded)
			for t := 0; t < cnt; t++ {
				idx[t] = c + (loaded+t)*s
			}
			if i0 == 0 {
				// The labels are a prefix count over cells arriving in
				// address order: serial, O(cnt), private.
				feed(loaded, loaded+cnt, io[:cnt*b])
				for t := 0; t < cnt; t++ {
					if blk := io[t*b : (t+1)*b]; pred(blk) {
						label(blk, rank, loaded+t)
						rank++
					}
				}
			} else {
				a.ReadMany(idx[:cnt], io[:cnt*b])
			}
			parFor(nw, cnt, place)
			for t := 0; t < cnt; t++ {
				if slotOf[t] < 0 {
					continue
				}
				if live[slotOf[t]] {
					panic("route: butterfly collision (Lemma 5 violated)")
				}
				live[slotOf[t]] = true
			}
			parFor(nw, cnt, stow)
			loaded += cnt
		}
	}

	for c = 0; c < s && c < n; c++ {
		lv := (n - c + s - 1) / s // virtual length of this residue class
		loaded = 0
		for t := 0; t*w < lv; t++ {
			load(min((t+2)*w, lv))
			outHi := min((t+1)*w, lv)
			for lo = t * w; lo < outHi; lo += cb {
				chi := min(lo+cb, outHi)
				parFor(nw, chi-lo, emit)
				a.WriteMany(idx[:chi-lo], io[:(chi-lo)*b])
			}
		}
	}
	env.Cache.Free(io)
	env.Cache.Free(stash)
	return rank
}

// routeGroupRight mirrors routeGroupLeft for rightward movement: groups run
// in descending stride order, so a cell's remaining distance to its target
// (its Aux bits) fits inside the group's modulus S·2^gg and the group moves
// it by that distance's multiple of S; loads and output chunks run
// right-to-left. The top group, the first to run, stamps every cell's
// origin into its CellDest bits; the last (S = 1) emits the cells in
// descending address order, checks that the origins descend with them —
// which is the strictly-increasing-targets precondition — and leaves the
// final position in CellDest, and the cell to finish. The top group reads
// src, which may be a's own prefix held elsewhere; every group writes a.
func routeGroupRight(env *extmem.Env, src, a extmem.Array, pred BlockPred, i0, gg int, finish func(blk []extmem.Element)) {
	n := a.Len()
	b := a.B()
	s := 1 << i0
	w := windowCells(env, gg)
	modulus := s * w
	top := modulus >= n
	from := a
	if top {
		from = src
	}

	stash := env.Cache.Buf(2 * w * b)
	live := make([]bool, 2*w)
	// Strided chunk buffer shared between loads and write gathering, as in
	// routeGroupLeft; cells stream right-to-left here.
	cb := min(w, env.ScanBatch(1))
	io := env.Cache.Buf(cb * b)
	idx := make([]int, cb)
	nw := env.WorkerCount()
	slotOf := make([]int, cb)
	origin := make([]int, cb) // last group: the origins of an output chunk's cells, -1 for an empty one
	prevOrigin := n

	// As in routeGroupLeft, every closure is built once per group: c, lv,
	// loaded (the next virtual index to load, plus one) and chi (the output
	// chunk's upper end) are the loop state they read.
	var c, lv, loaded, chi int
	place := func(plo, phi int) {
		for t := plo; t < phi; t++ {
			blk := io[t*b : (t+1)*b]
			slotOf[t] = -1
			if !pred(blk) {
				continue
			}
			v := loaded - 1 - t
			j := idx[t]
			dist := blk[0].Aux() - j
			if dist < 0 {
				panic(badTargets(j, blk[0].Aux()))
			}
			if dist >= modulus {
				panic("route: expansion invariant violated")
			}
			fin := v + dist/s
			if fin >= lv {
				panic("route: expansion routed past array end")
			}
			if top {
				for e := range blk {
					blk[e].SetCellDest(j)
				}
			}
			slotOf[t] = fin % (2 * w)
		}
	}
	stow := func(plo, phi int) {
		for t := plo; t < phi; t++ {
			if slotOf[t] >= 0 {
				copy(stash[slotOf[t]*b:(slotOf[t]+1)*b], io[t*b:(t+1)*b])
			}
		}
	}
	// The out positions of one chunk span less than 2w virtual cells, so
	// their slots are pairwise distinct across workers.
	emit := func(plo, phi int) {
		for p := plo; p < phi; p++ {
			out := chi - 1 - p // descending virtual order
			slot := out % (2 * w)
			dst := io[p*b : (p+1)*b]
			origin[p] = -1
			if live[slot] {
				copy(dst, stash[slot*b:(slot+1)*b])
				live[slot] = false
				if i0 == 0 {
					origin[p] = dst[0].CellDest()
					for e := range dst {
						dst[e].SetCellDest(out)
					}
					if finish != nil {
						finish(dst)
					}
				}
			} else {
				clear(dst)
			}
			idx[p] = c + out*s
		}
	}
	load := func(lo int) {
		for loaded > lo {
			cnt := min(cb, loaded-lo)
			for t := 0; t < cnt; t++ {
				idx[t] = c + (loaded-1-t)*s // descending virtual order
			}
			// Cells past the source's end are empty, and come first.
			past := 0
			for past < cnt && idx[past] >= from.Len() {
				past++
			}
			clear(io[:past*b])
			if past < cnt {
				from.ReadMany(idx[past:cnt], io[past*b:cnt*b])
			}
			parFor(nw, cnt, place)
			for t := 0; t < cnt; t++ {
				if slotOf[t] < 0 {
					continue
				}
				if live[slotOf[t]] {
					panic("route: expansion collision")
				}
				live[slotOf[t]] = true
			}
			parFor(nw, cnt, stow)
			loaded -= cnt
		}
	}

	for c = 0; c < s && c < n; c++ {
		lv = (n - c + s - 1) / s
		loaded = lv
		for t := (lv+w-1)/w - 1; t >= 0; t-- {
			load(max((t-1)*w, 0))
			for chi = min((t+1)*w, lv); chi > t*w; chi -= cb {
				cnt := min(cb, chi-t*w)
				parFor(nw, cnt, emit)
				for p := 0; p < cnt; p++ {
					if origin[p] < 0 {
						continue
					}
					if origin[p] >= prevOrigin {
						panic(badTargets(origin[p], idx[p]))
					}
					prevOrigin = origin[p]
				}
				a.WriteMany(idx[:cnt], io[:cnt*b])
			}
		}
	}
	env.Cache.Free(io)
	env.Cache.Free(stash)
}

// ButterflyPassCount predicts the number of full read+write passes a
// routing of n cells makes when it is entered with mBlocks blocks of cache
// free: one pass per level group, and one group when the array fits.
// TestButterflyIOMatchesPassCount checks measured I/O against 2n times this.
func ButterflyPassCount(n, levelsPerPass, mBlocks int) int {
	if levelsPerPass <= 0 && n+1 <= mBlocks {
		return 1
	}
	g := groupSize(mBlocks, levelsPerPass)
	return (max(1, extmem.CeilLog2(n)) + g - 1) / g
}

// CompactRoundTrips predicts the vectored round trips of CompactBlocksTight
// on n blocks of b elements, entered with m elements of cache free and
// batches bounded by the cache alone: two when the array fits, and
// otherwise, one pass per group, the chunked window loads and output writes
// of routeGroupLeft per level group and residue class.
func CompactRoundTrips(n, levelsPerPass, b, m int) int64 {
	return compactRoundTrips(n, levelsPerPass, b, m, func(lo, hi int) int64 { return 1 })
}

// CompactIntoIOCount predicts the block I/Os of CompactInto of n cells whose
// feed reads fed blocks in all: those, the first pass's writes, and a read
// and a write of every cell for each pass after it.
func CompactIntoIOCount(fed, n, b, m int) int64 {
	return routingIOs(fed, n, ButterflyPassCount(n, 0, m/b))
}

// routingIOs is the block I/Os of a routing of n cells in the given number
// of passes whose first pass reads fed blocks: every pass reads and writes
// all n but for that.
func routingIOs(fed, n, passes int) int64 {
	return int64(fed) + int64(n)*int64(2*passes-1)
}

// CompactIntoRoundTrips is CompactRoundTrips for CompactInto: feedRT is the
// round trips the feed makes when asked for cells [lo, hi).
func CompactIntoRoundTrips(n, b, m int, feedRT func(lo, hi int) int64) int64 {
	return compactRoundTrips(n, 0, b, m, feedRT)
}

// ConsolidateCompactIOCount predicts the block I/Os of ConsolidateCompact
// on n blocks of b elements entered with m elements of cache free: the
// butterfly's passes beside the 2B holding buffer, and nothing else.
func ConsolidateCompactIOCount(n, b, m int) int64 {
	return CompactIntoIOCount(n, n, b, m-2*b)
}

// ConsolidateCompactRoundTrips is CompactRoundTrips for ConsolidateCompact,
// whose feed, lag.cells, reads each chunk's inputs one block ahead of its
// cells: block 0 on its own before a first chunk that is not the whole
// array, and nothing for a chunk that is the last cell alone.
func ConsolidateCompactRoundTrips(n, b, m int) int64 {
	return compactRoundTrips(n, 0, b, m-2*b, func(lo, hi int) int64 {
		var rt int64
		rlo, rhi := lo+1, min(hi+1, n)
		if lo == 0 && hi == n {
			rlo = 0
		} else if lo == 0 {
			rt++
		}
		if rlo < rhi {
			rt++
		}
		return rt
	})
}

// compactRoundTrips replays the batching of compact: the first group's
// loads are calls of the feed, priced by feedRT; everything else is one
// round trip a chunk.
func compactRoundTrips(n, levelsPerPass, b, m int, feedRT func(lo, hi int) int64) int64 {
	if n == 0 {
		return 0
	}
	if levelsPerPass <= 0 && fitsCache(n, b, m) {
		return feedRT(0, n) + 1
	}
	var rt int64
	levels, g := max(1, extmem.CeilLog2(n)), groupSize(m/b, levelsPerPass)
	for i0 := 0; i0 < levels; i0 += g {
		s, w := 1<<i0, 1<<min(g, levels-i0)
		cb := min(w, extmem.ScanBatchOf(m-2*w*b, b, 1))
		for c := 0; c < s && c < n; c++ {
			lv := (n - c + s - 1) / s
			for t, loaded := 0, 0; t*w < lv; t++ {
				for hi := min((t+2)*w, lv); loaded < hi; loaded += min(cb, hi-loaded) {
					if i0 == 0 {
						rt += feedRT(loaded, loaded+min(cb, hi-loaded))
					} else {
						rt++
					}
				}
				rt += int64(extmem.CeilDiv(min((t+1)*w, lv)-t*w, cb))
			}
		}
	}
	return rt
}

// ExpandIntoIOCount predicts the block I/Os of ExpandInto of ns cells into
// n (of ExpandBlocks when ns = n): the first pass reads the ns cells there
// are and writes all n, every pass after it reads and writes all n.
func ExpandIntoIOCount(ns, n, b, m int) int64 {
	if n == 0 {
		return 0
	}
	return routingIOs(ns, n, ButterflyPassCount(n, 0, m/b))
}

// ExpandIntoRoundTrips replays the batching of expand as compactRoundTrips
// does compact's: the chunked window loads and output writes of
// routeGroupRight, less the loads of the top group that lie wholly past the
// ns cells of the source.
func ExpandIntoRoundTrips(ns, n, b, m int) int64 {
	if n == 0 {
		return 0
	}
	if fitsCache(n, b, m) {
		return int64(min(ns, 1)) + 1
	}
	var rt int64
	levels, g := max(1, extmem.CeilLog2(n)), groupSize(m/b, 0)
	for i0 := (levels - 1) / g * g; i0 >= 0; i0 -= g {
		s, w := 1<<i0, 1<<min(g, levels-i0)
		cb := min(w, extmem.ScanBatchOf(m-2*w*b, b, 1))
		top := s*w >= n
		for c := 0; c < s && c < n; c++ {
			lv := (n - c + s - 1) / s
			loaded := lv
			for t := (lv+w-1)/w - 1; t >= 0; t-- {
				for lo := max((t-1)*w, 0); loaded > lo; loaded -= min(cb, loaded-lo) {
					// A chunk is read unless its lowest cell is past the source.
					if !top || c+(loaded-min(cb, loaded-lo))*s < ns {
						rt++
					}
				}
				rt += int64(extmem.CeilDiv(min((t+1)*w, lv)-t*w, cb))
			}
		}
	}
	return rt
}
