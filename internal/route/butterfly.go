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
)

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
// A routing is a plan worked out once from n, B and the free cache
// (planOf): an array that fits the cache is one pass — one read, a private
// stable move, one write — and otherwise each level group is one, reading
// and writing every cell a window of up to half the free cache at a time.
// The executors run the plan and the predictors sum it in closed form: 2n
// I/Os a pass, and a round trip a window and one for each of the first two
// windows' loads, every later window's load travelling with the write of
// the window two before it — the pass that runs first too, whose loads are
// its source's in a compaction (which labels the cells as they stream in, a
// prefix count), and skip the windows past the source in an expansion
// (whose last pass checks its caller's targets).
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
// original position (which is exactly what ExpandInto needs to undo the
// compaction).
func CompactBlocksTight(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) int {
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	defer env.Obs.End(sp)
	if sp != nil {
		sp.SetPredicted(CompactCost(a.Len(), levelsPerPass, a.B(), env.M-env.Cache.Used()))
	}
	return compact(env, sp, a, &source{runs: []extmem.Array{a}}, pred, levelsPerPass)
}

// CompactInto is CompactBlocksTight of cells that are not in a yet: the
// blocks of runs, arrays on a's disk laid end to end as long as a, each
// handed to conv, when it is not nil, as the first pass loads it — so the
// cells of several arrays, or cells converted on the way, are compacted
// without first being copied together. The first pass reads them a window
// at a time, each load past the first two with the write before it, as
// CompactBlocksTight reads a, and the passes after it run in a, in place.
// Its price is CompactCost's.
func CompactInto(env *extmem.Env, a extmem.Array, conv func(blk []extmem.Element), pred BlockPred, runs ...extmem.Array) int {
	fed := 0
	for _, r := range runs {
		fed += r.Len()
	}
	if fed != a.Len() {
		panic(fmt.Sprintf("route: compaction of %d cells into %d", fed, a.Len()))
	}
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	defer env.Obs.End(sp)
	if sp != nil {
		sp.SetPredicted(CompactCost(a.Len(), 0, a.B(), env.M-env.Cache.Used()))
	}
	return compact(env, sp, a, &source{runs: runs, conv: conv}, pred, 0)
}

// ConsolidateCompact is Consolidate followed by CompactBlocksTight on its
// output, without the array between them: the kept elements of a, in order,
// packed into the leading blocks of a fresh array of a.Len() blocks, and
// their number (ConsolidateCompactInto).
func ConsolidateCompact(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool) (extmem.Array, int64) {
	out := env.D.Alloc(a.Len())
	return out, ConsolidateCompactInto(env, a, out, keep)
}

// ConsolidateCompactInto is ConsolidateCompact into out, a.Len() blocks the
// caller holds — the leading blocks of a longer array, say — and returns
// the number of kept elements. The butterfly's first pass takes its cells
// from Lemma 3's holding buffer as that reads a, and writes them routed to
// out; later passes run there in place. Every block of out is written, so
// what it held before does not matter. Kept elements must be occupied.
func ConsolidateCompactInto(env *extmem.Env, a, out extmem.Array, keep func(extmem.Element) bool) int64 {
	if out.Len() != a.Len() {
		panic(fmt.Sprintf("route: consolidating compaction of %d blocks into %d", a.Len(), out.Len()))
	}
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("consolidate-compact")
	defer env.Obs.End(sp)
	if sp != nil {
		sp.SetPredicted(ConsolidateCompactCost(a.Len(), a.B(), env.M-env.Cache.Used()))
	}
	l := lag{keep: keep, hold: env.Cache.Buf(2 * a.B())}
	compact(env, sp, out, &source{runs: []extmem.Array{a}, cons: &l}, PredOccupied, 0)
	env.Cache.Free(l.hold)
	return l.kept
}

// ConsolidateCompactFree is the least free cache, in elements, that
// ConsolidateCompact of n blocks of b elements runs in: the 2B holding
// buffer beside the routing's (RouteFree).
func ConsolidateCompactFree(n, b int) int { return 2*b + RouteFree(n, b) }

// RouteFree is the least free cache, in elements, that a compaction or an
// expansion over n blocks of b elements runs in: either the whole array and
// a block of slack (plan's whole) or the narrowest window, a group of one
// level (windowFree).
func RouteFree(n, b int) int { return min((n+1)*b, windowFree(b, 1)) }

// plan is the shape of one routing of n cells of b elements entered with
// free elements of the cache free, worked out once from those three alone —
// all public — for the executors to run and the predictors to sum. Either
// the whole array fits the cache beside a block of slack and the routing is
// one pass, or the network's levels go in groups of g, one pass a group.
type plan struct {
	n, b, free int
	whole      bool
	levels, g  int
}

// planOf lays out a routing; levelsPerPass > 0 forces the group size and
// the network. It panics when the free cache cannot hold the first group's
// smallest window (windowFree).
func planOf(n, b, free, levelsPerPass int) plan {
	p := plan{n: n, b: b, free: free, levels: max(1, extmem.CeilLog2(n))}
	if levelsPerPass <= 0 && (n+1)*b <= free {
		p.whole, p.g = true, p.levels
		return p
	}
	p.g = groupSize(free/b, levelsPerPass)
	if gg := min(p.g, p.levels); windowFree(b, gg) > free {
		panic(fmt.Sprintf("route: butterfly window 2^%d cells exceeds the free cache (%d blocks)", gg, free/b))
	}
	return p
}

// passes is the number of passes: one per level group.
func (p plan) passes() int { return (p.levels + p.g - 1) / p.g }

// pass is level group k of a plan: levels [i0, i0+gg), moving each cell
// fewer than w = 2^gg places along its class, loaded hw cells at a time —
// as many as half the free cache holds beside a block of slack, at least w
// and at most n unless w is more — in windows windows. The whole array,
// with 2^levels ≥ n, is one window.
type pass struct{ i0, gg, w, hw, windows int }

func (p plan) pass(k int) pass {
	i0 := k * p.g
	gg := min(p.g, p.levels-i0)
	hw := max(1<<gg, min(p.n, (p.free/p.b-1)/2))
	return pass{i0, gg, 1 << gg, hw, extmem.CeilDiv(p.n, hw)}
}

// cost sums the plan: every pass reads and writes all n cells, a write a
// window and a load for each of the first two, the load of window t+2
// travelling with window t's write — but that the pass that runs first
// reads fed blocks, in extra round trips more than that.
func (p plan) cost(fed int, extra int64) obs.Cost {
	c := obs.Cost{IOs: int64(fed) + int64(p.n)*int64(2*p.passes()-1), RoundTrips: extra}
	for k := range p.passes() {
		w := int64(p.pass(k).windows)
		c.RoundTrips += w + min(w, 2)
	}
	return c
}

// source is where a routing's first pass takes its cells [lo, hi), each
// range asked for once, in address order: the blocks of runs laid end to
// end, each handed to conv where it is not nil; or, where cons is not nil,
// the consolidation of runs[0]'s kept elements, decided by its blocks
// (lo, hi]. Either is read into the window's slots in one batch (reads),
// which the pass can send with a write, and turned into cells there
// (settle). The consolidation's holding buffer goes to the store with
// every read of block 0: held by pointer, it leaves runs on the caller's
// stack, where a field of the source would not.
type source struct {
	runs []extmem.Array
	cons *lag
	conv func(blk []extmem.Element)
}

// reads adds to x the blocks that cells [lo, hi) are read from.
func (s *source) reads(x *extmem.Batch, lo, hi int) {
	if s.cons != nil {
		rlo, rhi := lagSpan(s.runs[0].Len(), lo, hi)
		x.ReadRange(s.runs[0], rlo, rhi)
		return
	}
	base := 0
	for _, r := range s.runs {
		if plo, phi := max(lo, base), min(hi, base+r.Len()); plo < phi {
			x.ReadRange(r, plo-base, phi-base)
		}
		base += r.Len()
	}
}

// settle turns the blocks reads named, read into dst, into cells [lo, hi).
func (s *source) settle(lo, hi int, dst []extmem.Element) {
	b := s.runs[0].B()
	switch {
	case s.cons != nil:
		s.cons.settle(s.runs[0].Len(), b, lo, hi, dst)
	case s.conv != nil:
		for off := 0; off < len(dst); off += b {
			s.conv(dst[off : off+b])
		}
	}
}

// load fills dst with cells [lo, hi) in an interaction of their own on d,
// the runs' disk — named by the caller, so that no pointer read out of runs
// leaves the routing and the runs stay on its caller's stack. Block 0 of a
// consolidation decides no cell: it is read ahead of a first window short
// of the whole array, into the holding buffer.
func (s *source) load(d *extmem.Disk, lo, hi int, dst []extmem.Element) {
	if r := s.runs[0]; s.cons != nil && lo == 0 && hi < r.Len() {
		s.cons.lead(d, r)
	}
	x := d.Batch(hi - lo)
	s.reads(&x, lo, hi)
	x.Do(nil, dst)
	s.settle(lo, hi, dst)
}

// compact routes the cells src yields to a tight prefix of a, which may be
// where they come from.
func compact(env *extmem.Env, sp *obs.Span, a extmem.Array, src *source, pred BlockPred, levelsPerPass int) int {
	n, b := a.Len(), a.B()
	p := planOf(n, b, env.M-env.Cache.Used(), levelsPerPass)
	sp.SetAttrInt("blocks", int64(n))
	rank := 0
	if p.whole {
		buf := env.Cache.Buf(n * b)
		src.load(a.Disk(), 0, n, buf)
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
	ws := newWindows(p.pass(0).hw)
	for k := range p.passes() {
		rank += routeGroupLeft(env, a, src, pred, p.pass(k), ws)
	}
	return rank
}

// ExpandInto reverses a tight compaction of dst, whose prefix is held apart
// in src: every cell of src satisfying pred carries a destination in its
// Aux bits (strictly increasing across src, never left of the cell, inside
// dst); the cells are routed right so cell i ends at position Aux(i) of dst,
// its CellDest bits saying the same, without first being copied there —
// the first group reads src, every cell past its end counting as empty, and
// the groups after it run in dst, in place. Cells not reached stay empty.
// src may be dst itself. This is the paper's "use this method in reverse"
// remark after Theorem 6. finish, when it is not nil, rewrites each routed
// cell as the last group emits it (from the form it travelled in to the
// form dst keeps). Bad targets panic: up front when the array fits the
// cache, and otherwise no later than the last group, which emits the cells
// in address order and checks that their origins are in order too.
func ExpandInto(env *extmem.Env, src, dst extmem.Array, pred BlockPred, finish func(blk []extmem.Element)) {
	n, ns, b := dst.Len(), src.Len(), dst.B()
	if ns > n {
		panic(fmt.Sprintf("route: expansion of %d cells into %d", ns, n))
	}
	if n == 0 {
		return
	}
	free := env.M - env.Cache.Used()
	sp := env.Obs.Start("butterfly-expand")
	defer env.Obs.End(sp)
	if sp != nil {
		sp.SetAttrInt("blocks", int64(n))
		sp.SetPredicted(ExpandIntoCost(ns, n, b, free))
	}
	p := planOf(n, b, free, 0)
	if p.whole {
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
	// The compaction's groups, in descending stride order.
	ws := newWindows(p.pass(0).hw)
	for k := p.passes() - 1; k >= 0; k-- {
		routeGroupRight(env, src, dst, pred, p.pass(k), ws, finish)
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
	// The largest g with 2·2^g + 2 <= m.
	g := 0
	for w := 1; 4*w+2 <= mBlocks; w *= 2 {
		g++
	}
	return max(g, 1)
}

// windowFree is the least free cache, in elements, a group of gg levels
// runs in: the stash of its smallest window, 2w cells of b elements — all
// the cache a group checks out is the stash of its 2hw.
func windowFree(b, gg int) int { return 2 * (1 << gg) * b }

// classes lays the residue classes mod s of n cells end to end, the paper's
// virtual sequences of cells s apart: class c's cells c, c+s, c+2s, … take
// consecutive positions, class after class. The first r classes hold q+1
// cells and the rest q.
type classes struct{ n, s, q, r int }

func classesOf(n, s int) classes { return classes{n, s, n / s, n % s} }

// at returns the class of position p and p's index within it.
func (k classes) at(p int) (c, v int) {
	if long := k.r * (k.q + 1); p >= long {
		return k.r + (p-long)/k.q, (p - long) % k.q
	}
	return p / (k.q + 1), p % (k.q + 1)
}

// fill walks the classes from position p, writing the cells at positions
// p, p+1, … into dst — or, reversed, those at positions n−1−p, n−2−p, … .
func (k classes) fill(p int, dst []int, reversed bool) {
	if reversed {
		p = k.n - p - len(dst)
	}
	c, v := k.at(p)
	for i := range dst {
		if reversed {
			dst[len(dst)-1-i] = c + v*k.s
		} else {
			dst[i] = c + v*k.s
		}
		if v++; c+v*k.s >= k.n {
			c, v = c+1, 0
		}
	}
}

// lowest returns the smallest cell at positions [p, hi).
func (k classes) lowest(p, hi int) int {
	c, v := k.at(p)
	if v > 0 && c+(v+hi-p-1)*k.s >= k.n { // the run reaches class c+1, whose first cell is c+1
		return c + 1
	}
	return c + v*k.s
}

// windows is the bookkeeping the groups of one routing call share, allocated
// once a call: a live mark for each slot of the stash, and the cells of one
// half-window in load order.
type windows struct {
	live []bool
	addr []int
}

func newWindows(hw int) windows { return windows{make([]bool, 2*hw), make([]int, hw)} }

// group is one level group's sweep over its classes laid end to end. Window
// t, positions [t·hw, (t+1)·hw) — counted from the far end when reversed —
// is read in one call straight into half t mod 2 of the stash, a position's
// slot being its value mod 2hw. Its cells then move in place, in load order:
// no target lies past its cell, so a move never lands on a cell still to
// move, and none lies more than w ≤ hw back, so it lands in this window or
// the last. Once window t+1 has moved, window t is final and goes out of
// its half in one write, which carries window t+2's read into the half it
// empties: the per-block trace is the one of a read and a write apart, in
// windows+2 round trips a group of two windows or more.
type group struct {
	windows
	k        classes
	reversed bool
	b, hw    int
	stash    []extmem.Element
	held     int // the window whose cells addr holds, or -1
}

func newGroup(env *extmem.Env, n, s, hw int, reversed bool, ws windows) group {
	b := env.B()
	return group{ws, classesOf(n, s), reversed, b, hw, env.Cache.Buf(2 * hw * b), -1}
}

// window returns window t's cells, in load order, and its half's first
// slot. The cells of the window a flush loaded stay for the window's turn.
func (g *group) window(t int) (addr []int, half int) {
	p := t * g.hw
	addr = g.addr[:min(g.hw, g.k.n-p)]
	if g.held != t {
		g.k.fill(p, addr, g.reversed)
		g.held = t
	}
	return addr, t % 2 * g.hw
}

func (g *group) slots(first, cnt int) []extmem.Element {
	return g.stash[first*g.b : (first+cnt)*g.b]
}

func (g *group) cell(slot int) []extmem.Element { return g.slots(slot, 1) }

// land moves the cell in slot from to slot to, where no cell may have landed.
func (g *group) land(from, to int, collision string) {
	if g.live[to] {
		panic(collision)
	}
	g.live[to] = true
	if to != from {
		copy(g.cell(to), g.cell(from))
	}
}

// flush writes window t to a, clearing every slot no cell landed on and
// handing each cell that did to visit, when it is not nil, with its
// address. Where reads is not nil the write carries window t+2's load into
// the half it empties, in one interaction: reads adds the blocks that
// window loads to the batch.
func (g *group) flush(a extmem.Array, t int, visit func(blk []extmem.Element, j int), reads func(x extmem.Batch, t int) extmem.Batch) {
	addr, half := g.window(t)
	for i, j := range addr {
		if !g.live[half+i] {
			clear(g.cell(half + i))
		} else if visit != nil {
			visit(g.cell(half+i), j)
		}
	}
	x := a.Disk().Batch(g.hw)
	x.Write(a, addr...)
	if reads != nil {
		x = reads(x, t+2)
	}
	x.Do(g.slots(half, g.hw), g.slots(half, g.hw))
}

// pairing returns reads where a group flushing window t−1 has a window
// t+1 to load with it, and nil otherwise.
func pairing(reads func(x extmem.Batch, t int) extmem.Batch, t, windows int) func(x extmem.Batch, t int) extmem.Batch {
	if reads == nil || t+1 >= windows {
		return nil
	}
	return reads
}

// routeGroupLeft routes one group of levels [i0, i0+gg) of the compaction
// network: every occupied cell moves left by ((j − dest) mod S·2^gg) where
// S = 2^i0, which Lemma 5 guarantees lands it on a distinct cell of its own
// class mod S — dist is a multiple of S and dest ≥ 0 — under w = 2^gg of
// that class's cells back. The group sweeps every class at once, a window
// at a time (see group).
//
// The first group (S = 1, one class) takes its cells from src, one load a
// window, labels each occupied one with its rank and its origin as it
// arrives, and returns the number it saw; later groups read a and return 0.
// Every group writes a, each load past the first two travelling with a
// write.
func routeGroupLeft(env *extmem.Env, a extmem.Array, src *source, pred BlockPred, ps pass, ws windows) int {
	n, s, w, hw := a.Len(), 1<<ps.i0, ps.w, ps.hw
	g := newGroup(env, n, s, hw, false, ws)
	first := ps.i0 == 0
	// reads adds what window t loads: its cells of a, or in the first group
	// the blocks src reads them from.
	reads := func(x extmem.Batch, t int) extmem.Batch {
		addr, _ := g.window(t)
		if first {
			src.reads(&x, t*hw, t*hw+len(addr))
		} else {
			x.Read(a, addr...)
		}
		return x
	}
	rank := 0
	for t := range ps.windows {
		addr, half := g.window(t)
		lo, slots := t*hw, g.slots(half, len(addr))
		switch {
		case t >= 2: // loaded with window t−2's write
			if first {
				src.settle(lo, lo+len(addr), slots)
			}
		case first:
			src.load(a.Disk(), lo, lo+len(addr), slots)
		default:
			a.ReadMany(addr, slots)
		}
		for i, j := range addr {
			blk := g.cell(half + i)
			g.live[half+i] = false
			if !pred(blk) {
				continue
			}
			if first {
				label(blk, rank, j)
				rank++
			}
			dist := j - blk[0].CellDest()
			if dist < 0 || dist%s != 0 {
				panic("route: butterfly invariant violated (distance not multiple of stride)")
			}
			g.land(half+i, (t*hw+i-dist%(s*w)/s)%(2*hw), "route: butterfly collision (Lemma 5 violated)")
		}
		if t > 0 {
			g.flush(a, t-1, nil, pairing(reads, t, ps.windows))
		}
	}
	g.flush(a, ps.windows-1, nil, nil)
	env.Cache.Free(g.stash)
	return rank
}

// routeGroupRight mirrors routeGroupLeft for rightward movement on reversed
// positions: groups run in descending stride order, so a cell's remaining
// distance to its target (its Aux bits) fits inside the group's modulus
// S·2^gg and the group moves it by that distance's multiple of S. The top
// group, the first to run, reads src, which may be a's own prefix held
// elsewhere — only its cells, in one load a window, every cell past its end
// empty — and stamps every cell's origin into its CellDest bits. The last
// (S = 1) emits the cells in descending address order, checks that the
// origins descend with them — which is the strictly-increasing-targets
// precondition — and leaves the final position in CellDest, and the cell to
// finish. Every group writes a, each load past the first two travelling
// with a write.
func routeGroupRight(env *extmem.Env, src, a extmem.Array, pred BlockPred, ps pass, ws windows, finish func(blk []extmem.Element)) {
	n, ns, s, w, hw := a.Len(), src.Len(), 1<<ps.i0, ps.w, ps.hw
	top := s*w >= n
	g := newGroup(env, n, s, hw, true, ws)
	prevOrigin := n
	emit := func(blk []extmem.Element, j int) {
		if o := blk[0].CellDest(); o >= prevOrigin {
			panic(badTargets(o, j))
		} else {
			prevOrigin = o
		}
		for e := range blk {
			blk[e].SetCellDest(j)
		}
		if finish != nil {
			finish(blk)
		}
	}
	if ps.i0 > 0 {
		emit = nil
	}
	// reads adds what window t loads: its cells of a, or in the top group
	// its cells below ns, of src, packed.
	reads := func(x extmem.Batch, t int) extmem.Batch {
		addr, _ := g.window(t)
		if !top {
			x.Read(a, addr...)
			return x
		}
		for _, j := range addr {
			if j < ns {
				x.Read(src, j)
			}
		}
		return x
	}
	for t := range ps.windows {
		if t < 2 {
			x := reads(a.Disk().Batch(hw), t)
			x.Do(nil, g.slots(t%2*hw, hw))
		}
		addr, half := g.window(t)
		if top {
			// The window's cells below ns arrived packed: spread them to
			// their slots back to front, clearing the rest.
			k := 0
			for _, j := range addr {
				if j < ns {
					k++
				}
			}
			for i := len(addr) - 1; i >= 0; i-- {
				if addr[i] >= ns {
					clear(g.cell(half + i))
				} else if k--; k != i {
					copy(g.cell(half+i), g.cell(half+k))
				}
			}
		}
		for i, j := range addr {
			blk := g.cell(half + i)
			g.live[half+i] = false
			if !pred(blk) {
				continue
			}
			dist := blk[0].Aux() - j
			if dist < 0 {
				panic(badTargets(j, blk[0].Aux()))
			}
			if dist >= s*w {
				panic("route: expansion invariant violated")
			}
			if j+dist/s*s >= n {
				panic("route: expansion routed past array end")
			}
			if top {
				for e := range blk {
					blk[e].SetCellDest(j)
				}
			}
			g.land(half+i, (t*hw+i-dist/s)%(2*hw), "route: expansion collision")
		}
		if t > 0 {
			g.flush(a, t-1, emit, pairing(reads, t, ps.windows))
		}
	}
	g.flush(a, ps.windows-1, emit, nil)
	env.Cache.Free(g.stash)
}

// CompactCost predicts CompactBlocksTight on n blocks of b elements entered
// with m elements of cache free and batches bounded by the cache alone: a
// read and a write of every cell a pass, a write a window and a load for
// each of a pass's first two (plan.cost).
func CompactCost(n, levelsPerPass, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	return planOf(n, b, m, levelsPerPass).cost(n, 0)
}

// ConsolidateCompactCost predicts ConsolidateCompact on n blocks of b
// elements entered with m elements of cache free: the butterfly's passes
// beside the 2B holding buffer, and nothing else. Its source reads each
// window's inputs one block ahead of its cells (lagSpan): block 0 on its
// own before a first window that is not the whole array (lag.lead), and
// nothing for a window that is cell n−1 alone, which costs a round trip
// less where that window is one of the first two, loaded on their own.
func ConsolidateCompactCost(n, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	p := planOf(n, b, m-2*b, 0)
	hw, extra := p.pass(0).hw, int64(0)
	if hw < n {
		extra++
	}
	if n > 1 && (n-1)%hw == 0 && (n-1)/hw < 2 {
		extra--
	}
	return p.cost(n, extra)
}

// ExpandIntoCost predicts ExpandInto of ns cells into n entered with m
// elements of cache free: the top group, which runs first, reads the ns
// cells there are and loads only the windows that reach below ns, which
// saves a round trip for each of its first two windows that does not;
// every other pass is a compaction's.
func ExpandIntoCost(ns, n, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	p := planOf(n, b, m, 0)
	top := p.pass(p.passes() - 1)
	k := classesOf(n, 1<<top.i0)
	var extra int64
	for lo := 0; lo < min(n, 2*top.hw); lo += top.hw {
		// Window [lo, lo+hw) counts from the far end; one whose cells all
		// lie at or past ns is not loaded.
		if k.lowest(max(n-lo-top.hw, 0), n-lo) >= ns {
			extra--
		}
	}
	return p.cost(ns, extra)
}
