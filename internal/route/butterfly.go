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
// I/Os and two round trips a window a pass, but for the pass that runs
// first, whose loads are the feed's in a compaction (which labels the cells
// as they stream in, a prefix count) and skip the windows past the source
// in an expansion (whose last pass checks its caller's targets).
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
	return compact(env, sp, a, a.ReadRange, pred, levelsPerPass)
}

// CompactInto is CompactBlocksTight of cells that are not in a yet: feed
// yields cells [lo, hi) into dst — every range once, in address order — as
// the first pass loads them, so the cells of several arrays, or cells
// converted on the way, are compacted without first being copied together.
// fed is the number of blocks feed reads in all, and feedRT(lo, hi) the
// round trips it takes for cells [lo, hi): the span's prediction is
// CompactIntoCost's. The passes after the first run in a, in place.
func CompactInto(env *extmem.Env, a extmem.Array, fed int, feedRT func(lo, hi int) int64, feed func(lo, hi int, dst []extmem.Element), pred BlockPred) int {
	if a.Len() == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	defer env.Obs.End(sp)
	if sp != nil {
		sp.SetPredicted(CompactIntoCost(fed, a.Len(), a.B(), env.M-env.Cache.Used(), feedRT))
	}
	return compact(env, sp, a, feed, pred, 0)
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
	c := NewConsolidation(env, a, keep)
	compact(env, sp, out, c.Cells, PredOccupied, 0)
	c.Close(env)
	return c.Kept()
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

// cost sums the plan: every pass reads and writes all n cells, a load and a
// write a window, but that the pass that runs first reads fed blocks, its
// loads extra round trips more than one a window.
func (p plan) cost(fed int, extra int64) obs.Cost {
	c := obs.Cost{IOs: int64(fed) + int64(p.n)*int64(2*p.passes()-1), RoundTrips: extra}
	for k := range p.passes() {
		c.RoundTrips += 2 * int64(p.pass(k).windows)
	}
	return c
}

// compact routes the cells that feed yields — cells [lo, hi) into dst, each
// range asked for once, in address order — to a tight prefix of a, which
// may be where they come from.
func compact(env *extmem.Env, sp *obs.Span, a extmem.Array, feed func(lo, hi int, dst []extmem.Element), pred BlockPred, levelsPerPass int) int {
	n, b := a.Len(), a.B()
	p := planOf(n, b, env.M-env.Cache.Used(), levelsPerPass)
	sp.SetAttrInt("blocks", int64(n))
	rank := 0
	if p.whole {
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
	ws := newWindows(p.pass(0).hw)
	for k := range p.passes() {
		rank += routeGroupLeft(env, a, feed, pred, p.pass(k), ws)
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
// its half in one write.
type group struct {
	windows
	k        classes
	reversed bool
	b, hw    int
	stash    []extmem.Element
}

func newGroup(env *extmem.Env, n, s, hw int, reversed bool, ws windows) group {
	b := env.B()
	return group{ws, classesOf(n, s), reversed, b, hw, env.Cache.Buf(2 * hw * b)}
}

// window returns window t's cells, in load order, and its half's first slot.
func (g *group) window(t int) (addr []int, half int) {
	p := t * g.hw
	addr = g.addr[:min(g.hw, g.k.n-p)]
	g.k.fill(p, addr, g.reversed)
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
// handing each cell that did to visit, when it is not nil, with its address.
func (g *group) flush(a extmem.Array, t int, visit func(blk []extmem.Element, j int)) {
	addr, half := g.window(t)
	for i, j := range addr {
		if !g.live[half+i] {
			clear(g.cell(half + i))
		} else if visit != nil {
			visit(g.cell(half+i), j)
		}
	}
	a.WriteMany(addr, g.slots(half, len(addr)))
}

// routeGroupLeft routes one group of levels [i0, i0+gg) of the compaction
// network: every occupied cell moves left by ((j − dest) mod S·2^gg) where
// S = 2^i0, which Lemma 5 guarantees lands it on a distinct cell of its own
// class mod S — dist is a multiple of S and dest ≥ 0 — under w = 2^gg of
// that class's cells back. The group sweeps every class at once, a window
// at a time (see group).
//
// The first group (S = 1, one class) takes its cells from feed, one call a
// window, labels each occupied one with its rank and its origin as it
// arrives, and returns the number it saw; later groups read a and return 0.
// Every group writes a.
func routeGroupLeft(env *extmem.Env, a extmem.Array, feed func(lo, hi int, dst []extmem.Element), pred BlockPred, ps pass, ws windows) int {
	n, s, w, hw := a.Len(), 1<<ps.i0, ps.w, ps.hw
	g := newGroup(env, n, s, hw, false, ws)
	rank := 0
	for t := range ps.windows {
		addr, half := g.window(t)
		if ps.i0 == 0 {
			feed(t*hw, t*hw+len(addr), g.slots(half, len(addr)))
		} else {
			a.ReadMany(addr, g.slots(half, len(addr)))
		}
		for i, j := range addr {
			blk := g.cell(half + i)
			g.live[half+i] = false
			if !pred(blk) {
				continue
			}
			if ps.i0 == 0 {
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
			g.flush(a, t-1, nil)
		}
	}
	g.flush(a, ps.windows-1, nil)
	env.Cache.Free(g.stash)
	return rank
}

// routeGroupRight mirrors routeGroupLeft for rightward movement on reversed
// positions: groups run in descending stride order, so a cell's remaining
// distance to its target (its Aux bits) fits inside the group's modulus
// S·2^gg and the group moves it by that distance's multiple of S. The top
// group, the first to run, reads src, which may be a's own prefix held
// elsewhere — only its cells, in one call a window, every cell past its end
// empty — and stamps every cell's origin into its CellDest bits. The last
// (S = 1) emits the cells in descending address order, checks that the
// origins descend with them — which is the strictly-increasing-targets
// precondition — and leaves the final position in CellDest, and the cell to
// finish. Every group writes a.
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
	for t := range ps.windows {
		addr, half := g.window(t)
		if !top {
			a.ReadMany(addr, g.slots(half, len(addr)))
		} else {
			// Read the window's cells below ns packed, then spread them to
			// their slots back to front, clearing the rest.
			k := 0
			for _, j := range addr {
				if j < ns {
					addr[k] = j
					k++
				}
			}
			if k > 0 {
				src.ReadMany(addr[:k], g.slots(half, k))
			}
			addr, _ = g.window(t)
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
			g.flush(a, t-1, emit)
		}
	}
	g.flush(a, ps.windows-1, emit)
	env.Cache.Free(g.stash)
}

// CompactCost predicts CompactBlocksTight on n blocks of b elements entered
// with m elements of cache free and batches bounded by the cache alone: a
// read and a write of every cell a pass, a load and a write a window.
func CompactCost(n, levelsPerPass, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	return planOf(n, b, m, levelsPerPass).cost(n, 0)
}

// CompactIntoCost predicts CompactInto of n cells whose feed reads fed
// blocks in all, in feedRT(lo, hi) round trips when asked for cells [lo, hi).
func CompactIntoCost(fed, n, b, m int, feedRT func(lo, hi int) int64) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	p := planOf(n, b, m, 0)
	hw := p.pass(0).hw
	var extra int64
	for lo := 0; lo < n; lo += hw {
		extra += feedRT(lo, min(lo+hw, n)) - 1
	}
	return p.cost(fed, extra)
}

// ConsolidateCompactCost predicts ConsolidateCompact on n blocks of b
// elements entered with m elements of cache free: the butterfly's passes
// beside the 2B holding buffer, and nothing else. Its feed, lag.cells, reads
// each window's inputs one block ahead of its cells: block 0 on its own
// before a first window that is not the whole array, and nothing for a
// window that is cell n−1 alone.
func ConsolidateCompactCost(n, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	p := planOf(n, b, m-2*b, 0)
	hw, extra := p.pass(0).hw, int64(0)
	if hw < n {
		extra++
	}
	if n > 1 && (n-1)%hw == 0 {
		extra--
	}
	return p.cost(n, extra)
}

// ExpandIntoCost predicts ExpandInto of ns cells into n entered with m
// elements of cache free: the top group, which runs first, reads the ns
// cells there are and loads only the windows that reach below ns; every
// other pass is a compaction's.
func ExpandIntoCost(ns, n, b, m int) obs.Cost {
	if n == 0 {
		return obs.Cost{}
	}
	p := planOf(n, b, m, 0)
	top := p.pass(p.passes() - 1)
	k := classesOf(n, 1<<top.i0)
	var extra int64
	for lo := 0; lo < n; lo += top.hw {
		// Window [lo, lo+hw) counts from the far end; one whose cells all
		// lie at or past ns is not loaded.
		if k.lowest(max(n-lo-top.hw, 0), n-lo) >= ns {
			extra--
		}
	}
	return p.cost(ns, extra)
}
