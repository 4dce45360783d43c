// Package route holds the data-oblivious block-routing primitives shared
// by the core algorithm pipeline and the sorter engines: the butterfly-like
// compaction/expansion network of Theorem 6 (Figure 1) and the data
// consolidation scan of Lemma 3. It sits below both internal/core and
// internal/obsort so either can route blocks without an import cycle.
package route

import (
	"fmt"

	"oblivext/internal/extmem"
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
// A cell here is one disk block. A cell's destination (its occupied-rank)
// and its origin are carried inside the block's elements (CellDest/Aux flag
// bits), so the adversary never sees them; the address trace of every pass
// is a fixed function of (n, B, M).

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

// CompactBlocksTight performs Theorem 6's tight order-preserving compaction
// in place at block granularity: all cells satisfying pred move to a
// contiguous prefix, preserving order; other cells become empty. It returns
// the number of occupied cells (private knowledge). levelsPerPass <= 0
// chooses the largest group the cache allows; 1 gives the naive variant.
//
// Side effects: the CellDest and Aux (color) flag bits of every element are
// overwritten — CellDest with the cell's final position and Aux with its
// original position (which is exactly what ExpandBlocks needs to undo the
// compaction).
func CompactBlocksTight(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) int {
	n := a.Len()
	if n == 0 {
		return 0
	}
	sp := env.Obs.Start("butterfly-compact")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(2*int64(n)*int64(ButterflyPassCount(n, levelsPerPass, env.MBlocks())), -1)
	defer env.Obs.End(sp)
	b := a.B()
	k := env.ScanBatchN(1, n)
	buf := env.Cache.Buf(k * b)
	nw := env.WorkerCount()

	// Labelling scan: occupied cell j gets dest = rank(j), origin = j. The
	// pass splits into a parallel predicate pass, a serial rank prefix over
	// the chunk (O(k), pure arithmetic), and a parallel stamping pass — the
	// in-cache work fans out, the chunk I/O order is exactly the serial
	// scan's.
	rank := 0
	occ := make([]bool, k)
	rk := make([]int, k)
	// The two fan-out bodies are built once and read the chunk origin
	// through lo, so a chunk costs no closure.
	var lo int
	classify := func(plo, phi int) {
		for x := plo; x < phi; x++ {
			occ[x] = pred(buf[x*b : (x+1)*b])
		}
	}
	stamp := func(plo, phi int) {
		for x := plo; x < phi; x++ {
			blk := buf[x*b : (x+1)*b]
			for t := range blk {
				if occ[x] {
					blk[t].SetCellDest(rk[x])
					blk[t].SetAux(lo + x)
				} else {
					blk[t].SetCellDest(0)
					blk[t].SetAux(0)
				}
			}
		}
	}
	for lo = 0; lo < n; lo += k {
		hi := min(lo+k, n)
		cnt := hi - lo
		a.ReadRange(lo, hi, buf[:cnt*b])
		parFor(nw, cnt, classify)
		for x := 0; x < cnt; x++ {
			rk[x] = rank
			if occ[x] {
				rank++
			}
		}
		parFor(nw, cnt, stamp)
		a.WriteRange(lo, hi, buf[:cnt*b])
	}
	env.Cache.Free(buf)

	routeLeft(env, a, pred, levelsPerPass)
	return rank
}

// ExpandBlocks reverses a tight compaction: every cell of the compact
// prefix satisfying pred carries a destination in its Aux bits (strictly
// increasing across the prefix); the cells are routed right so cell i ends
// at position Aux(i). Cells not reached stay empty. This is the paper's
// "use this method in reverse" remark after Theorem 6.
func ExpandBlocks(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) {
	n := a.Len()
	if n == 0 {
		return
	}
	sp := env.Obs.Start("butterfly-expand")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(2*int64(n)*int64(ButterflyPassCount(n, levelsPerPass, env.MBlocks())), -1)
	defer env.Obs.End(sp)
	b := a.B()
	k := env.ScanBatchN(1, n)
	buf := env.Cache.Buf(k * b)
	nw := env.WorkerCount()
	// Copy each occupied cell's Aux (target) into CellDest, validating
	// monotonicity as we go: a parallel predicate/target pass, the serial
	// O(k) monotonicity check, then a parallel stamping pass.
	prev := -1
	occ := make([]bool, k)
	dest := make([]int, k)
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		cnt := hi - lo
		a.ReadRange(lo, hi, buf[:cnt*b])
		parFor(nw, cnt, func(plo, phi int) {
			for x := plo; x < phi; x++ {
				blk := buf[x*b : (x+1)*b]
				occ[x] = pred(blk)
				dest[x] = blk[0].Aux()
			}
		})
		for x := 0; x < cnt; x++ {
			if !occ[x] {
				continue
			}
			if dest[x] < lo+x || dest[x] <= prev {
				panic(fmt.Sprintf("route: expansion targets not strictly increasing at cell %d (dest %d, prev %d)", lo+x, dest[x], prev))
			}
			prev = dest[x]
		}
		parFor(nw, cnt, func(plo, phi int) {
			for x := plo; x < phi; x++ {
				blk := buf[x*b : (x+1)*b]
				d := 0
				if occ[x] {
					d = dest[x]
				}
				for t := range blk {
					blk[t].SetCellDest(d)
				}
			}
		})
		a.WriteRange(lo, hi, buf[:cnt*b])
	}
	env.Cache.Free(buf)

	routeRight(env, a, pred, levelsPerPass)
}

// groupSize resolves the number of network levels to process per pass
// against a cache of mBlocks blocks.
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

// routeLeft runs the compaction network: occupied cells move left to their
// CellDest. Levels are processed in ascending stride groups.
func routeLeft(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) {
	n := a.Len()
	levels := extmem.CeilLog2(n)
	g := groupSize(env.MBlocks(), levelsPerPass)

	for i0 := 0; i0 < levels; i0 += g {
		gg := g
		if i0+gg > levels {
			gg = levels - i0
		}
		routeGroupLeft(env, a, pred, i0, gg)
	}
}

// routeGroupLeft routes one group of levels [i0, i0+gg): every occupied
// cell moves left by ((j − dest) mod S·2^gg) where S = 2^i0, which Lemma 5
// guarantees lands it on a distinct cell. Cells at distance S apart form
// independent virtual sequences (the paper's "simple shuffle that brings
// together cells that are m apart"); each is processed with a sliding
// window of 2w cells, w = 2^gg.
func routeGroupLeft(env *extmem.Env, a extmem.Array, pred BlockPred, i0, gg int) {
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
	var c, loaded, lo int
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
				for i := range dst {
					dst[i] = extmem.Element{}
				}
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
			a.ReadMany(idx[:cnt], io[:cnt*b])
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
}

// routeRight runs the expansion network: groups in descending stride order,
// cells moving right toward CellDest.
func routeRight(env *extmem.Env, a extmem.Array, pred BlockPred, levelsPerPass int) {
	n := a.Len()
	levels := extmem.CeilLog2(n)
	g := groupSize(env.MBlocks(), levelsPerPass)

	// Build the same group boundaries as routeLeft, then run them in
	// reverse order.
	var starts []int
	for i0 := 0; i0 < levels; i0 += g {
		starts = append(starts, i0)
	}
	for gi := len(starts) - 1; gi >= 0; gi-- {
		i0 := starts[gi]
		gg := g
		if i0+gg > levels {
			gg = levels - i0
		}
		routeGroupRight(env, a, pred, i0, gg)
	}
}

// routeGroupRight mirrors routeGroupLeft for rightward movement: cells move
// right by ((dest − j) mod S·2^gg)·... consuming the group's distance bits;
// output chunks are produced right-to-left.
func routeGroupRight(env *extmem.Env, a extmem.Array, pred BlockPred, i0, gg int) {
	n := a.Len()
	b := a.B()
	s := 1 << i0
	w := windowCells(env, gg)
	modulus := s * w

	stash := env.Cache.Buf(2 * w * b)
	live := make([]bool, 2*w)
	// Strided chunk buffer shared between loads and write gathering, as in
	// routeGroupLeft; cells stream right-to-left here.
	cb := min(w, env.ScanBatch(1))
	io := env.Cache.Buf(cb * b)
	idx := make([]int, cb)
	nw := env.WorkerCount()
	slotOf := make([]int, cb)

	for c := 0; c < s && c < n; c++ {
		lv := (n - c + s - 1) / s
		nt := (lv + w - 1) / w // number of output chunks
		loaded := lv           // we load right-to-left: next virtual index+1
		load := func(lo int) {
			for loaded > lo {
				cnt := min(cb, loaded-lo)
				for t := 0; t < cnt; t++ {
					idx[t] = c + (loaded-1-t)*s // descending virtual order
				}
				a.ReadMany(idx[:cnt], io[:cnt*b])
				parFor(nw, cnt, func(plo, phi int) {
					for t := plo; t < phi; t++ {
						blk := io[t*b : (t+1)*b]
						slotOf[t] = -1
						if !pred(blk) {
							continue
						}
						v := loaded - 1 - t
						j := idx[t]
						// Groups run in descending stride order, so the bits below
						// this group's stride are consumed later: the invariant is
						// that all bits at or above the group have been handled,
						// i.e. the remaining distance fits inside the modulus.
						dist := blk[0].CellDest() - j
						if dist < 0 || dist >= modulus {
							panic("route: expansion invariant violated")
						}
						move := dist / s
						fin := v + move
						if fin >= lv {
							panic("route: expansion routed past array end")
						}
						slotOf[t] = fin % (2 * w)
					}
				})
				for t := 0; t < cnt; t++ {
					if slotOf[t] < 0 {
						continue
					}
					if live[slotOf[t]] {
						panic("route: expansion collision")
					}
					live[slotOf[t]] = true
				}
				parFor(nw, cnt, func(plo, phi int) {
					for t := plo; t < phi; t++ {
						if slotOf[t] >= 0 {
							copy(stash[slotOf[t]*b:(slotOf[t]+1)*b], io[t*b:(t+1)*b])
						}
					}
				})
				loaded -= cnt
			}
		}
		for t := nt - 1; t >= 0; t-- {
			lo := (t - 1) * w
			if lo < 0 {
				lo = 0
			}
			load(lo)
			hi := (t + 1) * w
			if hi > lv {
				hi = lv
			}
			for chi := hi; chi > t*w; chi -= cb {
				clo := chi - cb
				if clo < t*w {
					clo = t * w
				}
				// The out positions in [clo, chi) span less than 2w virtual
				// cells, so their slots are pairwise distinct across workers.
				parFor(nw, chi-clo, func(plo, phi int) {
					for p := plo; p < phi; p++ {
						out := chi - 1 - p // descending virtual order
						slot := out % (2 * w)
						dst := io[p*b : (p+1)*b]
						if live[slot] {
							copy(dst, stash[slot*b:(slot+1)*b])
							live[slot] = false
						} else {
							for i := range dst {
								dst[i] = extmem.Element{}
							}
						}
						idx[p] = c + out*s
					}
				})
				a.WriteMany(idx[:chi-clo], io[:(chi-clo)*b])
			}
		}
	}
	env.Cache.Free(io)
	env.Cache.Free(stash)
}

// ButterflyPassCount predicts the number of full read+write passes the
// routing makes: one labelling pass plus one per level group.
// TestButterflyIOMatchesPassCount checks measured I/O against 2n times this.
func ButterflyPassCount(n, levelsPerPass, mBlocks int) int {
	g := groupSize(mBlocks, levelsPerPass)
	return 1 + (extmem.CeilLog2(n)+g-1)/g
}

// CompactRoundTrips predicts the vectored round trips of CompactBlocksTight
// on n blocks of b elements, entered with all m elements of the cache free
// and batches bounded by the cache alone: the labelling pass, then per
// level group and residue class the chunked window loads and output writes
// of routeGroupLeft.
func CompactRoundTrips(n, levelsPerPass, b, m int) int64 {
	if n == 0 {
		return 0
	}
	rt := 2 * int64(extmem.CeilDiv(n, min(n, extmem.ScanBatchOf(m, b, 1))))
	levels, g := extmem.CeilLog2(n), groupSize(m/b, levelsPerPass)
	for i0 := 0; i0 < levels; i0 += g {
		s, w := 1<<i0, 1<<min(g, levels-i0)
		cb := min(w, extmem.ScanBatchOf(m-2*w*b, b, 1))
		for c := 0; c < s && c < n; c++ {
			lv := (n - c + s - 1) / s
			for t, loaded := 0, 0; t*w < lv; t++ {
				hi := min((t+2)*w, lv)
				rt += int64(extmem.CeilDiv(hi-loaded, cb) + extmem.CeilDiv(min((t+1)*w, lv)-t*w, cb))
				loaded = hi
			}
		}
	}
	return rt
}
