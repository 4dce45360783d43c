package core

import (
	"errors"
	"fmt"
	"math/bits"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// This file implements §5 / Theorem 21: randomized data-oblivious sorting
// with O((N/B)·log_{M/B}(N/B)) I/Os. One level of the recursion:
//
//  1. q = (M/B)^{1/4} splitters split the input into q+1 buckets. The scan
//     that counts the input also copies one element of every block, at an
//     offset the tape draws, into a sample of ⌈n/B⌉ blocks; bitonic sorts
//     the sample and one scan reads the splitters off at ranks
//     round(i·s/(q+1)) of its s occupied elements. A bucket then holds at
//     most sortPlan's capE elements but for probability 2^-40, and the
//     splitters carry position tie-breaks, so duplicate keys never skew it.
//  2. A multi-way consolidation pass (§5) rewrites the array into
//     monochromatic full-or-empty blocks.
//  3. Shuffle-and-deal: a block-level Fisher–Yates shuffle (the "shuffle",
//     whose swaps come from the tape, not the data) followed by batched
//     dealing — read (M/B)^{3/4} blocks, then write a fixed quota of blocks
//     per color, padding with empties; the quota is the least whose
//     overflow tail (Lemma 18 / Corollary 19) is at most 2^-40.
//  4. Each color array is compacted in place to its first capB = ⌈capE/B⌉
//     blocks (Theorem 6's butterfly: the dealt blocks are already
//     full-or-empty) and sorted at the next level; that level's scratch is
//     released and the sorted bucket copied down before the next bucket
//     starts. A level below the top whose own Quantiles would sort the
//     bucket anyway sorts it with Lemma 2's deterministic sort at once
//     (sortsDirectly), as does one whose capacity fits the cache privately;
//     only the remaining buckets recurse. A bucket's occupancy is private,
//     so below the top every choice is made on its capacity.
//  5. No repair pass. A level fails only by dropping elements — a deal
//     batch over its quota, a bucket over its capacity, or a level below
//     that did either — so a failure anywhere fails the whole Sort, each
//     level's chance of it held to 2^-40 by sortPlan. The paper's failure
//     sweep re-sorts failed buckets from their own output, which cannot
//     restore what was dropped; bucket oblivious sort (arXiv:2008.01765)
//     likewise declares failure at a stated tail instead of repairing.
//
// At the benchmark geometry every bucket sorts directly, so Sort is one
// distributing level and a bitonic sort per bucket — the shape of bucket
// oblivious sort (arXiv:2008.01765). The top-level Sort finishes with a
// tight order-preserving compaction (Theorem 6), so the array ends with all
// occupied elements sorted in a tight prefix.

// ErrSortFailed reports a declared failure: at some level a bucket over its
// capacity or a deal batch over its quota, each at most 2^-40 a level
// (sortFailureBound). The trace is a prefix of the success trace.
var ErrSortFailed = errors.New("core: oblivious sort failed")

// ErrSortCache reports an array Sort cannot sort in the cache free at the
// call (SortFree), declared before any I/O.
var ErrSortCache = errors.New("core: too little cache free for the randomized sort")

// sortMaxDepth bounds the recursion as a safety net; deeper levels sort
// directly (sortsDirectly).
const sortMaxDepth = 12

// dealQuotaSeam, nil outside tests, replaces the deal quota of a level at
// the given depth: the in-package seam that forces Corollary 19's overflow,
// an event chance would not produce in a test's lifetime.
var dealQuotaSeam func(depth, quota int) int

// Sort sorts the occupied elements of a in place by (Key, Pos): after it
// returns, the occupied elements form a tight sorted prefix and all other
// cells are empty. Occupied elements must have distinct (Key, Pos) pairs
// (give each element its original index as Pos). The trace depends only on
// (len, B, M, N_occupied) and the tape. Below SortFree it returns
// ErrSortCache with an empty trace.
func Sort(env *extmem.Env, a extmem.Array) error {
	n := a.Len()
	if n == 0 {
		return nil
	}
	if free, need := env.M-env.Cache.Used(), SortFree(n, a.B()); free < need {
		return fmt.Errorf("%w: n=%d blocks of B=%d with %d elements of cache free, want %d",
			ErrSortCache, n, a.B(), free, need)
	}
	mark := env.D.Mark()
	defer env.D.Release(mark)

	res, ok := sortPadded(env, a, 0)
	if !ok {
		return fmt.Errorf("%w: top-level pipeline failure", ErrSortFailed)
	}

	// Tight order-preserving compaction (Theorem 6) back into a.
	sp := env.Obs.Start("final-compact")
	defer env.Obs.End(sp)
	cons, _ := route.ConsolidateCompact(env, res, extmem.Element.Occupied)
	var buf []extmem.Element
	unstamp := func(plo, phi int) { // built once: a chunk costs no closure
		for t := plo; t < phi; t++ {
			buf[t].Flags &^= extmem.FlagMarked
			buf[t].SetCellDest(0)
			buf[t].SetColor(0)
		}
	}
	env.Scan(cons, a, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		buf = chunk
		env.ParCells(len(chunk), unstamp)
	})
	return nil
}

// SortFree is the least free cache, in elements, Sort of nBlocks blocks of
// b elements runs in: that of its closing compaction, which holds the most
// cache beside the narrowest window of any routing Sort runs — 6B once the
// array is 3 blocks or more.
func SortFree(nBlocks, b int) int { return route.ConsolidateCompactFree(nBlocks, b) }

// Engine resolves a sort engine name (obsort.EngineNames) to the engine
// that sorts an array of nBlocks blocks of b elements against a cache of m
// elements, free of them not checked out at the call, over backend "mem" or
// "net": "auto" becomes obsort.Pick's choice and any other name stays as it
// is. Every input is public geometry, so the engine, and with it the trace,
// is independent of the data. Array.Sort and the ORAM's rebuilds both
// resolve here; each maps "" to its own default first.
func Engine(name string, nBlocks, b, m, free int, backend string) string {
	if name == obsort.EngineAuto {
		return obsort.Pick(nBlocks, b, m, free, backend)
	}
	return name
}

// SortWith sorts a by obsort.ByKey with the named engine, which Engine has
// resolved. Only "randomized" can fail, with ErrSortFailed, or with
// ErrSortCache before any I/O below SortFree, and "columnsort", with
// obsort.ErrColumnGeometry before any I/O where the array does not fit its
// size limit in the cache free at the call; bucket retries its declared
// overflows and falls back to zigzag. Any other name panics.
func SortWith(env *extmem.Env, a extmem.Array, engine string) error {
	switch engine {
	case obsort.EngineRandomized:
		return Sort(env, a)
	case obsort.EngineBitonic:
		obsort.Bitonic(env, a, obsort.ByKey)
	case obsort.EngineColumnsort:
		if _, _, err := obsort.ColumnGeometry(a.Len(), a.B(), env.M-env.Cache.Used()); err != nil {
			return err
		}
		obsort.Columnsort(env, a, obsort.ByKey)
	case obsort.EngineBucket:
		obsort.BucketSorter(env, a, obsort.ByKey)
	case obsort.EngineZigzag:
		obsort.Zigzag(env, a, obsort.ByKey)
	default:
		panic(fmt.Sprintf("core: no sort engine %q", engine))
	}
	return nil
}

// sortPadded sorts the occupied elements of a into a padded result array
// (occupied ascending, empties interspersed region-wise). It returns the
// result array and whether this level succeeded; on ok=false the contents
// are garbage but the trace is unchanged. A level whose occupancy fits half
// the cache sorts privately and one that sortsDirectly sorts a copy with
// bitonic; only the rest distribute, and only they can fail.
//
// Only the top level's occupancy is public. Below it a bucket holds a
// private number of elements, so every decision there — private sort or
// the level's shape — takes the bucket's public capacity, n·B.
func sortPadded(env *extmem.Env, a extmem.Array, depth int) (extmem.Array, bool) {
	n := a.Len()
	b := a.B()

	occ := int64(n * b)
	distributes := n*b > env.M/2 && !sortsDirectly(n, b, env.M, depth)
	var sample extmem.Array
	if distributes {
		sample = env.D.Alloc(extmem.CeilDiv(n, b))
	}
	var sOcc int64
	if depth == 0 || distributes {
		cnt, s := countAndSample(env, a, sample)
		if depth == 0 {
			occ = cnt
		}
		sOcc = s
	}
	if occ <= int64(env.M/2) {
		return sortPrivate(env, a), true
	}
	if !distributes {
		sp := env.Obs.Start("direct-sort")
		sp.SetAttrInt("depth", int64(depth))
		sp.SetAttrInt("blocks", int64(n))
		out := env.D.Alloc(n)
		copyArray(env, a, out)
		obsort.Bitonic(env, out, obsort.ByKey)
		env.Obs.End(sp)
		return out, true
	}

	lvl := env.Obs.Start("randomized-level")
	lvl.SetAttrInt("depth", int64(depth))
	lvl.SetAttrInt("blocks", int64(n))
	defer env.Obs.End(lvl)

	pl := sortPlan(n, b, env.M, occ, sortTail)
	q := pl.q
	ok := true

	// Step 1: splitters from the sorted sample.
	spq := env.Obs.Start("sample-splitters")
	obsort.Bitonic(env, sample, obsort.ByKey)
	bounds := splittersOf(env, sample, sOcc, q)
	env.Obs.End(spq)

	// Step 2: color by bucket = 1 + #splitters strictly below the element.
	spc := env.Obs.Start("colorize")
	work := env.D.Alloc(n)
	// Each element's color is a pure function of the element and the
	// private splitter bounds, so the coloring pass fans out freely.
	var buf []extmem.Element
	colorize := func(plo, phi int) {
		for t := plo; t < phi; t++ {
			buf[t].SetColor(0)
			if !buf[t].Occupied() {
				continue
			}
			c := 1
			for j := 0; j < q; j++ {
				if bounds[j].lessElem(buf[t]) {
					c = j + 2
				}
			}
			buf[t].SetColor(c)
		}
	}
	env.Scan(a, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		buf = chunk
		env.ParCells(len(chunk), colorize)
	})
	env.Obs.End(spc)

	// Step 3: multi-way consolidation into monochromatic blocks.
	spm := env.Obs.Start("consolidate-colors")
	ap := consolidateColors(env, work, q+1)
	env.Obs.End(spm)

	// Step 4: shuffle (block-level Fisher–Yates from the tape).
	sps := env.Obs.Start("shuffle")
	shuffleBlocks(env, ap)
	env.Obs.End(sps)

	// Step 5: deal into per-color arrays with the plan's per-batch quota.
	quota := pl.quota
	if dealQuotaSeam != nil {
		quota = dealQuotaSeam(depth, quota)
	}
	spd := env.Obs.Start("deal")
	colorArrs, dealOK := deal(env, ap, q+1, pl.batch, quota)
	env.Obs.End(spd)
	if !dealOK {
		ok = false
	}

	// Step 6: per bucket, compact, recurse, copy down. A bucket as dealt is
	// full blocks plus one partial flush block among empties, so Theorem 6's
	// butterfly moves it, in place and deterministically, into a prefix of
	// capB blocks; the next level's consolidation absorbs the partial block.
	// Everything the recursion allocates is released before its result is
	// copied down to where its scratch began, so the level's result is the
	// span the q+1 copies fill and a level holds O(n) blocks at any time.
	// (The paper compacts a bucket loosely, Theorem 8; with q+1 <= 5
	// buckets that output, 5·capB, is as long as the deal's: see
	// docs/ARCHITECTURE.md, Sorter engines.) Every color array has the same
	// public length, so capB is one figure for the level.
	capB := min(pl.capB, colorArrs[0].Len())
	resMark := env.D.Mark()
	for i, arr := range colorArrs {
		spb := env.Obs.Start("bucket")
		spb.SetAttrInt("color", int64(i))
		if route.CompactBlocksTight(env, arr, route.PredOccupied, 0) > capB {
			ok = false // an unbalanced split: never drop the excess silently
		}
		mark := env.D.Mark()
		sorted, sok := sortPadded(env, arr.Slice(0, capB), depth+1)
		env.D.Release(mark)
		if !sok {
			ok = false // a level below dropped elements: the failure is ours
		}
		copyArray(env, sorted, env.D.Alloc(sorted.Len()))
		env.Obs.End(spb)
	}
	return env.D.Since(resMark), ok
}

// sortsDirectly reports whether a level at depth over nBlocks blocks, not
// sorted privately, sorts a copy with Lemma 2's bitonic instead of
// distributing: where the cache leaves no splitter (q < 1), past the depth
// limit, and below the top wherever the level's own Quantiles would take
// its sort arm — that sort alone orders the bucket, so the rest of the
// level would be overhead. The top level always distributes: it is the
// paper's Theorem 21. A function of public geometry alone.
func sortsDirectly(nBlocks, b, m, depth int) bool {
	q := splitterCount(m / b)
	if q < 1 || depth >= sortMaxDepth {
		return true
	}
	if depth == 0 {
		return false
	}
	_, bySelect := quantilesPlan(nBlocks, b, m, q)
	return !bySelect
}

// splitterCount is §5's q = ⌊(M/B)^{1/4}⌋ for m = M/B blocks of cache, and
// dealBatch its deal batch ⌊(M/B)^{3/4}⌋, both as exact integer roots: a
// float math.Pow is one short where the root is exact (7 at m = 4 096,
// 999 at m^{3/4} for m = 10 000). m must be below 2^32.
func splitterCount(m int) int { return int(root4(0, uint64(m))) }

func dealBatch(m int) int {
	hi, lo := bits.Mul64(uint64(m)*uint64(m), uint64(m))
	return int(root4(hi, lo))
}

// root4 returns the largest r with r⁴ ≤ hi·2^64 + lo, one bit at a time
// from the top; r < 2^32, so r² never overflows.
func root4(hi, lo uint64) uint64 {
	var r uint64
	for bit := uint64(1) << 31; bit > 0; bit >>= 1 {
		c := r | bit
		h, l := bits.Mul64(c*c, c*c)
		if h < hi || h == hi && l <= lo {
			r = c
		}
	}
	return r
}

// countAndSample counts a's occupied elements in one read pass and, where
// sample has blocks, writes one element of every block of a into it, at an
// offset the tape draws: sample slot i is input block i's, so the sample's
// writes are sequential and every address the pass touches is public. It
// returns the count and how many of the drawn elements are occupied.
func countAndSample(env *extmem.Env, a, sample extmem.Array) (nOcc, sOcc int64) {
	n, b := a.Len(), a.B()
	name, k := "count-occupied", env.ScanBatchN(1, n)
	var wr *extmem.SeqWriter
	if sample.Len() > 0 {
		name, k = "sample", env.ScanBatchN(2, n)
		wbuf := env.Cache.Buf(env.ScanBatchN(2, sample.Len()) * b)
		defer env.Cache.Free(wbuf)
		wr = extmem.NewSeqWriter(sample, 0, wbuf)
	}
	sp := env.Obs.Start(name)
	defer env.Obs.End(sp)
	var slot []extmem.Element
	env.Scan(a, extmem.Array{}, k, func(lo int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				nOcc++
			}
		}
		for i := 0; wr != nil && i < len(chunk)/b; i++ {
			t := (lo + i) % b
			if t == 0 {
				slot = wr.Next()
				clear(slot)
			}
			if e := chunk[i*b+env.Tape.IntN(b)]; e.Occupied() {
				slot[t] = e
				sOcc++
			}
		}
	})
	if wr != nil {
		wr.Flush()
	}
	return nOcc, sOcc
}

// splittersOf reads the level's q splitters off the sorted sample in one
// scan: the samples of ranks round(i·s/(q+1)), i = 1..q, among its s
// occupied ones, rank 0 standing for −∞.
func splittersOf(env *extmem.Env, sample extmem.Array, sOcc int64, q int) []bound {
	bounds := make([]bound, q)
	ranks := make([]int64, q)
	ri := 0
	for i := range ranks {
		ranks[i] = (2*int64(i+1)*sOcc + int64(q+1)) / int64(2*(q+1))
		if ranks[i] == 0 {
			bounds[i] = bound{neg: true}
			ri++
		}
	}
	var idx int64
	env.Scan(sample, extmem.Array{}, env.ScanBatchN(1, sample.Len()), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			if !chunk[t].Occupied() {
				continue
			}
			idx++
			for ri < q && ranks[ri] == idx {
				bounds[ri] = boundOf(chunk[t])
				ri++
			}
		}
	})
	return bounds
}

// sortPrivate reads every occupied element into the cache, sorts there, and
// writes a tight result of the same geometry.
func sortPrivate(env *extmem.Env, a extmem.Array) extmem.Array {
	n := a.Len()
	out := env.D.Alloc(n)
	all := env.Cache.Buf(env.M / 2)[:0] // the caller counted: at most M/2 occupied
	k := env.ScanBatchN(1, n)
	env.Scan(a, extmem.Array{}, k, func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				all = append(all, e)
			}
		}
	})
	obsort.InCachePar(env, all, obsort.ByKey)
	rest := all
	env.Scan(extmem.Array{}, out, k, func(_ int, chunk []extmem.Element) {
		rest = rest[copy(chunk, rest):]
	})
	env.Cache.Free(all)
	return out
}

// shuffleBlocks applies the block-level Fisher–Yates shuffle of §5: the
// swap sequence comes entirely from the tape, so the adversary learns
// nothing from watching it ("even though Bob can see us perform this
// shuffle, the choices we make do not depend on data values").
//
// Swaps are processed in windows: the window's swap targets are drawn from
// the tape up front, the distinct blocks they touch are fetched with one
// vectored read, the swaps are replayed in order inside the cache, and the
// final contents go back with one vectored write, padded with untouched
// blocks to a fixed count per window. The permutation is identical to the
// scalar loop's for the same tape, and the addresses revealed are a
// deterministic function of the tape alone.
func shuffleBlocks(env *extmem.Env, a extmem.Array) {
	n := a.Len()
	if n < 2 {
		return
	}
	b := a.B()
	w := max(1, min(env.ScanBatch(1)/2, n-1)) // each swap touches at most 2 distinct blocks
	buf := env.Cache.Buf(2 * w * b)
	idx := make([]int, 0, 2*w)     // distinct touched blocks, first-touch order
	slot := make(map[int]int, 2*w) // block index -> slot in buf
	js := make([]int, w)
	for i0 := 0; i0 < n-1; i0 += w {
		cnt := min(w, n-1-i0)
		idx = idx[:0]
		clear(slot)
		touch := func(i int) {
			if _, seen := slot[i]; !seen {
				slot[i] = len(idx)
				idx = append(idx, i)
			}
		}
		for t := 0; t < cnt; t++ {
			i := i0 + t
			j := i + env.Tape.IntN(n-i)
			js[t] = j
			touch(i)
			touch(j)
		}
		// Every touched block lies at or after i0, so padding with the
		// lowest untouched ones makes every window move exactly
		// min(2·cnt, n−i0) blocks, whatever the tape drew: the pass's
		// block I/Os are a function of n and w alone.
		for p := i0 + cnt; len(idx) < min(2*cnt, n-i0); p++ {
			touch(p)
		}
		a.ReadMany(idx, buf[:len(idx)*b])
		for t := 0; t < cnt; t++ {
			si, sj := slot[i0+t], slot[js[t]]
			if si == sj {
				continue
			}
			x, y := buf[si*b:(si+1)*b], buf[sj*b:(sj+1)*b]
			for e := range x {
				x[e], y[e] = y[e], x[e]
			}
		}
		a.WriteMany(idx, buf[:len(idx)*b])
	}
	env.Cache.Free(buf)
}
