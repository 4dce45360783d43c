package core

import (
	"errors"
	"fmt"
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/par"
	"oblivext/internal/route"
)

// This file implements §5 / Theorem 21: randomized data-oblivious sorting
// with O((N/B)·log_{M/B}(N/B)) I/Os. One level of the recursion:
//
//  1. q = (M/B)^{1/4} quantiles split the input into q+1 balanced buckets
//     (Quantiles: a sort or q Selects, whichever is cheaper); balance is
//     exact because the splitters carry position tie-breaks, so duplicate
//     keys never skew a bucket.
//  2. A multi-way consolidation pass (§5) rewrites the array into
//     monochromatic full-or-empty blocks.
//  3. Shuffle-and-deal: a block-level Fisher–Yates shuffle (the "shuffle",
//     whose swaps come from the tape, not the data) followed by batched
//     dealing — read (M/B)^{3/4} blocks, then write a fixed quota of blocks
//     per color, padding with empties (Lemma 18 / Corollary 19 bound the
//     overflow probability).
//  4. Each color array is compacted in place to its first N/(q+1) blocks
//     (Theorem 6's butterfly: the dealt blocks are already full-or-empty)
//     and sorted recursively; the recursion's scratch is released and the
//     sorted bucket copied down before the next bucket starts.
//  5. Data-oblivious failure sweeping: whether or not any recursive call
//     failed, the sweep compacts the (possibly empty) set of failed-bucket
//     cells with the butterfly network (Theorem 6), sorts them
//     deterministically (Lemma 2), routes them back with the expansion
//     network, and merges — a fixed trace that repairs up to two failed
//     buckets.
//
// The top-level Sort finishes with a tight order-preserving compaction
// (Theorem 6), so the array ends with all occupied elements sorted in a
// tight prefix.

// ErrSortFailed reports that the top-level pipeline failed beyond what
// failure sweeping could repair (probability 1/(N/B)^d).
var ErrSortFailed = errors.New("core: oblivious sort failed")

// §5's constants.
const (
	// sortDealC is the c of Lemma 18: blocks written per color per deal
	// batch, times ceil(sqrt(M/B)). Where a level has few batches the quota
	// is raised so a color array has room for 4·bucketCap blocks:
	// Corollary 19's margin when the per-batch counts are too small to
	// concentrate.
	sortDealC = 5
	// sortMaxDepth bounds the recursion as a safety net; deeper levels fall
	// back to the deterministic sort.
	sortMaxDepth = 12
)

// Sort sorts the occupied elements of a in place by (Key, Pos): after it
// returns, the occupied elements form a tight sorted prefix and all other
// cells are empty. Occupied elements must have distinct (Key, Pos) pairs
// (give each element its original index as Pos). The trace depends only on
// (len, B, M, N_occupied) and the tape.
func Sort(env *extmem.Env, a extmem.Array) error {
	n := a.Len()
	if n == 0 {
		return nil
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

// RandomizedSorter adapts Sort to the obsort.Sorter interface used by the
// ORAM rebuilds. The less argument must order by the canonical
// occupied-first (Key, Pos) relation — which every rebuild sort does; the
// randomized pipeline's samplers assume that order internally.
func RandomizedSorter(env *extmem.Env, a extmem.Array, less obsort.Less) {
	// The randomized sort is padded (empties sink) and total on (Key, Pos),
	// matching obsort.ByKey semantics.
	_ = less
	if err := Sort(env, a); err != nil {
		panic(err)
	}
}

// sortPadded sorts the occupied elements of a into a padded result array
// (occupied ascending, empties interspersed region-wise). It returns the
// result array and whether this level succeeded; on ok=false the contents
// are garbage but the trace is unchanged.
func sortPadded(env *extmem.Env, a extmem.Array, depth int) (extmem.Array, bool) {
	n := a.Len()
	b := a.B()
	m := env.MBlocks()

	lvl := env.Obs.Start("randomized-level")
	lvl.SetAttrInt("depth", int64(depth))
	lvl.SetAttrInt("blocks", int64(n))
	defer env.Obs.End(lvl)

	// Count occupied elements (public: part of the problem size). Each
	// worker counts a disjoint range into its own slot; the serial sum is
	// order-independent, so the total matches the scalar loop exactly.
	count := env.Obs.Start("count-occupied")
	var nOcc int64
	partial := make([]int64, env.WorkerCount())
	var buf []extmem.Element
	tally := func(wk, plo, phi int) { // built once: a chunk costs no closure
		var c int64
		for _, e := range buf[plo:phi] {
			if e.Occupied() {
				c++
			}
		}
		partial[wk] += c
	}
	env.Scan(a, extmem.Array{}, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		buf = chunk
		par.ForWorker(env.ParWorkers(len(chunk)), len(chunk), tally)
	})
	for _, c := range partial {
		nOcc += c
	}
	env.Obs.End(count)

	q := int(math.Floor(math.Pow(float64(m), 0.25)))
	if int(nOcc) <= env.M/2 {
		return sortPrivate(env, a), true
	}
	if q < 1 || depth >= sortMaxDepth {
		// Tiny-cache or depth-limit fallback: the deterministic oblivious
		// sort of Lemma 2.
		out := env.D.Alloc(n)
		copyArray(env, a, out)
		obsort.Bitonic(env, out, obsort.ByKey)
		return out, true
	}

	ok := true

	// Step 1: quantile splitters.
	spq := env.Obs.Start("quantile-splitters")
	splitters, err := Quantiles(env, a, q)
	env.Obs.End(spq)
	if err != nil {
		ok = false
		splitters = make([]extmem.Element, q) // zero splitters; trace goes on
	}
	bounds := make([]bound, q)
	for i, s := range splitters {
		bounds[i] = boundOf(s)
	}

	// Step 2: color by bucket = 1 + #splitters strictly below the element.
	spc := env.Obs.Start("colorize")
	work := env.D.Alloc(n)
	// Each element's color is a pure function of the element and the
	// private splitter bounds, so the coloring pass fans out freely.
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

	// Step 5: deal into per-color arrays with fixed per-batch quotas.
	bucketCap := extmem.CeilDiv(int(extmem.CeilDiv64(nOcc, int64(q+1))), b) + q + 2
	batch := int(math.Floor(math.Pow(float64(m), 0.75)))
	if batch < 1 {
		batch = 1
	}
	if batch > m/2 {
		batch = m / 2
	}
	batches := extmem.CeilDiv(ap.Len(), batch)
	quota := sortDealC * int(math.Ceil(math.Sqrt(float64(m))))
	if batches*quota < 4*bucketCap {
		quota = extmem.CeilDiv(4*bucketCap, batches)
	}
	spd := env.Obs.Start("deal")
	colorArrs, dealOK := deal(env, ap, q+1, batch, quota)
	env.Obs.End(spd)
	if !dealOK {
		ok = false
	}

	// Step 6: per bucket, compact, recurse, copy down. A bucket as dealt is
	// full blocks plus one partial flush block among empties, so Theorem 6's
	// butterfly moves it, in place and deterministically, into a prefix of
	// bucketCap+2 blocks; the next level's consolidation absorbs the partial
	// block. Everything the recursion allocates is released before its
	// result is copied down to where its scratch began, so res is the span
	// the q+1 copies fill and a level holds O(n) blocks at any time.
	// (The paper compacts a bucket loosely, Theorem 8; with q+1 <= 5 buckets
	// that output, 5·bucketCap, is as long as the deal's: see
	// docs/ARCHITECTURE.md, Sorter engines.)
	resMark := env.D.Mark()
	maxSub := 0
	for i, arr := range colorArrs {
		spb := env.Obs.Start("bucket")
		spb.SetAttrInt("color", int64(i))
		capB := min(bucketCap+2, arr.Len())
		if route.CompactBlocksTight(env, arr, route.PredOccupied, 0) > capB {
			ok = false // an unbalanced split: never drop the excess silently
		}
		mark := env.D.Mark()
		sorted, sok := sortPadded(env, arr.Slice(0, capB), depth+1)
		env.D.Release(mark)
		copyDown(env, sorted, env.D.Alloc(sorted.Len()), !sok)
		maxSub = max(maxSub, sorted.Len())
		env.Obs.End(spb)
	}
	res := env.D.Since(resMark)

	// Step 7: data-oblivious failure sweeping — runs unconditionally.
	spw := env.Obs.Start("sweep-failures")
	swept := sweepFailures(env, res, maxSub)
	env.Obs.End(spw)
	if !swept {
		ok = false
	}
	return res, ok
}

// copyDown copies src onto dst — equal lengths, dst at or below src on the
// disk, the two possibly overlapping — in scan batches, setting FlagFailed
// on exactly the occupied elements when failed and clearing it otherwise.
// Each batch is read whole before it is written and dst never runs ahead of
// src, so no block is overwritten before it has been read.
func copyDown(env *extmem.Env, src, dst extmem.Array, failed bool) {
	n := src.Len()
	if dst.Len() != n || dst.Base() > src.Base() {
		panic("core: copyDown needs equal lengths and dst at or below src")
	}
	var buf []extmem.Element
	stamp := func(plo, phi int) { // built once: a batch costs no closure
		for t := plo; t < phi; t++ {
			if failed && buf[t].Occupied() {
				buf[t].Flags |= extmem.FlagFailed
			} else {
				buf[t].Flags &^= extmem.FlagFailed
			}
		}
	}
	env.Scan(src, dst, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		buf = chunk
		env.ParCells(len(chunk), stamp)
	})
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
// final contents go back with one vectored write. The permutation is
// identical to the scalar loop's for the same tape, and the addresses
// revealed are a deterministic function of the tape alone.
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
		for t := 0; t < cnt; t++ {
			i := i0 + t
			j := i + env.Tape.IntN(n-i)
			js[t] = j
			if _, seen := slot[i]; !seen {
				slot[i] = len(idx)
				idx = append(idx, i)
			}
			if _, seen := slot[j]; !seen {
				slot[j] = len(idx)
				idx = append(idx, j)
			}
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
