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
// by one distributing level, then Lemma 2's deterministic sort of each
// bucket where it lands:
//
//  1. q = (M/B)^{1/4} splitters split the input into q+1 buckets. The scan
//     that counts the input also copies one element of every block, at an
//     offset the tape draws, into a sample of ⌈n/B⌉ blocks; Lemma 2's
//     deterministic sort (obsort.Deterministic) orders the sample and one
//     scan reads the splitters off at ranks round(i·s/(q+1)) of its s
//     occupied elements. A bucket then holds at most its plan's capE
//     elements but for probability 2^-40, and the splitters carry position
//     tie-breaks, so duplicate keys never skew it.
//  2. One pass reads the input once: it colors every element by its
//     bucket, consolidates the blocks into monochromatic full-or-empty
//     ones (§5's multi-way consolidation, one output block per input
//     block), and writes them through a block-level inside-out Fisher–Yates
//     shuffle whose swaps come from the tape, not the data
//     (consolidateShuffle).
//  3. Deal: read a batch of the shuffled blocks, then write a fixed quota
//     of blocks per color, padding with empties, every color's quota in
//     one vectored write; the quota is the least whose overflow tail
//     (Lemma 18 / Corollary 19) is at most 2^-40, and the batch is §5's
//     (M/B)^{3/4} or the larger one, up to M/(2B), with the fewest block
//     I/Os, fewer round trips breaking a tie (sortPlan.plan).
//  4. Each color array is compacted to its first capB = ⌈capE/B⌉ blocks
//     (Theorem 6's butterfly: the dealt blocks are already full-or-empty)
//     straight into its bucket's slot of the result, and sorted there,
//     privately where its capacity fits half the cache, else with Lemma
//     2's deterministic sort: no copy in or out (sortInSlot). The paper
//     distributes each bucket again, down to the cache, for its
//     log_{M/B} bound; priced exactly, that one more level is dearer than
//     the deterministic sort at every geometry TestSortRecursionNeverPays
//     probes below 2^31 blocks, so no bucket distributes. A bucket's
//     occupancy is private, so its sort is chosen on its capacity, laid
//     out once, in a sortPlan, when the count scan has fixed the input's
//     occupancy: the level walks it and SortCost sums it.
//  5. No repair pass. The level fails only by dropping elements — a deal
//     batch over its quota or a bucket over its capacity — so either fails
//     the whole Sort, each held to 2^-40 by the plan. The paper's failure
//     sweep re-sorts failed buckets from their own output, which cannot
//     restore what was dropped; bucket oblivious sort (arXiv:2008.01765)
//     likewise declares failure at a stated tail instead of repairing.
//
// At the benchmark geometry (N = 2^16, B = 8, M = 4 096) Sort is one
// distributing level and a bitonic sort per bucket where it lands (no
// columnsort matrix fits a bucket) — the shape of bucket oblivious sort
// (arXiv:2008.01765). The deal reads 249 blocks a batch and writes 119 of
// each color: 290 779 block I/Os in 567 round trips, SortCost's figure
// (292 549 while bitonic padded each 1 989-block bucket to 2 048). The
// Sort finishes with a tight order-preserving compaction (Theorem 6), so
// the array ends with all occupied elements sorted in a tight prefix.

// ErrSortFailed reports a declared failure: a bucket over its capacity or
// a deal batch over its quota, each at most 2^-40 (sortFailureBound). The
// trace is a prefix of the success trace.
var ErrSortFailed = errors.New("core: oblivious sort failed")

// ErrSortCache reports an array an engine cannot sort in the cache free at
// the call, declared before any I/O: below SortFree for Sort and below two
// blocks for every engine (SortWith).
var ErrSortCache = errors.New("core: too little cache free for the sort")

// Sort sorts the occupied elements of a in place by (Key, Pos): after it
// returns, the occupied elements form a tight sorted prefix and all other
// cells are empty. Occupied elements must have distinct (Key, Pos) pairs
// (give each element its original index as Pos). The trace depends only on
// (len, B, free, N_occupied) and the tape, free being the elements of the
// cache not checked out at the call: the level is sized from it, not from
// M. Below SortFree it returns ErrSortCache with an empty trace.
func Sort(env *extmem.Env, a extmem.Array) error {
	n, b := a.Len(), a.B()
	if n == 0 {
		return nil
	}
	free := env.M - env.Cache.Used()
	if need := SortFree(n, b); free < need {
		return fmt.Errorf("%w: n=%d blocks of B=%d with %d elements of cache free, want %d",
			ErrSortCache, n, b, free, need)
	}
	mark := env.D.Mark()
	defer env.D.Release(mark)
	sample, occ, sOcc := countAndSample(env, a, samples(n, b, free))
	p := planSort(n, b, free, occ)
	return p.sort(env, a, sample, sOcc)
}

// sort runs the plan on a, whose count scan drew sample, sOcc of its
// elements occupied, and compacts the result back into a.
func (p *sortPlan) sort(env *extmem.Env, a, sample extmem.Array, sOcc int64) error {
	res, ok := p.level(env, a, sample, sOcc)
	if !ok {
		return fmt.Errorf("%w: a deal batch or a bucket overflowed", ErrSortFailed)
	}

	// Tight order-preserving compaction (Theorem 6) back into a.
	sp := env.Obs.Start("final-compact")
	defer env.Obs.End(sp)
	cons, _ := route.ConsolidateCompact(env, res, extmem.Element.Occupied)
	env.Scan(cons, a, env.ScanBatchN(1, a.Len()), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			chunk[t].Flags &^= extmem.FlagMarked
			chunk[t].SetCellDest(0)
			chunk[t].SetColor(0)
		}
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

// SortWith sorts a by extmem.Element.Less with the named engine, which
// Engine has resolved. Every engine fails with ErrSortCache before any I/O
// where fewer than two blocks of cache are free at the call. Beyond that only
// "randomized" can fail, with ErrSortFailed, or with ErrSortCache before
// any I/O below SortFree; and "columnsort", with obsort.ErrColumnGeometry
// before any I/O where the array does not fit its size limit in the free
// cache. Any other name panics.
func SortWith(env *extmem.Env, a extmem.Array, engine string) error {
	if free := env.M - env.Cache.Used(); a.Len() > 0 && free < 2*a.B() {
		return fmt.Errorf("%w: %s of n=%d blocks of B=%d needs %d elements of cache free, not %d",
			ErrSortCache, engine, a.Len(), a.B(), 2*a.B(), free)
	}
	switch engine {
	case obsort.EngineRandomized:
		return Sort(env, a)
	case obsort.EngineBitonic:
		obsort.Bitonic(env, a, obsort.ByKey)
	case obsort.EngineColumnsort:
		if _, _, err := obsort.ColumnGeometry(a.Len(), a.B(), env.M-env.Cache.Used()); err != nil {
			return err
		}
		obsort.Columnsort(env, a)
	case obsort.EngineZigzag:
		obsort.Zigzag(env, a, obsort.ByKey)
	default:
		panic(fmt.Sprintf("core: no sort engine %q", engine))
	}
	return nil
}

// level sorts a into a padded result array (occupied ascending, empties
// interspersed region-wise), its count scan having drawn sample, sOcc of
// them occupied. It returns the result array and whether the level
// succeeded; on ok=false the contents are garbage but the trace is
// unchanged. Only a distributing level can fail.
func (p *sortPlan) level(env *extmem.Env, a, sample extmem.Array, sOcc int64) (extmem.Array, bool) {
	n, m := a.Len(), p.m
	if p.kind == kindPrivate {
		return sortPrivate(env, a, env.D.Alloc(n), m), true
	}

	lvl := env.Obs.Start("randomized-level")
	lvl.SetAttrInt("blocks", int64(n))
	defer env.Obs.End(lvl)

	lv, q := p.lv, p.lv.q

	// Step 1: splitters from the sorted sample.
	spq := env.Obs.Start("sample-splitters")
	obsort.Deterministic(env, sample)
	bounds := splittersOf(env, sample, sOcc, q)
	env.Obs.End(spq)

	// Step 2: color, consolidate into monochromatic blocks and shuffle them,
	// in one pass.
	spm := env.Obs.Start("consolidate-shuffle")
	spm.SetPredicted(p.consolidate)
	ap := consolidateShuffle(env, a, bounds, lv)
	env.Obs.End(spm)

	// Step 3: deal into per-color arrays with the plan's per-batch quota.
	spd := env.Obs.Start("deal")
	spd.SetPredicted(p.deal)
	colorArrs, ok := deal(env, ap, q+1, lv.batch, lv.quota)
	env.Obs.End(spd)

	// Step 4: per bucket, compact and sort. A bucket as dealt is full
	// blocks plus one partial flush block among empties, so Theorem 6's
	// butterfly moves it, deterministically, into a prefix of capB blocks.
	// (The paper compacts a bucket loosely, Theorem 8; with q+1 <= 5
	// buckets that output, 5·capB, is as long as the deal's: see
	// docs/ARCHITECTURE.md, Sorter engines.) Bucket i is compacted
	// straight into slot i of the result, blocks [i·capB, i·capB + len),
	// and sorted in its first capB blocks; the next bucket's compaction
	// overwrites the empties past them. The result is the q+1 slots end to
	// end.
	capB, l := lv.capB, colorArrs[0].Len()
	res := env.D.Alloc(q*capB + l)
	for i, arr := range colorArrs {
		spb := env.Obs.Start("bucket")
		spb.SetAttrInt("color", int64(i))
		// An unbalanced split fails the level: never drop the excess silently.
		ok = sortInSlot(env, arr, res.Slice(i*capB, i*capB+l), capB, p.sub, m) && ok
		env.Obs.End(spb)
	}
	return res.Slice(0, (q+1)*capB), ok
}

// sortInSlot sorts one bucket where the level's result keeps it: the dealt
// color array arr is compacted straight into slot, as long as arr, its
// cells read a window at a time (route.CompactInto), and the slot's first
// capB blocks are sorted in place, the way the plan says — privately, or
// with Lemma 2's deterministic sort. It reports whether the bucket fit its
// capacity.
func sortInSlot(env *extmem.Env, arr, slot extmem.Array, capB int, kind sortKind, m int) bool {
	fits := route.CompactInto(env, slot, nil, route.PredOccupied, arr) <= capB
	bucket := slot.Slice(0, capB)
	if kind == kindPrivate {
		sortPrivate(env, bucket, bucket, m)
		return fits
	}
	sp := env.Obs.Start("direct-sort")
	sp.SetAttrInt("blocks", int64(capB))
	obsort.Deterministic(env, bucket)
	env.Obs.End(sp)
	return fits
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
// sampled, writes one element of every block of a, at an offset the tape
// draws, into a sample of ⌈n/B⌉ blocks: sample slot i is input block i's,
// so the sample's writes are sequential and every address the pass
// touches is public. It returns the sample, the count and how many of the
// drawn elements are occupied.
func countAndSample(env *extmem.Env, a extmem.Array, sampled bool) (sample extmem.Array, nOcc, sOcc int64) {
	n, b := a.Len(), a.B()
	name, k := "count-occupied", env.ScanBatchN(1, n)
	var wr *extmem.SeqWriter
	if sampled {
		sample = env.D.Alloc(extmem.CeilDiv(n, b))
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
	return sample, nOcc, sOcc
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

// sortPrivate reads every occupied element of a into the cache, sorts
// there, and writes a tight result to out, of a's length, which may be a
// itself; m elements of cache are free.
func sortPrivate(env *extmem.Env, a, out extmem.Array, m int) extmem.Array {
	all := gatherSorted(env, a, env.Cache.Buf(m/2)) // the caller counted: at most m/2 occupied
	rest := all
	env.Scan(extmem.Array{}, out, env.ScanBatchN(1, out.Len()), func(_ int, chunk []extmem.Element) {
		rest = rest[copy(chunk, rest):]
	})
	env.Cache.Free(all)
	return out
}

// gatherSorted reads every occupied element of a into all, which must
// hold them, in one scan, and sorts them there.
func gatherSorted(env *extmem.Env, a extmem.Array, all []extmem.Element) []extmem.Element {
	all = all[:0]
	env.Scan(a, extmem.Array{}, env.ScanBatchN(1, a.Len()), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				all = append(all, e)
			}
		}
	})
	obsort.InCache(all)
	return all
}
