// Package obsort provides deterministic data-oblivious sorting in the
// external-memory model.
//
// It realizes Lemma 2 of the paper (the deterministic oblivious sort of
// Goodrich–Mitzenmacher used as a subroutine throughout) as an external
// bitonic sort that packs the network's levels into passes by the block
// address bits they touch, log₂(C/B) bits to a pass for a cache window of C
// elements — the largest power of two of blocks the cache has free when the
// sort starts, all of M when the caller holds nothing — so the I/O cost is
// O((N/B)·(1 + log²(N/B)/log(C/B))) with a fixed, data-independent address
// trace.
// It also provides Leighton's columnsort, fused into three passes for arrays
// within its size limit (columnsort.go), the zigzag engine, and Pick, the
// policy that chooses among the three from public geometry: the strictly
// cheapest by its exact predictor, ties kept by bitonic, then columnsort,
// then zigzag. BucketSort (bucketsort.go) is no engine: no name reaches it.
//
// Sorting here always has padded semantics: occupied elements ascend by
// (Key, Pos) — or a caller-supplied order — and unoccupied cells sink to
// the end, implementing the paper's "+infinity" empty cells.
//
// Under ByKey, Bitonic's and Columnsort's in-cache kernels (the window and
// column sorts, the compare-exchange levels, the merges) compare inline
// with extmem.Element.Less (order.go); any other order is sorted correctly,
// with the same trace, but through a function call per comparison, at two
// to three times the kernels' time (BenchmarkInCacheKernels).
package obsort

import (
	"fmt"
	"math/bits"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Less orders elements. Implementations must be strict weak orderings and
// should sort unoccupied elements after occupied ones when used with padded
// arrays. ByKey itself takes the deterministic engines' inline kernels;
// every other Less, a closure or method value that compares as ByKey does
// included, takes the generic ones, which call it per comparison.
type Less func(a, b extmem.Element) bool

// ByKey is the default order: occupied before empty, then (Key, Pos). Pass
// ByKey itself, not extmem.Element.Less, to take the inline kernels.
func ByKey(a, b extmem.Element) bool { return a.Less(b) }

// ByPos orders occupied elements by their Pos field (original position),
// with empties last — the order-restoration sort of Theorem 4.
func ByPos(a, b extmem.Element) bool {
	ao, bo := a.Occupied(), b.Occupied()
	if ao != bo {
		return ao
	}
	return a.Pos < b.Pos
}

// InCache sorts a private buffer. Computation inside Alice's cache is
// invisible to the adversary, so no circuit is needed; this is the base
// case every external algorithm bottoms out in.
func InCache(buf []extmem.Element, less Less) {
	slices.SortStableFunc(buf, func(x, y extmem.Element) int { return compare(less, x, y) })
}

// compare is less as the three-way comparison the slices package sorts by.
func compare(less Less, x, y extmem.Element) int {
	switch {
	case less(x, y):
		return -1
	case less(y, x):
		return 1
	}
	return 0
}

// Bitonic sorts the array element-wise with a data-oblivious external
// bitonic network. The address trace depends only on (len, B, free), free
// being the elements of the cache not checked out when the call starts.
//
// The network's levels — stage s = 1..log₂ N merges runs of 2^s elements
// with one compare-exchange level per stride bit s−1..0 — are packed into
// passes by the address bits they touch. A level whose stride is below B
// stays inside a block; any other joins two blocks that differ in one bit
// of the block address. A pass takes as many consecutive levels as touch at
// most g = log₂(C/B) distinct address bits, the window C being the largest
// power of two of blocks that fits free, and runs them on batches of the
// 2^g blocks that differ only in those bits: one vectored read, every level
// of the pass on the private window, one vectored write, which carries the
// next batch's read in the same round trip. The first pass (every stage up
// to C, on contiguous windows) is a private sort of each window; the rest
// are gather passes, so the sort makes about log²₂(N/B) / 2g passes of 2
// I/Os per block, each pass one round trip per batch and one more.
//
// The window may be all of M: besides it the sort keeps only the batch's
// block indices — public addresses, like the ORAM's probe addresses, which
// need no private memory — and O(1) loop counters. Sizing it by the free
// cache keeps the trace oblivious: every buffer a caller holds is checked
// out at a size fixed by public geometry, so free is public too.
//
// Requirements: B a power of two, M ≥ 4B and at least two blocks free; with
// fewer free, Bitonic panics naming both. An array whose block count n is
// not a power of two is sorted as if padded with empty cells: the first
// pass reads its n blocks and writes a padded scratch arena, and the last
// pass writes only the first n blocks back (empty cells sort last, so
// nothing is lost).
func Bitonic(env *extmem.Env, a extmem.Array, less Less) { bitonic(env, a, a, less, nil) }

// bitonic is Bitonic of src into a, as long as src and possibly src
// itself: the first pass reads src, handing each window's blocks to first
// when it is not nil, and every pass writes a or the padded arena, never
// src.
func bitonic(env *extmem.Env, src, a extmem.Array, less Less, first func(chunk []extmem.Element)) {
	n := a.Len()
	if src.Len() != n {
		panic(fmt.Sprintf("obsort: bitonic sort of %d blocks into %d", src.Len(), n))
	}
	if n == 0 {
		return
	}
	b := a.B()
	if b&(b-1) != 0 {
		panic(fmt.Sprintf("obsort: block size %d not a power of two", b))
	}
	if env.M < 4*b {
		panic("obsort: Bitonic requires M >= 4B")
	}
	free := env.M - env.Cache.Used()
	if free < 2*b {
		panic(fmt.Sprintf("obsort: Bitonic needs a window of 2 blocks, %d elements, but the cache has %d free (M=%d, used=%d)",
			2*b, free, env.M, env.Cache.Used()))
	}
	sp := env.Obs.Start("bitonic")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetAttrInt("passes", int64(bitonicPassCount(n, b, free)))
	sp.SetPredicted(BitonicCost(n, b, free))
	defer env.Obs.End(sp)
	mark := env.D.Mark()
	defer env.D.Release(mark)

	sc := newSchedule(n, b, free)
	wb := 1 << (sc.lc - sc.lb) // blocks per window, and per batch
	win := env.Cache.Buf(wb * b)
	ord := orderOf(less)
	work := a
	if sc.np != n && sc.np > wb {
		work = env.D.Alloc(sc.np)
	}

	// First pass: every stage up to the window size acts within aligned
	// windows and leaves window w ascending or descending by its parity, so
	// a private sort stands in for those levels. Not an env.Scan: the window
	// is the buffer the gather passes keep, sorted whole, padding included,
	// past the array's end. Each window's write carries the next window's
	// read, into the same buffer: the store takes the write first.
	spw := env.Obs.Start("sort-windows")
	held := func(lo int) extmem.Array { return src.Slice(min(lo, n), min(lo+wb, n)) } // window lo's blocks in src
	cur := held(0)
	cur.ReadRange(0, cur.Len(), win[:cur.Len()*b])
	for lo := 0; lo < sc.np; lo += wb {
		k := cur.Len()
		if k > 0 && first != nil {
			first(win[:k*b])
		}
		clear(win[k*b:])
		ord.sort(win, lo/wb&1 == 1)
		out, part := a, win[:k*b] // one window: the caller's array
		if sc.np > wb {
			out, part = work.Slice(lo, lo+wb), win
		}
		cur = held(lo + wb)
		out.Exchange(part, cur, win[:cur.Len()*b])
	}
	env.Obs.End(spw)

	for p, ok := sc.next(); ok; p, ok = sc.next() {
		spp := env.Obs.Start("gather-pass")
		spp.SetAttrInt("levels", int64(p.levels))
		dst := work
		if sc.stage > sc.top {
			dst = a // the last pass writes the caller's array its n blocks
		}
		sc.run(p, work, dst, win, ord)
		env.Obs.End(spp)
	}
	env.Cache.Free(win)
}

// gatherPass is one pass after the first: `levels` consecutive network
// levels starting at (stage, bit), and gather, the mask of element-index
// bits at or above log₂ B in which the blocks of one batch differ.
type gatherPass struct {
	stage, bit, levels int
	gather             uint64
}

// schedule is the public geometry of one Bitonic call and a cursor over its
// gather passes; the sort and its predictors walk the same one.
type schedule struct {
	np          int // padded block count, a power of two
	lb, lc, top int // log₂ of B, of the window, and of the element count
	stage, bit  int // the next level no pass has taken yet
}

// newSchedule sizes the window to the largest power of two of blocks that
// fits free elements of cache, but at least two blocks, so a pass gathers a
// bit, and at most the padded array.
func newSchedule(nBlocks, b, free int) schedule {
	lnp, lb := extmem.CeilLog2(nBlocks), extmem.FloorLog2(b)
	lc := min(max(extmem.FloorLog2(free), lb+1), lnp+lb)
	return schedule{np: 1 << lnp, lb: lb, lc: lc, top: lnp + lb, stage: lc + 1, bit: lc}
}

// next packs the next pass greedily: levels join while the stride bits at
// or above log₂ B they touch stay within log₂(C/B) distinct address bits. A
// short set is padded with the lowest unused address bits, which keeps the
// batch's blocks in as few consecutive runs as the schedule allows.
func (s *schedule) next() (p gatherPass, ok bool) {
	if s.stage > s.top {
		return p, false
	}
	g := s.lc - s.lb
	p.stage, p.bit = s.stage, s.bit
	for s.stage <= s.top {
		if m := uint64(1) << s.bit; s.bit >= s.lb && p.gather&m == 0 {
			if bits.OnesCount64(p.gather) == g {
				break
			}
			p.gather |= m
		}
		p.levels++
		s.stage, s.bit = nextLevel(s.stage, s.bit)
	}
	for q := s.lb; bits.OnesCount64(p.gather) < g; q++ {
		p.gather |= 1 << q
	}
	return p, true
}

func nextLevel(stage, bit int) (int, int) {
	if bit == 0 {
		return stage + 1, stage
	}
	return stage, bit - 1
}

// local maps element-index bit j to its position in a batch's window: bits
// below log₂ B keep their place, gathered bits follow in ascending order.
func (p gatherPass) local(j, lb int) int {
	if j < lb {
		return j
	}
	return lb + bits.OnesCount64(p.gather&(1<<j-1))
}

// run executes one gather pass: for every assignment of the address bits
// outside the gathered set, read from src the blocks that differ only
// inside it (in ascending address order), apply the pass's levels, and
// write to dst those of them it holds, together with the next batch's
// read. A level of stage s ascends where bit s of the element index is
// clear; that bit is a window bit, a constant of the batch, or — in the
// last stage — clear everywhere. Each exchange is a Batch, a window long
// each way.
func (s *schedule) run(p gatherPass, src, dst extmem.Array, win []extmem.Element, ord order) {
	gb := int(p.gather >> s.lb)
	rest := (s.np - 1) &^ gb
	wb, d := len(win)/dst.B(), dst.Disk()
	read := func(x *extmem.Batch, base int) { // batch base's blocks of src
		for t, sub := 0, 0; t < wb; t++ {
			x.Read(src, base|sub)
			sub = ((sub | ^gb) + 1) & gb
		}
	}
	x := d.Batch(wb)
	read(&x, 0)
	x.Do(nil, win)
	for base := 0; ; {
		stage, bit := p.stage, p.bit
		for k := 0; k < p.levels; k++ {
			dirBit, desc := 0, false
			if stage < s.top {
				if p.gather>>stage&1 == 1 {
					dirBit = 1 << p.local(stage, s.lb)
				} else {
					desc = base>>(stage-s.lb)&1 == 1
				}
			}
			ord.exchangeLevel(win, 1<<p.local(bit, s.lb), dirBit, desc)
			stage, bit = nextLevel(stage, bit)
		}
		// The batch's blocks ascend, so those inside dst are a prefix.
		x = d.Batch(wb)
		for t, sub := 0, 0; t < wb && base|sub < dst.Len(); t++ {
			x.Write(dst, base|sub)
			sub = ((sub | ^gb) + 1) & gb
		}
		base = ((base | ^rest) + 1) & rest
		if base != 0 {
			read(&x, base)
		}
		x.Do(win, win)
		if base == 0 {
			return
		}
	}
}

// exchangeLevel applies one network level to a private window: elements
// stride apart compare-exchange, ascending where the window index has
// dirBit clear (everywhere when dirBit is 0), the whole level reversed when
// desc.
func exchangeLevel(win []extmem.Element, stride, dirBit int, desc bool, less Less) {
	for g := 0; g < len(win); g += 2 * stride {
		for li := g; li < g+stride; li++ {
			if asc := (li&dirBit == 0) != desc; asc == less(win[li+stride], win[li]) {
				win[li], win[li+stride] = win[li+stride], win[li]
			}
		}
	}
}

// bitonicPassCount is the number of full-array passes Bitonic makes: the
// first, windowed pass plus the gather passes of the packed schedule.
func bitonicPassCount(nBlocks, b, free int) int {
	sc := newSchedule(nBlocks, b, free)
	passes := 1
	for _, ok := sc.next(); ok; _, ok = sc.next() {
		passes++
	}
	return passes
}

// BitonicCost predicts the exact block I/Os and vectored round trips of one
// Bitonic call entered with free elements of the cache not checked out:
// every pass moves each batch of C/B blocks of the padded length np in one
// read and one write, less the padding blocks — and the all-padding
// windows — that the first pass does not read and the last, whose batches
// are always contiguous windows, does not write. Each pass takes one round
// trip per batch, each write sharing it with the next batch's read, and
// one more for its last write — which the last pass does not make where
// its last window is all padding.
func BitonicCost(nBlocks, b, free int) obs.Cost {
	if nBlocks == 0 {
		return obs.Cost{}
	}
	sc := newSchedule(nBlocks, b, free)
	wb := 1 << (sc.lc - sc.lb)
	passes := int64(bitonicPassCount(nBlocks, b, free))
	batches := int64(sc.np / wb)
	rt := passes * (batches + 1)
	if passes > 1 && int64(extmem.CeilDiv(nBlocks, wb)) < batches {
		rt--
	}
	return obs.Cost{
		IOs:        passes*int64(2*sc.np) - int64(2*(sc.np-nBlocks)),
		RoundTrips: rt,
	}
}
