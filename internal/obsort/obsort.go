// Package obsort provides deterministic data-oblivious sorting in the
// external-memory model.
//
// It realizes Lemma 2 of the paper (the deterministic oblivious sort of
// Goodrich–Mitzenmacher used as a subroutine throughout) as an external
// bitonic sort in the network's all-ascending form, run over the array's n
// blocks with no padding stored, that packs the levels into passes by the
// block-address vectors they pair across, log₂(C/B) dimensions to a pass
// for a cache window of C elements — the largest power of two of blocks the
// cache has free when the sort starts, all of M when the caller holds
// nothing — so the I/O cost is 2n per pass, O((N/B)·(1 + log²(N/B)/log(C/B)))
// in all, with a fixed, data-independent address trace.
// It also provides Leighton's columnsort, fused into three passes for arrays
// within its size limit (columnsort.go), the zigzag engine, and Pick, the
// policy that chooses among the three from public geometry: the strictly
// cheapest by its exact predictor, ties kept by bitonic, then columnsort,
// then zigzag. BucketSort (bucketsort.go) is no engine: no name reaches it.
//
// Sorting here always has one order, extmem.Element.Less: occupied
// elements ascend by (Key, Pos) and unoccupied cells sink to the end,
// implementing the paper's "+infinity" empty cells. Every in-cache kernel
// (kernels.go) compares with it inline.
package obsort

import (
	"fmt"
	"math/bits"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Order names the order an engine sorts by, and ByKey is its one value:
// Element.Less, occupied before empty, then (Key, Pos). Bitonic, Zigzag,
// BucketSort and emsort.MergeSort take it as an inert argument only
// because the benchmark's layer probe passes it to them.
type Order struct{}

// ByKey is the one Order.
var ByKey Order

// InCache sorts a private buffer by Element.Less, stably. Computation
// inside Alice's cache is invisible to the adversary, so no circuit is
// needed; this is the base case every external algorithm bottoms out in.
func InCache(buf []extmem.Element) { slices.SortStableFunc(buf, cmpLess) }

// cmpLess is Element.Less as the three-way comparison the slices package
// sorts by.
func cmpLess(x, y extmem.Element) int {
	switch {
	case x.Less(y):
		return -1
	case y.Less(x):
		return 1
	}
	return 0
}

// Bitonic sorts the array element-wise with a data-oblivious external
// bitonic network. The address trace depends only on (len, B, free), free
// being the elements of the cache not checked out when the call starts.
//
// The network is the all-ascending ("flip") form: stage s = 1..⌈log₂ N⌉
// merges runs of 2^s elements, opening with a flip level that pairs
// element i with i ⊕ (2^s − 1) and going on with one level per stride bit
// s−2..0, and every comparator puts the minimum at the lower index. The
// cells past the array act as +∞ that no comparator moves, so the network
// runs over the array's n blocks alone: no padding is stored, read or
// written, and every pass costs 2n I/Os.
//
// A level whose pairs lie inside a block needs no address bit; any other
// joins two blocks whose addresses differ by a fixed vector: a unit vector,
// or for a flip level the low block bits all set. A pass takes as many
// consecutive levels as span at most g = log₂(C/B) dimensions over GF(2),
// the window C being the largest power of two of blocks that fits free,
// and runs them on the cosets of that span: one vectored read of the
// coset's blocks below n, every level of the pass on the private window,
// one vectored write, which carries the next coset's read in the same round
// trip. A coset whose least block is past the array is skipped. The first
// pass (every stage up to C, on contiguous windows) is a private sort of
// each window; the rest are gather passes, so the sort makes about
// log²₂(N/B) / 2g passes of 2 I/Os per block.
//
// The window may be all of M: besides it the sort keeps only the pass's
// basis and its prefix sums — block addresses, at most 64 each, in fixed
// arrays — and O(1) loop counters. Sizing it by the free cache keeps the trace oblivious: every
// buffer a caller holds is checked out at a size fixed by public geometry,
// so free is public too.
//
// Requirements: B a power of two, M ≥ 4B and at least two blocks free; with
// fewer free, Bitonic panics naming both. It allocates no disk scratch.
// Its Order argument is inert; it goes with the benchmark's call site
// (benchmark/layers.go) in ROADMAP item 1(a)'s benchmark change.
func Bitonic(env *extmem.Env, a extmem.Array, _ Order) { bitonic(env, a, a, nil) }

// bitonic is Bitonic of src into a, as long as src and possibly src
// itself: the first pass reads src, handing each window's blocks to first
// when it is not nil, and writes a; every later pass works in a.
func bitonic(env *extmem.Env, src, a extmem.Array, first func(chunk []extmem.Element)) {
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

	sc := newSchedule(n, b, free)
	wb := 1 << (sc.lc - sc.lb) // blocks per window, and per batch
	win := env.Cache.Buf(wb * b)

	// First pass: every stage up to the window size acts within aligned
	// windows and leaves each ascending, so a private sort of the blocks a
	// window holds stands in for those levels. Not an env.Scan: the window
	// is the buffer the gather passes keep. Each window's write carries the
	// next window's read, into the same buffer: the store takes the write
	// first.
	spw := env.Obs.Start("sort-windows")
	held := func(lo int) extmem.Array { return src.Slice(min(lo, n), min(lo+wb, n)) } // window lo's blocks in src
	cur := held(0)
	cur.ReadRange(0, cur.Len(), win[:cur.Len()*b])
	for lo := 0; lo < n; lo += wb {
		part := win[:cur.Len()*b]
		if first != nil {
			first(part)
		}
		sortCells(part)
		out := a.Slice(lo, lo+cur.Len())
		cur = held(lo + wb)
		out.Exchange(part, cur, win[:cur.Len()*b])
	}
	env.Obs.End(spw)

	for p, ok := sc.next(); ok; p, ok = sc.next() {
		spp := env.Obs.Start("gather-pass")
		spp.SetAttrInt("levels", int64(p.levels))
		sc.run(p, a, win)
		env.Obs.End(spp)
	}
	env.Cache.Free(win)
}

// gatherPass is one pass after the first: `levels` consecutive network
// levels starting at (stage, bit), and gather, the mask of element-index
// bits at or above log₂ B that are the pivots of the span its cosets are
// taken over (span).
type gatherPass struct {
	stage, bit, levels int
	gather             uint64
}

// schedule is the public geometry of one Bitonic call and a cursor over its
// gather passes; the sort and its predictors walk the same one.
type schedule struct {
	n           int // blocks
	lb, lc, top int // log₂ of B, of the window, and of the element count rounded up to a power of two
	stage, bit  int // the next level no pass has taken yet
}

// newSchedule sizes the window to the largest power of two of blocks that
// fits free elements of cache, but at least two blocks, so a pass gathers a
// dimension, and at most the array rounded up to a power of two.
func newSchedule(nBlocks, b, free int) schedule {
	lnp, lb := extmem.CeilLog2(nBlocks), extmem.FloorLog2(b)
	lc := min(max(extmem.FloorLog2(free), lb+1), lnp+lb)
	return schedule{n: nBlocks, lb: lb, lc: lc, top: lnp + lb, stage: lc + 1, bit: lc}
}

// next packs the next pass greedily: levels join while the block-address
// vectors they pair across span at most g = log₂(C/B) dimensions over
// GF(2). A level of stride bit j pairs across a vector whose highest bit
// is j − log₂ B: the unit vector, or for a stage's flip level the low bits
// all set. Consecutive levels' vectors span exactly as many dimensions as
// they have distinct highest bits — a flip and the levels after it up to
// the unit vector of the flip's highest bit sum to that unit vector — so
// the span is counted by those bits, and they are its pivots. A short span
// is padded with the unit vectors of the lowest bits that are no pivot,
// which keeps a coset's blocks in as few consecutive runs as the schedule
// allows.
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

// echelon is a span of block-address vectors in reduced echelon form:
// basis[q], for every bit q of pivots, is the one vector of the span whose
// highest bit is q and that is clear at every other pivot.
type echelon struct {
	pivots uint64
	basis  [64]int
}

// reduce returns v less its part in the span: 0 where the span holds v,
// otherwise a vector clear at every pivot.
func (e *echelon) reduce(v int) int {
	for ps := e.pivots & uint64(v); ps != 0; ps &= ps - 1 {
		v ^= e.basis[bits.TrailingZeros64(ps)]
	}
	return v
}

// add puts v into the span, keeping the basis reduced.
func (e *echelon) add(v int) {
	if v = e.reduce(v); v == 0 {
		return
	}
	t := bits.Len(uint(v)) - 1
	for ps := e.pivots; ps != 0; ps &= ps - 1 {
		if q := bits.TrailingZeros64(ps); e.basis[q]>>t&1 == 1 {
			e.basis[q] ^= v
		}
	}
	e.basis[t] = v
	e.pivots |= 1 << t
}

// span returns the span a pass's cosets are taken over: its levels'
// block-address vectors and the unit vectors of the padding bits. Its
// pivots are the gathered bits; span panics otherwise.
func (s *schedule) span(p gatherPass) (e echelon) {
	stage, bit := p.stage, p.bit
	for range p.levels {
		switch {
		case bit == stage-1: // the flip level: every block bit below stage − log₂ B
			e.add(1<<max(stage-s.lb, 0) - 1)
		case bit >= s.lb:
			e.add(1 << (bit - s.lb))
		}
		stage, bit = nextLevel(stage, bit)
	}
	gather := p.gather >> s.lb
	for ps := gather &^ e.pivots; ps != 0; ps &= ps - 1 {
		e.add(1 << bits.TrailingZeros64(ps))
	}
	if e.pivots != gather {
		panic(fmt.Sprintf("obsort: pass from stage %d spans pivots %#x, not the gathered %#x", p.stage, e.pivots, gather))
	}
	return e
}

// run executes one gather pass in a. A coset of the pass's span has its
// least block at the base clear at every pivot, and its blocks are base ⊕
// Σ t_k·basis[k-th pivot] for window slots t = 0..C/B−1, ascending with t:
// a level that pairs blocks across a unit vector pairs slots across one
// bit, a flip level across all slot bits below its pivot, the lower slot
// always the lower block. The blocks below n are a prefix of the window,
// and the bases ascend, so the cosets with a block below n are a prefix
// too: the pass reads each such coset's blocks below n, applies its levels
// to them with the cells past them as +∞, and writes them back with the
// next coset's read. Each exchange is a Batch, a window long each way.
func (s *schedule) run(p gatherPass, a extmem.Array, win []extmem.Element) {
	b, d := a.B(), a.Disk()
	wb := len(win) / b
	e := s.span(p)
	// step[c] is the XOR of the c+1 lowest basis vectors: slot t+1's block
	// is slot t's XOR step[trailing zeros of t+1].
	var step [64]int
	for ps, acc, c := e.pivots, 0, 0; ps != 0; ps, c = ps&(ps-1), c+1 {
		acc ^= e.basis[bits.TrailingZeros64(ps)]
		step[c] = acc
	}
	rest := (1<<(s.top-s.lb) - 1) &^ int(e.pivots)
	add := func(x *extmem.Batch, write bool, base int) int { // coset base's blocks below n
		k := 0
		for blk := base; k < wb && blk < s.n; k++ {
			if write {
				x.Write(a, blk)
			} else {
				x.Read(a, blk)
			}
			blk ^= step[bits.TrailingZeros(uint(k+1))]
		}
		return k
	}
	x := d.Batch(wb)
	k := add(&x, false, 0)
	x.Do(nil, win)
	for base := 0; ; {
		w := win[:k*b]
		stage, bit := p.stage, p.bit
		for range p.levels {
			if bit == stage-1 {
				flipLevel(w, 1<<p.local(bit, s.lb))
			} else {
				exchangeLevel(w, 1<<p.local(bit, s.lb))
			}
			stage, bit = nextLevel(stage, bit)
		}
		x = d.Batch(wb)
		add(&x, true, base)
		if base = ((base | ^rest) + 1) & rest; base >= s.n {
			base = 0
		}
		k = 0
		if base != 0 {
			k = add(&x, false, base)
		}
		x.Do(w, win)
		if base == 0 {
			return
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
// every pass reads and writes each of the n blocks once. The first pass
// takes one round trip per window of C/B blocks and one more; a gather pass
// one per coset whose least block is below n and one more, each write
// sharing its round trip with the next read. The cosets are counted from
// the pass's pivots in O(log n) steps (cosetsBelow), so the price of a sort
// of 2^32 blocks takes microseconds.
func BitonicCost(nBlocks, b, free int) obs.Cost {
	if nBlocks == 0 {
		return obs.Cost{}
	}
	sc := newSchedule(nBlocks, b, free)
	passes := int64(1)
	rt := int64(extmem.CeilDiv(nBlocks, 1<<(sc.lc-sc.lb))) + 1
	for p, ok := sc.next(); ok; p, ok = sc.next() {
		passes++
		rt += int64(cosetsBelow(nBlocks, p.gather>>sc.lb)) + 1
	}
	return obs.Cost{IOs: 2 * passes * int64(nBlocks), RoundTrips: rt}
}

// cosetsBelow counts the blocks x < n clear at every pivot, the least
// blocks of the cosets a pass reads: for each set bit i of n, those that
// agree with n above i and clear bit i, free at the bits below i that are
// no pivot — until n itself sets a pivot, past which none agrees with it.
func cosetsBelow(n int, pivots uint64) int {
	c := 0
	for i := bits.Len(uint(n)) - 1; i >= 0; i-- {
		if n>>i&1 == 0 {
			continue
		}
		c += 1 << (i - bits.OnesCount64(pivots&(1<<i-1)))
		if pivots>>i&1 == 1 {
			break
		}
	}
	return c
}
