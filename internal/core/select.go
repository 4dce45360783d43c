package core

import (
	"errors"
	"fmt"
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// This file implements Theorems 12 and 13, data-oblivious selection of the
// k-th smallest element, as sample, bracket, compact, finish: one read-only
// scan draws a Bernoulli sample straight into private memory, two sample
// ranks bracket the target in a range [x, y], one consolidating tight
// compaction moves the range into a prefix a fixed factor shorter, and
// the same step narrows that prefix until it fits the cache, or until
// sorting what is left is no dearer than narrowing it. The walk is one
// SelectPlan, laid out before any I/O from (n, B, M): SelectWith runs it
// and SelectCost reads its price. The paper's rate N^{-1/2} and range
// bound N^{7/8} (which is N itself below N = 2^24) state the asymptotics;
// selectPlan derives both from Chernoff bounds at the actual (N, B, M).
// Selection is over the total order (Key, Pos) on occupied elements: ties
// break by original position, so ranks are well defined.

// ErrSelectFailed reports a rank out of range or one of a level's four
// low-probability tails: sample overflow, either bracket end beyond the
// target, range overflow. Select stops at the failed check, so the trace is
// a prefix of the success trace.
var ErrSelectFailed = errors.New("core: selection failed")

// bound is ±infinity-capable comparison bound over (Key, Pos).
type bound struct {
	key, pos  uint64
	neg, pos2 bool // neg: -inf; pos2: +inf
}

func (bd bound) lessElem(e extmem.Element) bool { // bd < e
	if bd.neg || bd.pos2 {
		return bd.neg
	}
	if bd.key != e.Key {
		return bd.key < e.Key
	}
	return bd.pos < e.Pos
}

func (bd bound) greaterElem(e extmem.Element) bool { // bd > e
	if bd.neg || bd.pos2 {
		return bd.pos2
	}
	if bd.key != e.Key {
		return bd.key > e.Key
	}
	return bd.pos > e.Pos
}

func boundOf(e extmem.Element) bound { return bound{key: e.Key, pos: e.Pos} }

// selectLevel is the public shape of one narrowing level.
type selectLevel struct {
	blocks int     // blocks of the level's array
	p      float64 // sampling probability of every cell slot
	slack  float64 // L in the bracket ranks k·p − √(2Lkp) and k·p + √(2Lkp) + L
	next   int     // blocks of the prefix the bracketed range is compacted into
}

// selectPlan returns the level that narrows an array of the given public
// geometry, or false where the M/2-element sample is too small to shrink it
// to three quarters. With μ = p·blocks·B the expected sample of a full
// array, the Chernoff bounds P[X ≤ μ−t] ≤ exp(−t²/2μ) and P[X ≥ μ+t] ≤
// exp(−t²/(2μ+2t/3)) give, each but for probability ε: the sample fits M/2
// when μ + √(2Lμ) + L ≤ M/2; the bracket ranks, at most d = 2√(2Lμ) + L + 2
// apart, enclose the target; and the range between two samples d ranks
// apart, a sum of d geometric gaps, holds at most ν/p elements when
// ν − √(2Lν) ≥ d. The shrink factor ν/μ depends on M alone: 0.51 at
// M = 4096, 0.33 at 8192, above 3/4 below M ≈ 2300.
func selectPlan(blocks, b, m int) (selectLevel, bool) {
	const l = 40 * math.Ln2 // L = ln(1/ε) for ε = 2^-40, the bound on each tail
	s := float64(m / 2)
	if s <= l {
		return selectLevel{}, false
	}
	r := (math.Sqrt(2*l+4*(s-l)) - math.Sqrt(2*l)) / 2
	mu := r * r
	d := 2*math.Sqrt(2*l*mu) + l + 2
	r = (math.Sqrt(2*l) + math.Sqrt(2*l+4*d)) / 2
	nu := r * r
	p := mu / float64(blocks*b)
	next := extmem.CeilDiv(int(math.Ceil(nu/p))+1, b)
	return selectLevel{blocks: blocks, p: p, slack: l, next: next}, 4*next <= 3*blocks
}

// selectMaxLevels bounds the levels a Select narrows through: each keeps
// at most three quarters of the blocks before it (selectPlan), and
// (4/3)^152 > 2^63.
const selectMaxLevels = 152

// SelectPlan is the public shape of a Select over an array of given
// geometry, built from (n, B, M) alone: the levels it narrows through, how
// the walk ends — Lemma 2's sort of the last prefix with the ranks read off
// its last pass, or one scan of a prefix that fits M/2 — and its price.
// SelectWith walks it and SelectCost reads its price.
type SelectPlan struct {
	levels [selectMaxLevels]selectLevel
	narrow int  // levels[:narrow] run
	tail   bool // the walk ends in the sort tail
	cost   obs.Cost
}

// PlanSelect plans Select on nBlocks blocks of b elements with a cache of
// m, entered with the whole cache free and batches bounded by the cache
// alone (no MaxBatch).
func PlanSelect(nBlocks, b, m int) SelectPlan {
	return planSelect(nBlocks, b, m, func(s int, _ bool) obs.Cost { return obsort.DeterministicVisitCost(s, b, m) })
}

// planSelect lays out Select from the caller's array of n blocks with the
// sort tail over s blocks priced tail(s, top), top: s is the caller's
// array. The levels are found top-down, as far as selectPlan narrows and
// the prefix does not fit M/2; the walk is decided bottom-up: a level takes
// the sort tail wherever it is no dearer, in block I/Os and in round
// trips, than narrowing — the level's sample scan and consolidating
// butterfly compaction, then the walk from the prefix left — and wherever
// selectPlan cannot narrow it. A prefix that fits M/2 is one scan beside
// the M/2-element buffer.
func planSelect(n, b, m int, tail func(s int, top bool) obs.Cost) SelectPlan {
	var p SelectPlan
	s := n
	for s*b > m/2 {
		lv, ok := selectPlan(s, b, m)
		if !ok {
			break
		}
		p.levels[p.narrow] = lv
		p.narrow++
		s = lv.next
	}
	p.tail = s*b > m/2
	if p.cost = scanCost(s, b, m-m/2, 1); p.tail {
		p.cost = tail(s, p.narrow == 0)
	}
	for i := p.narrow - 1; i >= 0; i-- {
		s := p.levels[i].blocks
		narrow := scanCost(s, b, m-m/2, 1).Add(route.ConsolidateCompactCost(s, b, m)).Add(p.cost)
		if sorted := tail(s, i == 0); sorted.IOs <= narrow.IOs && sorted.RoundTrips <= narrow.RoundTrips {
			p.narrow, p.tail, p.cost = i, true, sorted
		} else {
			p.cost = narrow
		}
	}
	return p
}

// Cost is the exact block I/Os and vectored round trips of the plan's
// Select.
func (p SelectPlan) Cost() obs.Cost { return p.cost }

// Select returns the k-th smallest of the N occupied elements of a, for
// 1 <= k <= N, in O(n) I/Os, without modifying a. Every array length, batch
// size and path choice is a function of (n, B, M), never of k or N, so the
// trace is data-oblivious; l levels fail with probability at most 4·l·2^-40.
func Select(env *extmem.Env, a extmem.Array, k int64) (extmem.Element, error) {
	return SelectWith(env, a, k, PlanSelect(a.Len(), a.B(), env.M))
}

// SelectWith is Select walking p, PlanSelect's plan for a's geometry.
func SelectWith(env *extmem.Env, a extmem.Array, k int64, p SelectPlan) (extmem.Element, error) {
	mark := env.D.Mark()
	defer env.D.Release(mark)
	cur := a
	for _, lv := range p.levels[:p.narrow] {
		x, y, err := selectBracket(env, cur, k, lv)
		if err != nil {
			return extmem.Element{}, err
		}
		// The butterfly's first pass keeps x <= e <= y as it reads cur and
		// counts rank(x) on the side.
		var below int64
		cons, inRange := route.ConsolidateCompact(env, cur, func(e extmem.Element) bool {
			if !e.Occupied() {
				return false
			}
			if x.greaterElem(e) {
				below++
				return false
			}
			return !y.lessElem(e)
		})
		target := k - below
		if target < 1 || target > inRange {
			return extmem.Element{}, fmt.Errorf("%w: bracket missed the target (rank(x)=%d, in-range=%d, k=%d)", ErrSelectFailed, below, inRange, k)
		}
		if inRange > int64(lv.next*a.B()) {
			return extmem.Element{}, fmt.Errorf("%w: range size %d exceeds %d", ErrSelectFailed, inRange, lv.next*a.B())
		}
		cur, k = cons.Slice(0, lv.next), target
	}
	if !p.tail {
		return selectInCache(env, cur, int(k))
	}
	// The sort tail: sort cur — into scratch where it is the caller's
	// array — and read rank k off the sort's last pass.
	dst := cur
	if p.narrow == 0 {
		dst = env.D.Alloc(cur.Len())
	}
	out, err := sortRanks(env, cur, dst, []int64{k}, nil, nil)
	if err != nil {
		return extmem.Element{}, fmt.Errorf("%w: rank %d out of range", ErrSelectFailed, k)
	}
	return out[0], nil
}

// selectBracket scans cur once, keeping each occupied element with
// probability lv.p in a private buffer of M/2 elements (one coin per cell
// slot, so the tape is consumed data-independently), and returns the sample
// elements at the two ranks that bracket rank k, infinite where a rank is
// off the sample.
func selectBracket(env *extmem.Env, cur extmem.Array, k int64, lv selectLevel) (x, y bound, err error) {
	sample := env.Cache.Buf(env.M / 2)[:0]
	defer env.Cache.Free(sample)
	var total, sampled int64
	env.Scan(cur, extmem.Array{}, env.ScanBatchN(1, cur.Len()), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			coin := env.Tape.CoinP(lv.p)
			if !e.Occupied() {
				continue
			}
			total++
			if coin {
				sampled++
				if len(sample) < cap(sample) {
					sample = append(sample, e)
				}
			}
		}
	})
	if k < 1 || k > total {
		return x, y, fmt.Errorf("%w: rank %d out of range [1,%d]", ErrSelectFailed, k, total)
	}
	if sampled > int64(cap(sample)) {
		return x, y, fmt.Errorf("%w: sample size %d exceeds %d", ErrSelectFailed, sampled, cap(sample))
	}
	obsort.InCache(sample, obsort.ByKey)
	mu := float64(k) * lv.p
	dev := math.Sqrt(2 * lv.slack * mu)
	x, y = bound{neg: true}, bound{pos2: true}
	if rx := min(int(math.Floor(mu-dev)), len(sample)); rx >= 1 {
		x = boundOf(sample[rx-1])
	}
	if ry := int(math.Ceil(mu + dev + lv.slack)); ry <= len(sample) {
		y = boundOf(sample[ry-1])
	}
	return x, y, nil
}

// selectInCache reads every occupied element of a, at most M/2 cells, into
// private memory and picks the k-th there; the trace is a single scan.
func selectInCache(env *extmem.Env, a extmem.Array, k int) (extmem.Element, error) {
	all := gatherSorted(env, a, env.Cache.Buf(env.M/2))
	defer env.Cache.Free(all)
	if k < 1 || k > len(all) {
		return extmem.Element{}, fmt.Errorf("%w: rank %d of %d", ErrSelectFailed, k, len(all))
	}
	return all[k-1], nil
}

// SelectCost predicts the exact block I/Os and vectored round trips of
// Select on nBlocks blocks of b elements with a cache of m, entered with
// the whole cache free and batches bounded by the cache alone (no
// MaxBatch): PlanSelect's price.
func SelectCost(nBlocks, b, m int) obs.Cost { return PlanSelect(nBlocks, b, m).Cost() }
