package core

import (
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// This file lays out Theorem 21's Sort as a plan — one distributing level,
// then a sort of each bucket where it lands — and sizes the level from its
// two tails, each held to ε = 2^-40: a bucket holding more than its
// capacity (the splitters come from a sample), and a deal batch holding
// more than its quota of one colour (Lemma 18 / Corollary 19). Both are
// declared failures, visible to Bob, so each bound is a leakage bound too.

// sortTail is ln(1/ε) for ε = 2^-40, the bound on each of a level's tails.
const sortTail = 40 * math.Ln2

// sortLevel is the public shape of one distributing level.
type sortLevel struct {
	q     int // splitters; the level has q+1 buckets
	batch int // blocks the deal reads at a time
	quota int // blocks the deal writes per colour per batch
	capE  int // elements a bucket may hold
	capB  int // blocks a bucket may fill: ⌈capE/B⌉, at most a colour array's length
	apLen int // blocks of the consolidated array the deal moves: n and 2(q+1) flush blocks
	win   int // blocks of a window of consolidateShuffle: half the cache its staging leaves, less a block
}

// planAt is the level's shape with the deal batch fixed: q splitters, the
// bucket capacity and the deal quota from their tails.
func planAt(nBlocks, b, m int, occ int64, l float64, batch int) sortLevel {
	q := splitterCount(m / b)
	apLen := nBlocks + 2*(q+1)
	batches := extmem.CeilDiv(apLen, batch)
	capE := bucketCap(nBlocks, b, q, occ, l)
	capB := extmem.CeilDiv(capE, b)
	quota := dealQuota(apLen, batch, capB, batches*(q+1), l)
	staged := (q+1)*(b-1) + b
	win := min(max(1, (m-staged)/(2*b)-1), apLen)
	return sortLevel{q: q, batch: batch, quota: quota, capE: capE, capB: min(capB, batches*quota), apLen: apLen, win: win}
}

// sortKind is how an array sorts: in the cache, where its occupancy fits
// half of it; with Lemma 2's deterministic sort, a bucket in its slot; or
// by distributing, the top level above half the cache.
type sortKind uint8

const (
	kindPrivate sortKind = iota
	kindDirect
	kindDistributes
)

// sortPlan is Theorem 21's Sort laid out from public geometry once the
// count scan has fixed its occupancy: the top level, and how each of its
// buckets sorts. A bucket's occupancy is private, so that choice reads its
// capacity, which every bucket shares. Sort walks the plan and SortCost
// sums it.
type sortPlan struct {
	b, m   int
	kind   sortKind  // the top's: private or distributing
	lv     sortLevel // a distributing top's shape
	sub    sortKind  // its buckets': private or direct
	resLen int       // blocks of the sorted result
	cost   obs.Cost  // the price after the count scan, the buckets' sorts included
	// A distributing level's consolidateShuffle and deal, priced for their
	// spans.
	consolidate, deal obs.Cost
}

// planSort plans a Sort of nBlocks blocks of b elements, occ of them
// occupied, entered with m elements of cache free, each tail of its level
// at most 2^-40.
func planSort(nBlocks, b, m int, occ int64) sortPlan {
	p := sortPlan{b: b, m: m}
	p.plan(nBlocks, occ, sortTail)
	return p
}

// samples reports whether the count scan of a Sort over nBlocks blocks
// draws a sample: wherever the array may not fit half the cache.
func samples(nBlocks, b, m int) bool { return nBlocks*b > m/2 }

// countCost prices the count scan of a Sort over n blocks.
func countCost(n, b, m int) obs.Cost {
	if samples(n, b, m) {
		return scanCost(n, b, m, 2).Add(scanCost(extmem.CeilDiv(n, b), b, m, 2))
	}
	return scanCost(n, b, m, 1)
}

// plan lays out the top over n blocks, at most occ of them occupied, with
// each tail of a distributing level at most e^-l, and its buckets' sorts.
// Its deal batch is priced, not fixed: of the batches from §5's
// ⌊(M/B)^{3/4}⌋ (the paper's) up to M/(2B), the level takes the one with
// the fewest block I/Os, fewer round trips breaking a tie and the smaller
// batch one that remains. A larger batch lowers the quota relative to the
// batch, so the colour arrays every bucket compacts get shorter, but it
// leaves less cache to write the deal from, so it is not always cheaper.
func (p *sortPlan) plan(n int, occ int64, l float64) {
	b, m := p.b, p.m
	p.resLen = n
	if occ <= int64(m/2) {
		p.kind, p.cost = kindPrivate, privateCost(n, b, m)
		return
	}

	paper := min(max(dealBatch(m/b), 1), m/b/2)
	lv := planAt(n, b, m, occ, l, paper)
	// The batch moves only the deal and the buckets; every bucket sorts
	// at the same capacity, which few batches change, so its price is
	// kept from one batch to the next.
	subCap, sortOne := -1, obs.Cost{}
	price := func(at sortLevel) obs.Cost {
		if subCap != at.capB {
			subCap = at.capB
			_, sortOne = bucketSort(at.capB, b, m)
		}
		return dealAndBucketsCost(at, b, m, sortOne)
	}
	least := price(lv)
	for batch := paper + 1; batch <= min(m/b/2, lv.apLen); batch++ {
		at := planAt(n, b, m, occ, l, batch)
		if c := price(at); c.IOs < least.IOs || c.IOs == least.IOs && c.RoundTrips < least.RoundTrips {
			lv, least = at, c
		}
	}
	p.kind, p.lv, p.resLen = kindDistributes, lv, (lv.q+1)*lv.capB
	p.sub, _ = bucketSort(lv.capB, b, m)

	// The sample's sort and the splitter read-off, then the pass to the
	// shuffled consolidated array.
	ns := extmem.CeilDiv(n, b)
	p.consolidate, p.deal = consolidateShuffleCost(n, lv), dealCost(lv, b, m)
	c := obsort.DeterministicCost(ns, b, m).Add(scanCost(ns, b, m, 1)).Add(p.consolidate)
	p.cost = c.Add(least)
}

// consolidateShuffleCost prices consolidateShuffle of a level over n
// blocks: the input read and the apLen output blocks written once, and
// every window after the first reading and writing as many targets as it
// has blocks; a read, then one exchange a window.
func consolidateShuffleCost(n int, lv sortLevel) obs.Cost {
	targets := lv.apLen - lv.win
	return obs.Cost{IOs: int64(n + lv.apLen + 2*targets), RoundTrips: int64(1 + extmem.CeilDiv(lv.apLen, lv.win))}
}

// bucketSort returns how a bucket of capB blocks sorts in its slot, and
// what that costs: privately where it fits half the cache, else with
// Lemma 2's deterministic sort. The paper's alternative, distributing the
// bucket again, is no cheaper in block I/Os at any geometry
// TestSortRecursionNeverPays probes below 2^31 blocks.
func bucketSort(capB, b, m int) (sortKind, obs.Cost) {
	if capB*b <= m/2 {
		return kindPrivate, privateCost(capB, b, m)
	}
	return kindDirect, obsort.DeterministicCost(capB, b, m)
}

// privateCost prices sortPrivate of n blocks: a read into half the cache,
// then a write of the result.
func privateCost(n, b, m int) obs.Cost {
	c := scanCost(n, b, m-m/2, 1)
	return c.Add(c)
}

// SortCost predicts the exact block I/Os and vectored round trips of a Sort
// that succeeds on nBlocks blocks of b elements, nOcc of them occupied,
// entered with m elements of the cache free — all of M, or what a caller
// leaves of it — and batches bounded by the cache alone (no MaxBatch):
// planSort's plan, then the final compaction. The level's shape is public
// geometry — from nOcc, and each bucket's sort from its capacity — and
// every pass moves a fixed number of blocks, the shuffle's padded windows
// included, so the price is exact. A failed Sort stops before the final
// compaction: its trace is a prefix of this one.
func SortCost(nBlocks, b, m, nOcc int) obs.Cost {
	top := planSort(nBlocks, b, m, int64(nOcc))
	c := countCost(nBlocks, b, m).Add(top.cost).Add(route.ConsolidateCompactCost(top.resLen, b, m))
	// The final scan reads the compacted prefix and writes all of a.
	read := min(nBlocks, top.resLen)
	return c.Add(obs.Cost{IOs: int64(read + nBlocks), RoundTrips: extmem.TwoSidedScanRoundTrips(nBlocks, b, m, 1)})
}

// dealAndBucketsCost prices the part of a level its deal batch moves, given
// what sorting one bucket costs (bucketSort): the deal (dealCost) and
// per bucket the compaction of its colour array and the sort.
func dealAndBucketsCost(pl sortLevel, b, m int, sortOne obs.Cost) obs.Cost {
	c := dealCost(pl, b, m)
	bucket := route.CompactCost(extmem.CeilDiv(pl.apLen, pl.batch)*pl.quota, 0, b, m).Add(sortOne)
	for range pl.q + 1 {
		c = c.Add(bucket)
	}
	return c
}

// dealCost prices the deal of a level against m elements of the cache
// free: a read per batch, then every colour's quota in one vectored write,
// split only where the cache beside the batch cannot hold it, each
// batch's last write carrying the next batch's read.
func dealCost(pl sortLevel, b, m int) obs.Cost {
	batches := extmem.CeilDiv(pl.apLen, pl.batch)
	per := (pl.q + 1) * pl.quota
	kw := min(max(1, (m-pl.batch*b)/b-1), per)
	return obs.Cost{IOs: int64(pl.apLen + batches*per), RoundTrips: int64(1 + batches*extmem.CeilDiv(per, kw))}
}

// scanCost prices one side of a scan of n blocks of b elements whose chunks
// ScanBatchN(buffers, n) sizes against free elements of the cache.
func scanCost(n, b, free, buffers int) obs.Cost {
	return obs.Cost{IOs: int64(n), RoundTrips: extmem.ScanRoundTrips(n, b, free, buffers)}
}

// sortFailureBound is the probability that one distributing level over
// nBlocks blocks of b elements, occ of them occupied, with a cache of m
// elements, fails on its own: a bucket over its capacity or a deal batch
// over its quota. Sized from sortTail, each term is at most 2^-40.
func sortFailureBound(nBlocks, b, m int, occ int64) float64 {
	top := planSort(nBlocks, b, m, occ)
	if top.kind != kindDistributes {
		return 0
	}
	pl := top.lv
	return math.Exp(bucketTail(pl.capE, nBlocks, b, pl.q, occ)) +
		math.Exp(dealTail(pl.quota, pl.apLen, pl.batch, pl.capB, extmem.CeilDiv(pl.apLen, pl.batch)*(pl.q+1)))
}

// bucketCap returns the smallest capacity c, in elements, whose bucketTail
// is at most e^-l, or occ where none below it is: no bucket holds more.
func bucketCap(nBlocks, b, q int, occ int64, l float64) int {
	lo, hi := 0, int(occ) // bucketTail(hi) ≤ -l always: a bucket holds at most occ
	for hi-lo > 1 {
		if c := lo + (hi-lo)/2; bucketTail(c, nBlocks, b, q, occ) <= -l {
			hi = c
		} else {
			lo = c
		}
	}
	return hi
}

// bucketTail is the log of the union bound on some bucket of the level
// holding more than c elements. Each bucket holds at most ⌈s/(q+1)⌉ of the
// s ≤ n samples the splitters are ranked among, its closing splitter
// included, so such a bucket's first c elements hold at most
// k = ⌈n/(q+1)⌉ + 1 samples; and a bucket starts either at the first
// element in sorted order or right after a sample (the splitter before it).
// An element is sampled with probability 1/B, independently across blocks
// and exclusively within one, which only thins the lower tail; given that
// element i is sampled, at least c−B+1 of the c elements after it lie
// outside its block and are sampled as before. So by Chernoff's bound and
// a union over the first element and the occ candidate splitters, each
// sampled with probability 1/B,
// P ≤ (1 + occ/B)·exp(−t·D(k/t ‖ 1/B)), t = c−B+1.
func bucketTail(c, nBlocks, b, q int, occ int64) float64 {
	if int64(c) >= occ {
		return math.Inf(-1)
	}
	t := float64(c - b + 1)
	a, p := float64(extmem.CeilDiv(nBlocks, q+1)+1)/t, 1/float64(b)
	if t <= 0 || a >= p {
		return 0
	}
	return math.Log1p(float64(occ)/float64(b)) - t*klBernoulli(a, p)
}

// dealQuota returns the smallest quota whose dealTail is at most e^-l:
// at most the batch, and at most capB, which no colour exceeds while its
// bucket is within its capacity. dealTail falls as the quota rises, and
// is −∞ at that top, so a bisection finds it.
func dealQuota(apLen, batch, capB, events int, l float64) int {
	lo, hi := -1, min(batch, apLen, capB) // dealTail(lo) > -l ≥ dealTail(hi)
	for hi-lo > 1 {
		if k := lo + (hi-lo)/2; dealTail(k, apLen, batch, capB, events) <= -l {
			hi = k
		} else {
			lo = k
		}
	}
	return hi
}

// dealTail is the log of the union bound on one of events (batch, colour)
// pairs holding more than quota blocks. A batch is t = min(batch, apLen)
// blocks of the uniformly shuffled apLen, of which a colour owns at most
// capB while its bucket is within its capacity: a hypergeometric count,
// whose tail Hoeffding bounds by the binomial's, so
// P ≤ events·exp(−t·D((quota+1)/t ‖ capB/apLen)).
func dealTail(quota, apLen, batch, capB, events int) float64 {
	t := min(batch, apLen)
	if quota >= min(t, capB) {
		return math.Inf(-1)
	}
	a, p := float64(quota+1)/float64(t), min(1, float64(capB)/float64(apLen))
	if a <= p {
		return 0
	}
	return math.Log(float64(events)) - float64(t)*klBernoulli(a, p)
}

// klBernoulli is D(a ‖ p), the Kullback–Leibler divergence of Bernoulli(a)
// from Bernoulli(p): the exponent of Chernoff's bound on t independent
// Bernoulli(p) summing to at most a·t (a ≤ p) or at least a·t (a ≥ p).
func klBernoulli(a, p float64) float64 {
	var d float64
	if a > 0 {
		d += a * math.Log(a/p)
	}
	if a < 1 {
		d += (1 - a) * math.Log((1-a)/(1-p))
	}
	return d
}
