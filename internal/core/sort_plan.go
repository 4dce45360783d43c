package core

import (
	"math"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// This file sizes one distributing level of Theorem 21 from its two tails,
// each held to ε = 2^-40: a bucket holding more than its capacity (the
// splitters come from a sample), and a deal batch holding more than its
// quota of one colour (Lemma 18 / Corollary 19). Both are declared
// failures, visible to Bob, so each bound is a leakage bound too.

// sortTail is ln(1/ε) for ε = 2^-40, the bound on each of a level's tails.
const sortTail = 40 * math.Ln2

// sortLevel is the public shape of one distributing level.
type sortLevel struct {
	q     int // splitters; the level has q+1 buckets
	batch int // blocks the deal reads at a time
	quota int // blocks the deal writes per colour per batch
	capE  int // elements a bucket may hold
	capB  int // blocks a bucket may fill: ⌈capE/B⌉, at most a colour array's length
	apLen int // blocks of the consolidated array the shuffle and deal move
}

// sortPlan returns the shape of a distributing level over nBlocks blocks of
// b elements, at most occ of them occupied, with a cache of m elements and
// each tail at most e^-l. A function of public geometry alone.
func sortPlan(nBlocks, b, m int, occ int64, l float64) sortLevel {
	mb := m / b
	q := splitterCount(mb)
	batch := min(max(dealBatch(mb), 1), mb/2)
	apLen := extmem.CeilDiv(nBlocks, q+1)*(q+1) + 2*(q+1)
	batches := extmem.CeilDiv(apLen, batch)
	capE := bucketCap(nBlocks, b, q, occ, l)
	capB := extmem.CeilDiv(capE, b)
	quota := dealQuota(apLen, batch, capB, batches*(q+1), l)
	return sortLevel{q: q, batch: batch, quota: quota, capE: capE, capB: min(capB, batches*quota), apLen: apLen}
}

// SortCost predicts the exact block I/Os and vectored round trips of a Sort
// that succeeds on nBlocks blocks of b elements, nOcc of them occupied,
// entered with m elements of the cache free — all of M, or what a caller
// leaves of it — and batches bounded by the cache alone (no MaxBatch).
// Every level's shape is public geometry — the top level's from nOcc, every
// level below from its bucket's capacity — and every pass moves a fixed
// number of blocks, the shuffle included, so the price is exact. A failed
// Sort stops before the final compaction: its trace is a prefix of this
// one.
func SortCost(nBlocks, b, m, nOcc int) obs.Cost {
	if nBlocks == 0 {
		return obs.Cost{}
	}
	c, resLen := sortLevelCost(nBlocks, b, m, int64(nOcc), 0)
	c = c.Add(route.ConsolidateCompactCost(resLen, b, m))
	// The final scan reads the compacted prefix and writes all of a.
	read := min(nBlocks, resLen)
	return c.Add(obs.Cost{IOs: int64(read + nBlocks), RoundTrips: extmem.ScanRoundTrips(read, b, m, 1) + extmem.ScanRoundTrips(nBlocks, b, m, 1)})
}

// sortLevelCost prices sortPadded at the given depth with m elements of
// cache free at Sort's entry, and returns the length of the result it
// leaves.
func sortLevelCost(n, b, m int, occ int64, depth int) (obs.Cost, int) {
	scan := func(blocks, free, buffers int) obs.Cost { return scanCost(blocks, b, free, buffers) }
	var c obs.Cost
	distributes := n*b > m/2 && !sortsDirectly(n, b, m, depth)
	ns := extmem.CeilDiv(n, b)
	if distributes {
		c = scan(n, m, 2).Add(scan(ns, m, 2))
	} else if depth == 0 {
		c = scan(n, m, 1)
	}
	if occ <= int64(m/2) {
		private := scan(n, m-m/2, 1)
		return c.Add(private).Add(private), n
	}
	if !distributes {
		return c.Add(scan(n, m, 1)).Add(scan(n, m, 1)).Add(obsort.DeterministicCost(n, b, m)), n
	}
	pl := sortPlan(n, b, m, occ, sortTail)
	colours := pl.q + 1
	// The sample's sort and the splitter read-off, then colorize.
	c = c.Add(obsort.DeterministicCost(ns, b, m)).Add(scan(ns, m, 1)).Add(scan(n, m, 1)).Add(scan(n, m, 1))
	// Consolidation, beside its staging.
	held := colours * (2*b - 1)
	c = c.Add(scan(n, m-held, 2)).Add(scan(pl.apLen, m-held, 2))
	// The shuffle: a read and a write of a fixed count per window.
	if w := max(1, min(max(1, m/b-1)/2, pl.apLen-1)); pl.apLen > 1 {
		for i0 := 0; i0 < pl.apLen-1; i0 += w {
			moved := min(2*min(w, pl.apLen-1-i0), pl.apLen-i0)
			c = c.Add(obs.Cost{IOs: 2 * int64(moved), RoundTrips: 2})
		}
	}
	// The deal: a read per batch, then quota blocks per colour, flushed
	// beside the batch.
	batches := extmem.CeilDiv(pl.apLen, pl.batch)
	kq := min(max(1, (m-pl.batch*b)/b-1), pl.quota)
	c = c.Add(obs.Cost{
		IOs:        int64(pl.apLen + batches*colours*pl.quota),
		RoundTrips: int64(batches + batches*colours*extmem.CeilDiv(pl.quota, kq)),
	})
	// Per bucket: compact its colour array, sort the capB prefix a level
	// down, copy the result down.
	sub, subLen := sortLevelCost(pl.capB, b, m, int64(pl.capB*b), depth+1)
	bucket := route.CompactCost(batches*pl.quota, 0, b, m).Add(sub).Add(scan(subLen, m, 1)).Add(scan(subLen, m, 1))
	for range colours {
		c = c.Add(bucket)
	}
	return c, colours * subLen
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
	pl := sortPlan(nBlocks, b, m, occ, sortTail)
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
// bucket is within its capacity.
func dealQuota(apLen, batch, capB, events int, l float64) int {
	top := min(batch, apLen, capB)
	for k := 0; k < top; k++ {
		if dealTail(k, apLen, batch, capB, events) <= -l {
			return k
		}
	}
	return top
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
