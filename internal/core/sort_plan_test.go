package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
)

// TestSortPlanRows pins a distributing level's shape where the benchmark
// measures it — sort_mem at full size (N = 2^16, B = 8, M = 4 096) and at
// -quick (N = 2^10, M = 512) — and at a B = 64 row: the deal
// batch its price picks (249, 27 and 27 blocks, against the paper's 107, 22
// and 22), the bucket capacity and the deal quota the two 2^-40 tails give
// at that batch, and the level's stated failure bound, at most 2·2^-40.
func TestSortPlanRows(t *testing.T) {
	for _, c := range []struct {
		n, b, m int
		want    sortLevel
	}{
		{8192, 8, 4096, sortLevel{q: 4, batch: 249, quota: 119, capE: 15912, capB: 1989, apLen: 8202, win: 252}},
		{128, 8, 512, sortLevel{q: 2, batch: 27, quota: 27, capE: 937, capB: 118, apLen: 134, win: 29}},
		{1100, 64, 4096, sortLevel{q: 2, batch: 27, quota: 27, capE: 35288, capB: 552, apLen: 1106, win: 29}},
	} {
		occ := int64(c.n * c.b)
		if got := planSort(c.n, c.b, c.m, occ).lv; got != c.want {
			t.Errorf("(%d, %d, %d): plan %+v, want %+v", c.n, c.b, c.m, got, c.want)
		}
		if p := sortFailureBound(c.n, c.b, c.m, occ); p > 2*math.Exp(-sortTail) {
			t.Errorf("(%d, %d, %d): failure bound %.3g > 2·2^-40", c.n, c.b, c.m, p)
		}
		// Each is the least that meets its tail: one element or one block
		// fewer does not.
		pl := c.want
		events := extmem.CeilDiv(pl.apLen, pl.batch) * (pl.q + 1)
		if bucketTail(pl.capE-1, c.n, c.b, pl.q, occ) <= -sortTail {
			t.Errorf("(%d, %d, %d): capacity %d is not the least", c.n, c.b, c.m, pl.capE)
		}
		if pl.quota < pl.batch && dealTail(pl.quota-1, pl.apLen, pl.batch, pl.capB, events) <= -sortTail {
			t.Errorf("(%d, %d, %d): quota %d is not the least", c.n, c.b, c.m, pl.quota)
		}
	}
}

// TestDealBatchNoDearerThanPaper: over a grid of geometries whose top
// level distributes, the deal batch planSort prices is never dearer than
// §5's ⌊(M/B)^{3/4}⌋ in block I/Os, and no batch from there up to M/(2B)
// takes fewer block I/Os, nor as few in fewer round trips. The batch moves
// only the deal and the buckets' compactions (dealAndBucketsCost, with each
// bucket's sort, bucketSort's price, which TestPredictorsExact
// measures as part of SortCost); everything else a level does is the same
// at every batch. The grid must hold rows where a larger batch is cheaper
// and rows where the paper's stays: M/(2B) is not always the better end.
func TestDealBatchNoDearerThanPaper(t *testing.T) {
	moved, kept := 0, 0
	for _, b := range []int{4, 8, 64} {
		for _, mb := range []int{8, 16, 32, 64, 128, 512, 1024, 4096} {
			m := mb * b
			for _, n := range []int{mb, 3 * mb, 1000, 8192, 1 << 16} {
				occ := int64(n * b)
				if n > 64*mb {
					continue
				}
				tree := planSort(n, b, m, occ)
				if tree.kind != kindDistributes {
					continue
				}
				pl := tree.lv
				paper := planAt(n, b, m, occ, sortTail, min(max(dealBatch(mb), 1), mb/2))
				price := func(at sortLevel) obs.Cost {
					_, sortOne := bucketSort(at.capB, b, m)
					return dealAndBucketsCost(at, b, m, sortOne)
				}
				got, ref := price(pl), price(paper)
				if got.IOs > ref.IOs {
					t.Errorf("n=%d B=%d M=%d: batch %d costs %+v, the paper's %d %+v", n, b, m, pl.batch, got, paper.batch, ref)
				}
				for batch := paper.batch + 1; batch <= min(mb/2, paper.apLen); batch++ {
					at := planAt(n, b, m, occ, sortTail, batch)
					if c := price(at); c.IOs < got.IOs || c.IOs == got.IOs && c.RoundTrips < got.RoundTrips {
						t.Errorf("n=%d B=%d M=%d: batch %d costs %+v, the plan's %d %+v", n, b, m, batch, c, pl.batch, got)
					}
				}
				if pl.batch == paper.batch {
					kept++
				} else {
					moved++
				}
			}
		}
	}
	t.Logf("%d rows took a larger batch, %d kept the paper's", moved, kept)
	if moved == 0 || kept == 0 {
		t.Errorf("%d rows took a larger batch and %d kept the paper's: the grid must show both", moved, kept)
	}
}

// TestSortTailsMonteCarlo checks the shape of both tails by running the
// level's own code at a loosened target, ε = 2^-4, where the plan's
// capacity and quota are small enough for overflows to be counted: the
// sample scan, its sort and the splitter read-off against the bucket
// capacity, and the pass that colours, consolidates and shuffles, then the
// deal, with every colour owning its full capacity, against the quota. Each observed rate must stay under its
// stated bound; at the mean instead of the plan's figure both overflow
// often, so the harness can see an overflow at all.
func TestSortTailsMonteCarlo(t *testing.T) {
	const n, b, m, trials = 256, 8, 512, 400
	occ := int64(n * b)
	l := 4 * math.Ln2
	tree := sortPlan{b: b, m: m}
	tree.plan(n, occ, l)
	pl := tree.lv
	events := extmem.CeilDiv(pl.apLen, pl.batch) * (pl.q + 1)
	r := rand.New(rand.NewPCG(21, 38))

	bucketOver := func(capE int, seed uint64) bool {
		env := newTestEnv(2*n, b, m, seed)
		a := env.D.Alloc(n)
		keys := make([]uint64, n*b)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		buildKeyArray(a, keys)
		sample, _, sOcc := countAndSample(env, a, true)
		obsort.Bitonic(env, sample, obsort.ByKey)
		bounds := splittersOf(env, sample, sOcc, pl.q)
		size := make([]int, pl.q+1)
		for _, e := range readElems(a) {
			c := 0
			for _, bd := range bounds {
				if bd.lessElem(e) {
					c++
				}
			}
			size[c]++
		}
		return slices.Max(size) > capE
	}
	// The level's input, colour-sorted: colour c+1 owns the capB blocks
	// keyed from c·capB, as far as the n blocks reach, by the splitters
	// below, and consolidateShuffle colours and shuffles them.
	splitters := make([]bound, pl.q)
	for j := range splitters {
		splitters[j] = bound{key: uint64((j+1)*pl.capB - 1), pos: math.MaxUint64}
	}
	dealOver := func(quota int, seed uint64) bool {
		env := newTestEnv(8*n, b, m, seed)
		a := env.D.Alloc(n)
		blk := make([]extmem.Element, b)
		for i := range n {
			clear(blk)
			if i/pl.capB <= pl.q {
				for j := range blk {
					blk[j] = extmem.Element{Key: uint64(i), Pos: uint64(i*b + j), Flags: extmem.FlagOccupied}
				}
			}
			a.Write(i, blk)
		}
		ap := consolidateShuffle(env, a, splitters, pl)
		_, ok := deal(env, ap, pl.q+1, pl.batch, quota)
		return !ok
	}

	mean := int(occ) / (pl.q + 1)
	meanQuota := pl.batch * pl.capB / pl.apLen
	var overCap, overMean, overQuota, overMeanQuota int
	for i := range trials {
		seed := uint64(1000 + i)
		if bucketOver(pl.capE, seed) {
			overCap++
		}
		if bucketOver(mean, seed) {
			overMean++
		}
		if dealOver(pl.quota, seed) {
			overQuota++
		}
		if dealOver(meanQuota, seed) {
			overMeanQuota++
		}
	}
	bucketBound := math.Exp(bucketTail(pl.capE, n, b, pl.q, occ))
	dealBound := math.Exp(dealTail(pl.quota, pl.apLen, pl.batch, pl.capB, events))
	t.Logf("ε = 2^-4: capacity %d (mean %d), quota %d (mean %d); overflow rates %d/%d (bound %.3f), %d/%d (bound %.3f); at the means %d and %d",
		pl.capE, mean, pl.quota, meanQuota, overCap, trials, bucketBound, overQuota, trials, dealBound, overMean, overMeanQuota)
	if bucketBound > 1.0/16 || dealBound > 1.0/16 {
		t.Fatalf("plan misses its own target: bounds %.3f and %.3f > 2^-4", bucketBound, dealBound)
	}
	if float64(overCap)/trials > bucketBound || float64(overQuota)/trials > dealBound {
		t.Errorf("observed overflow rates %d/%d and %d/%d exceed the stated bounds %.3f and %.3f", overCap, trials, overQuota, trials, bucketBound, dealBound)
	}
	if overMean < trials/4 || overMeanQuota < trials/4 {
		t.Errorf("at the means only %d and %d of %d trials overflowed: the harness cannot see an overflow", overMean, overMeanQuota, trials)
	}
}

// TestSortRecursionNeverPays: the paper's Theorem 21 distributes every
// bucket again, down to the cache, where Sort sorts it with Lemma 2's
// deterministic sort (bucketSort). One more level on a bucket of capB
// blocks costs its count scan, planSort's price of a level over it (its
// own buckets sorted directly), and the copy of that level's result down
// to where its scratch began, 2·resLen I/Os. Over B ∈ {2, 8, 64, 512},
// M/B ∈ {16, 512, 4 096} and Sorts of 2^8 to 2^30 blocks, every other
// power, one more level on the top's bucket is never cheaper in block I/Os
// than obsort.DeterministicCost. The boundary row shows where it does pay:
// at B = 64, M = 2^21 and 2^31 blocks, one more level on the
// 153 513 635-block bucket costs 6 253 511 968 I/Os against the
// deterministic sort's 6 447 572 670. Below that the paper's recursion
// would only add I/Os.
func TestSortRecursionNeverPays(t *testing.T) {
	oneMore := func(capB, b, m int) (more, direct int64) {
		sub := planSort(capB, b, m, int64(capB*b))
		if sub.kind != kindDistributes {
			t.Fatalf("a level over %d blocks of B=%d, M=%d does not distribute", capB, b, m)
		}
		more = countCost(capB, b, m).IOs + sub.cost.IOs + 2*int64(sub.resLen)
		return more, obsort.DeterministicCost(capB, b, m).IOs
	}
	checked := 0
	for _, b := range []int{2, 8, 64, 512} {
		for _, mb := range []int{16, 512, 4096} {
			m := mb * b
			for lg := 8; lg <= 30; lg += 2 {
				n := 1 << lg
				top := planSort(n, b, m, int64(n)*int64(b))
				if top.kind != kindDistributes || top.sub != kindDirect {
					continue
				}
				checked++
				if more, direct := oneMore(top.lv.capB, b, m); more < direct {
					t.Errorf("B=%d, M/B=%d, n=2^%d: one more level on the %d-block bucket costs %d I/Os, the deterministic sort %d",
						b, mb, lg, top.lv.capB, more, direct)
				}
			}
		}
	}
	t.Logf("%d points checked", checked)
	if checked < 100 {
		t.Errorf("only %d points have buckets that sort directly", checked)
	}

	const b, m, n = 64, 1 << 21, 1 << 31
	capB := planSort(n, b, m, int64(n)*b).lv.capB
	more, direct := oneMore(capB, b, m)
	if capB != 153513635 || more != 6253511968 || direct != 6447572670 {
		t.Errorf("B=%d, M=%d, n=2^31: one more level on the %d-block bucket costs %d I/Os, the deterministic sort %d; want 153 513 635 blocks, 6 253 511 968 and 6 447 572 670",
			b, m, capB, more, direct)
	}
}
