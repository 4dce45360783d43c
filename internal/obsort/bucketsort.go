package obsort

import (
	"cmp"
	"errors"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/route"
)

// This file implements bucket oblivious sort in the style of Asharov, Chan,
// Nayak, Pass, Ren and Shi (arXiv:2008.01765), adapted to this repository's
// block model. The pipeline:
//
//  1. Seed: stream the input into a 2× scratch arena of k1 half-loaded
//     buckets of Z cells, tagging every input cell — occupied or not — with
//     a uniform random bucket label from the tape and its scan index.
//  2. Random bin assignment: a log2(k1)-level butterfly of bucket
//     merge-splits routes each cell to the bucket matching its label. A
//     merge-split reads a bucket pair with one vectored round trip,
//     partitions privately by one label bit, and writes both buckets back
//     with one vectored round trip. A bucket receiving more than Z cells is
//     a declared failure (ErrBucketOverflow) with probability independent
//     of the data: labels come from the tape and every cell participates.
//  3. Distribution: the shuffled cells are split recursively into
//     order-ranges. A region samples tape-chosen blocks, picks splitters at
//     even quantiles of the sample (scan-index tie-breaks keep them exact
//     under duplicate keys), tags each cell with its range index, and a
//     second, mirror-image butterfly of merge-splits confines every range
//     to its sub-region. Regions that fit in half the cache are leaves,
//     sorted privately.
//  4. Finish: consolidation (Lemma 3) gathers the occupied cells into
//     full-or-empty blocks and the butterfly network (Theorem 6) compacts
//     them into a tight sorted prefix — the same finish the randomized
//     sort uses.
//
// Every address issued is a function of (len, B, M) and the tape, never the
// data. Phase 2 failures depend on the tape alone; phase 3 failures also
// depend on how well the sampled splitters cut the keys. Both are declared
// publicly and abort before the input array is touched, so a failed run's
// trace is a prefix of the success trace and the input is unchanged. But
// Bob sees a failure, and phase 3's rate depends on the data: on sorted or
// reversed keys a run overflows far more often than on random ones, which
// is why no sort engine name reaches this file.

// ErrBucketOverflow reports a declared bucket-overflow failure: a bucket
// exceeded its Z-cell capacity. The input array is unchanged; retrying
// continues the tape and draws fresh labels.
var ErrBucketOverflow = errors.New("obsort: bucket overflow (declared failure; retry draws fresh labels)")

// padColor marks bucket-padding cells in the scratch arena (the maximum
// 24-bit color; cargo labels and range indices are checked to stay below).
const padColor = 0xFFFFFF

// bucketGeom holds the public geometry of a bucket sort run.
type bucketGeom struct {
	b     int // elements per block
	zb    int // blocks per bucket
	z     int // cells per bucket (zb·b)
	k1    int // number of buckets, a power of two
	g1    int // log2(k1)
	fLeaf int // max buckets per leaf region (fLeaf·z <= m/2)
	m     int // elements of cache free at the call: every field above is sized from it
}

// bucketGeometry derives the public geometry from the m elements of cache
// free at the call, reporting ok=false when they are too few for the
// bucket layout (BucketSort then falls back to Bitonic). A merge-split
// holds two buckets in and two out (4Z cells) plus slack.
func bucketGeometry(nBlocks, b, m int) (bucketGeom, bool) {
	if nBlocks == 0 || (m-64)/(4*b) < 2 {
		return bucketGeom{}, false
	}
	nc := nBlocks * b
	if nc >= 1<<30 { // scan indices must fit the 31-bit CellDest field
		return bucketGeom{}, false
	}
	zb := 1 << extmem.FloorLog2((m-64)/(4*b))
	z := zb * b
	// Target load per bucket: Z/2 for comfortable bucket sizes, Z/4 when
	// the cache forces small buckets — splitter quantile errors compound
	// multiplicatively down the distribution recursion, and small-Z tails
	// are fat enough that half-loading makes declared overflows routine.
	loadDiv := 2
	if z < 512 {
		loadDiv = 4
	}
	k1 := 1 << extmem.CeilLog2(max(2, extmem.CeilDiv(loadDiv*nc, z)))
	if k1 >= padColor {
		return bucketGeom{}, false
	}
	fLeaf := 1 << extmem.FloorLog2(m/(2*z))
	if fLeaf < 1 {
		return bucketGeom{}, false
	}
	return bucketGeom{b: b, zb: zb, z: z, k1: k1, g1: extmem.CeilLog2(k1), fLeaf: fLeaf, m: m}, true
}

// regionFanout returns the split factor for a region of f > fLeaf buckets:
// a power of two dividing f, capped by the splitter budget the cache
// affords.
func (g bucketGeom) regionFanout(f int) int {
	m := g.m
	k2 := f / g.fLeaf
	if k2 > 64 {
		k2 = 64
	}
	if lim := 1 << extmem.FloorLog2(max(2, m/(4*g.b))); k2 > lim {
		k2 = lim
	}
	// Splitter quality: demand at least 64 sample cells per range, so the
	// range loads concentrate well inside the Z-cell bucket capacity. A
	// thinner sample would make phase-3 overflows routine instead of rare.
	cells := g.sampleBlocks(f) * g.b
	if lim := 1 << extmem.FloorLog2(max(2, cells/64)); k2 > lim {
		k2 = lim
	}
	return max(2, k2)
}

// sampleBlocks returns the number of tape-chosen blocks a region of f
// buckets samples for splitters — capped so the sample fits in half the
// cache.
func (g bucketGeom) sampleBlocks(f int) int {
	return max(1, min(f*g.zb, g.m/(2*g.b)))
}

// BucketSort sorts the occupied elements of a in place with padded
// semantics (occupied ascend by Element.Less with scan-index tie-breaks,
// empties sink). It may fail with ErrBucketOverflow — a declared, public
// failure that leaves a unchanged, at a rate that depends on the keys'
// order. It is
// sized from the cache free at the call, not from M; where that cannot
// support the geometry it falls back to the deterministic Bitonic engine
// and never fails. Nothing in the library calls it: it stays only for the
// benchmark's obsort.bucket_ms probe (benchmark/layers.go), and goes when
// that probe does.
//
// Side effects on success: the Color and CellDest scratch bits of every
// element are cleared; Key, Pos, Val and the occupied/marked/failed flags
// are preserved.
// Its Order argument is inert; it goes with the benchmark's call site
// (benchmark/layers.go) in ROADMAP item 1(a)'s benchmark change.
func BucketSort(env *extmem.Env, a extmem.Array, _ Order) error {
	n := a.Len()
	if n == 0 {
		return nil
	}
	b := a.B()
	free := env.M - env.Cache.Used()
	g, ok := bucketGeometry(n, b, free)
	if !ok {
		bitonic(env, a, a, nil)
		return nil
	}
	sp := env.Obs.Start("bucket")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetPredicted(BucketCost(n, b, free))
	defer env.Obs.End(sp)
	mark := env.D.Mark()
	defer env.D.Release(mark)

	w := env.D.Alloc(g.k1 * g.zb)
	sps := env.Obs.Start("seed")
	err := bucketSeed(env, a, w, g)
	env.Obs.End(sps)
	if err != nil {
		return err
	}
	spb := env.Obs.Start("bin-phase")
	err = bucketBinPhase(env, w, g)
	env.Obs.End(spb)
	if err != nil {
		return err
	}
	spr := env.Obs.Start("split-regions")
	err = bucketSplitRegion(env, w, g, 0, g.k1)
	env.Obs.End(spr)
	if err != nil {
		return err
	}

	// Finish exactly as the randomized sort does: gather occupied cells
	// into full blocks, butterfly-compact them to a tight prefix, and copy
	// back, clearing the scratch bits.
	spf := env.Obs.Start("gather")
	defer env.Obs.End(spf)
	cons, _ := route.ConsolidateCompact(env, w, extmem.Element.Occupied)
	env.Scan(cons, a, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			chunk[t].SetCellDest(0)
			chunk[t].SetColor(0)
		}
	})
	return nil
}

// bucketSeed streams the input into the scratch arena: bucket i receives
// the i-th slice of ceil(nc/k1) consecutive input cells (at most Z/2) plus
// padding. Every cell — occupied or not — draws a bucket label, so tape
// consumption and the bucket loads the labels induce are data-independent.
func bucketSeed(env *extmem.Env, a, w extmem.Array, g bucketGeom) error {
	n, b := a.Len(), g.b
	nc := n * b
	per := extmem.CeilDiv(nc, g.k1)
	pad := extmem.Element{}
	pad.SetColor(padColor)

	rk := env.ScanBatchN(2, n)
	rbuf := env.Cache.Buf(rk * b)
	wbuf := env.Cache.Buf(rk * b)
	wr := extmem.NewSeqWriter(w, 0, wbuf)
	rlo, rhi := 0, 0
	for i := 0; i < g.k1; i++ {
		lo, hi := min(i*per, nc), min((i+1)*per, nc)
		got := 0
		for blk := 0; blk < g.zb; blk++ {
			out := wr.Next()
			for t := range out {
				if lo+got >= hi {
					out[t] = pad
					continue
				}
				cell := lo + got
				got++
				cb := cell / b
				if cb >= rhi {
					rlo = cb
					rhi = min(rlo+rk, n)
					a.ReadRange(rlo, rhi, rbuf[:(rhi-rlo)*b])
				}
				e := rbuf[(cb-rlo)*b+cell%b]
				e.SetColor(env.Tape.IntN(g.k1))
				e.SetCellDest(cell)
				out[t] = e
			}
		}
	}
	wr.Flush()
	env.Cache.Free(wbuf)
	env.Cache.Free(rbuf)
	return nil
}

// bucketMergeSplit reads buckets i and j of w with one vectored round
// trip, partitions their cargo privately — side() returns 0 or 1 per cargo
// cell — and writes both buckets back with one vectored round trip, cargo
// compacted at the front and padding behind. More than Z cells on either
// side is a declared overflow.
func bucketMergeSplit(env *extmem.Env, w extmem.Array, g bucketGeom, i, j int, side func(extmem.Element) int) error {
	z := g.z
	rbuf := env.Cache.Buf(2 * z)
	obuf := env.Cache.Buf(2 * z)
	defer env.Cache.Free(obuf)
	defer env.Cache.Free(rbuf)
	x := env.D.Batch(2 * g.zb)
	x.ReadRange(w, i*g.zb, (i+1)*g.zb)
	x.ReadRange(w, j*g.zb, (j+1)*g.zb)
	x.Do(nil, rbuf)

	pad := extmem.Element{}
	pad.SetColor(padColor)

	n0, n1 := 0, z
	for _, e := range rbuf {
		if e.Color() == padColor {
			continue
		}
		if side(e) == 0 {
			if n0 == z {
				return ErrBucketOverflow
			}
			obuf[n0] = e
			n0++
		} else {
			if n1 == 2*z {
				return ErrBucketOverflow
			}
			obuf[n1] = e
			n1++
		}
	}
	for t := n0; t < z; t++ {
		obuf[t] = pad
	}
	for t := n1; t < 2*z; t++ {
		obuf[t] = pad
	}
	x = env.D.Batch(2 * g.zb)
	x.WriteRange(w, i*g.zb, (i+1)*g.zb)
	x.WriteRange(w, j*g.zb, (j+1)*g.zb)
	x.Do(obuf, nil)
	return nil
}

// bucketBinPhase runs the label butterfly: level l pairs buckets whose
// indices differ in bit l and splits their cargo by label bit l. After
// log2(k1) levels every cell sits in the bucket its label names — a
// tape-random permutation of the cells across buckets.
func bucketBinPhase(env *extmem.Env, w extmem.Array, g bucketGeom) error {
	for l := 0; l < g.g1; l++ {
		s := 1 << l
		for base := 0; base < g.k1; base += 2 * s {
			for off := 0; off < s; off++ {
				i := base + off
				err := bucketMergeSplit(env, w, g, i, i+s, func(e extmem.Element) int {
					return e.Color() >> l & 1
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// bucketSplitRegion recursively confines order-ranges of the region
// [lo, lo+f) of buckets to sub-regions until a region fits in half the
// cache, then sorts it privately. The recursion structure, sample sizes
// and every address depend only on the geometry and the tape.
func bucketSplitRegion(env *extmem.Env, w extmem.Array, g bucketGeom, lo, f int) error {
	b := g.b
	if f <= g.fLeaf {
		buf := env.Cache.Buf(f * g.z)
		defer env.Cache.Free(buf)
		w.ReadRange(lo*g.zb, (lo+f)*g.zb, buf)
		slices.SortStableFunc(buf, padLast)
		w.WriteRange(lo*g.zb, (lo+f)*g.zb, buf)
		return nil
	}

	k2 := g.regionFanout(f)
	g2 := extmem.CeilLog2(k2)

	// Splitters: sort a tape-chosen block sample privately (padding last)
	// and take the k2−1 even quantiles of its cargo prefix. The bin phase
	// shuffled the cells, so the sample is an unbiased view of the region.
	// The splitters are checked out first, so that the sample, freed
	// first, leaves the cache slab no hole.
	spl := env.Cache.Buf(k2 - 1)
	sb := g.sampleBlocks(f)
	sbuf := env.Cache.Buf(sb * b)
	x := env.D.Batch(sb)
	for t := 0; t < sb; t++ {
		x.Read(w, lo*g.zb+env.Tape.IntN(f*g.zb))
	}
	x.Do(nil, sbuf)
	slices.SortStableFunc(sbuf, padLast)
	nCargo := 0
	for _, e := range sbuf {
		if e.Color() != padColor {
			nCargo++
		}
	}
	nSpl := 0
	if nCargo > 0 {
		for c := 1; c < k2; c++ {
			spl[nSpl] = sbuf[(c*nCargo)/k2]
			nSpl++
		}
	}
	env.Cache.Free(sbuf)

	// Tag every cargo cell with its order-range index: the number of
	// splitters strictly below it. With no splitters every cell lands in
	// range 0 and the routing either converges or overflows — declared
	// either way.
	region := w.Slice(lo*g.zb, (lo+f)*g.zb)
	env.Scan(region, region, env.ScanBatchN(1, f*g.zb), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			if chunk[t].Color() == padColor {
				continue
			}
			bin := 0
			for s := 0; s < nSpl; s++ {
				if cmpCargo(spl[s], chunk[t]) < 0 {
					bin = s + 1
				}
			}
			chunk[t].SetColor(bin)
		}
	})
	env.Cache.Free(spl)

	// Distribution butterfly, mirror image of the bin phase: level l works
	// at bucket stride f/2^(l+1) and splits by range-index bit g2−1−l, so
	// after g2 levels range c occupies sub-region c.
	for l := 0; l < g2; l++ {
		s := f >> (l + 1)
		bit := uint(g2 - 1 - l)
		for base := lo; base < lo+f; base += 2 * s {
			for off := 0; off < s; off++ {
				i := base + off
				err := bucketMergeSplit(env, w, g, i, i+s, func(e extmem.Element) int {
					return e.Color() >> bit & 1
				})
				if err != nil {
					return err
				}
			}
		}
	}

	fp := f / k2
	for c := 0; c < k2; c++ {
		if err := bucketSplitRegion(env, w, g, lo+c*fp, fp); err != nil {
			return err
		}
	}
	return nil
}

// cmpCargo is the total order of the splitters, the range indices and the
// leaf sorts: Element.Less, then the unique scan index — total even when
// every key is equal, so splitters never skew a range.
func cmpCargo(x, y extmem.Element) int {
	if c := cmpLess(x, y); c != 0 {
		return c
	}
	return cmp.Compare(x.CellDest(), y.CellDest())
}

// padLast is cmpCargo with the padding cells after the cargo: the order
// of the sample and leaf sorts.
func padLast(x, y extmem.Element) int {
	xp, yp := x.Color() == padColor, y.Color() == padColor
	switch {
	case xp && yp:
		return 0
	case xp:
		return 1
	case yp:
		return -1
	}
	return cmpCargo(x, y)
}

// BucketCost predicts a successful BucketSort run entered with m elements
// of cache free. Every pass is geometry-addressed, so its block I/Os are a
// function of (nBlocks, B, m) alone and exact; its round trips are an
// estimate, 2 per merge-split and leaf plus the linear passes chunked as if
// all m were free throughout. It is zero where the geometry is unsupported
// (the call would fall back to Bitonic).
func BucketCost(nBlocks, b, m int) obs.Cost {
	g, ok := bucketGeometry(nBlocks, b, m)
	if !ok {
		return obs.Cost{}
	}
	wb := g.k1 * g.zb
	scan := func(blocks, buffers int) int64 { return extmem.ScanRoundTrips(blocks, b, m, buffers) }
	both := func(blocks, buffers int) int64 { return extmem.TwoSidedScanRoundTrips(blocks, b, m, buffers) }
	butterfly := func(levels, f int) obs.Cost { // levels of f/2 merge-splits of 4zb blocks
		splits := int64(levels) * int64(f/2)
		return obs.Cost{IOs: splits * int64(4*g.zb), RoundTrips: 2 * splits}
	}
	// Seed: read the input once, write the arena once; then the bin phase.
	c := obs.Cost{IOs: int64(nBlocks + wb), RoundTrips: scan(nBlocks, 3) + scan(wb, 3)}.Add(butterfly(g.g1, g.k1))
	// Distribution recursion.
	var walk func(f int) obs.Cost
	walk = func(f int) obs.Cost {
		if f <= g.fLeaf {
			return obs.Cost{IOs: int64(2 * f * g.zb), RoundTrips: 2}
		}
		k2 := g.regionFanout(f)
		r := obs.Cost{IOs: int64(g.sampleBlocks(f)), RoundTrips: 1}                // splitter sample
		r = r.Add(obs.Cost{IOs: int64(2 * f * g.zb), RoundTrips: both(f*g.zb, 2)}) // range tagging
		r = r.Add(butterfly(extmem.CeilLog2(k2), f))
		sub := walk(f / k2)
		for range k2 {
			r = r.Add(sub)
		}
		return r
	}
	c = c.Add(walk(g.k1))
	// Finish: consolidating butterfly compaction, copy-back.
	c = c.Add(route.ConsolidateCompactCost(wb, b, m))
	return c.Add(obs.Cost{IOs: 2 * int64(nBlocks), RoundTrips: both(nBlocks, 2)})
}
