package core

import (
	"errors"
	"fmt"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/route"
)

// This file implements Theorem 9 (Appendix B): loose compaction of at most
// R < N/4 marked blocks into an array of size 4.25R using
// O((N/B)·log*(N/B)) I/Os, with neither the wide-block nor the tall-cache
// assumption. The algorithm follows Matias–Vishkin-style doubly-logarithmic
// progress: after c0 initial thinning passes into the first 4R cells of the
// output, phase i assumes at most R/t_i^4 survivors (t_1 = 4,
// t_{i+1} = 2^{t_i} — the tower-of-twos, so there are O(log* n) phases),
// runs a thinning-out step through an auxiliary array of R/t_i cells
// (growing A), compacts regions of 2^{4t_i} cells, and thins the compacted
// region prefixes into the output. Once survivors drop below n/log²n the
// remainder compacts tightly into the reserved last 0.25R cells.
//
// At any practical scale the tower collapses the loop after one or two
// phases — exactly the log* behaviour the theorem promises. The paper's
// proof constant c0 = 23 makes the initial passes dominate; logStarC0
// takes 8.

// ErrLogStarOverflow reports the low-probability failure of Theorem 9's
// final compaction (more survivors than the reserved 0.25R cells).
var ErrLogStarOverflow = errors.New("core: log-star compaction overflow")

// Theorem 9's constants.
const (
	// logStarC0 is the number of initial thinning passes. The paper's
	// proof uses 23, which roughly triples the I/O; 8 leaves an expected
	// (1/4)^8 of the occupied cells to the phases and the final compaction
	// (Lemma 7).
	logStarC0 = 8
	// logStarN0 is the small-input cutoff below which one deterministic
	// sort finishes the job.
	logStarN0 = 16
	// logStarMaxPhases bounds the tower loop (safety; the tower exits by
	// itself).
	logStarMaxPhases = 5
)

// LogStarParams holds Theorem 9's one test hook.
type LogStarParams struct {
	// ForcePhases overrides the survivor-threshold test for that many
	// phases. At any practical n the tower exits immediately (r/t_1^4 is
	// already below n/log²n), so tests use this to exercise the
	// thinning-out and region-compaction machinery.
	ForcePhases int
}

// CompactBlocksLogStar compacts the occupied block-cells of a — at most
// rCap of them, rCap <= len/4 — into a fresh array of exactly
// ceil(4.25·rCap) blocks. Order is not preserved. It returns the output,
// the occupied count, and the number of tower phases executed.
func CompactBlocksLogStar(env *extmem.Env, a extmem.Array, rCap int, p LogStarParams) (extmem.Array, int, int, error) {
	n := a.Len()
	b := a.B()
	if rCap < 1 {
		rCap = 1
	}
	outLen := 4*rCap + extmem.CeilDiv(rCap, 4)

	if n < logStarN0 {
		out, kept, err := looseBySort(env, a, extmem.Element.Occupied, rCap)
		occ := int(extmem.CeilDiv64(kept, int64(b)))
		// Reshape to the 4.25R contract: looseBySort returns 5R; slice.
		if errors.Is(err, ErrLooseOverflow) {
			err = fmt.Errorf("%w: %v", ErrLogStarOverflow, err)
		}
		return out.Slice(0, min(outLen, out.Len())), occ, 0, err
	}

	mark := env.D.Mark()
	out := env.D.Alloc(outLen)
	d4 := out.Slice(0, 4*rCap)
	tail := out.Slice(4*rCap, outLen)

	zeroArray(env, out)

	// Working copy (thinning empties source cells), counting the occupied
	// blocks on the way.
	work := env.D.Alloc(n)
	occ := 0
	env.Scan(a, work, env.ScanBatchN(1, n), func(_ int, chunk []extmem.Element) {
		for blk := range slices.Chunk(chunk, b) {
			if route.PredOccupied(blk) {
				occ++
			}
		}
	})
	var failed error
	if occ > rCap {
		failed = fmt.Errorf("%w: %d occupied cells exceed capacity %d", ErrLogStarOverflow, occ, rCap)
	}

	for pass := 0; pass < logStarC0; pass++ {
		thinningPass(env, work, d4)
	}

	// Tower phases.
	t := 4
	phases := 0
	logn := extmem.CeilLog2(max(2, n))
	cur := work
	for phases < logStarMaxPhases {
		// Final-phase test: survivors <= rCap/t^4 vs n/log²n. Once t
		// reaches 256, t^4 exceeds 2^32 and the quotient is zero for any
		// real capacity (also guarding the tower against overflow).
		below := t >= 256
		if !below {
			below = rCap/(t*t*t*t) <= max(1, n/(logn*logn))
		}
		if phases >= p.ForcePhases && below {
			break
		}
		phases++
		// Thinning-out: two A-to-Caux passes, t Caux-to-D passes, grow A.
		cauxLen := max(1, rCap/t)
		caux := env.D.Alloc(cauxLen)
		zeroArray(env, caux)
		thinningPass(env, cur, caux)
		thinningPass(env, cur, caux)
		for j := 0; j < t; j++ {
			thinningPass(env, caux, d4)
		}
		grown := env.D.Alloc(cur.Len() + cauxLen)
		copyArray(env, cur, grown.Slice(0, cur.Len()))
		copyArray(env, caux, grown.Slice(cur.Len(), grown.Len()))
		cur = grown

		// Region compaction: compact each 2^{4t}-cell region in place and
		// thin its prefix into D.
		regionSize := 1 << min(4*t, 30)
		if regionSize > cur.Len() {
			regionSize = cur.Len()
		}
		for lo := 0; lo < cur.Len(); lo += regionSize {
			hi := min(lo+regionSize, cur.Len())
			region := cur.Slice(lo, hi)
			route.CompactBlocksTight(env, region, route.PredOccupied, 0)
			prefix := region.Slice(0, min(rCap, region.Len()))
			for j := 0; j < t*t; j++ {
				thinningPass(env, prefix, d4)
			}
		}
		// Tower step (guarded against overflow; the loop exits well
		// before t overflows in any real configuration).
		if t >= 30 {
			t = 1 << 30
		} else {
			t = 1 << t
		}
	}

	// Final deterministic compaction of the survivors into the tail.
	env.Scan(cur, cur, env.ScanBatchN(1, cur.Len()), func(_ int, chunk []extmem.Element) {
		for blk := range slices.Chunk(chunk, b) {
			occb := route.PredOccupied(blk)
			for tt := range blk {
				if occb {
					blk[tt].Flags |= extmem.FlagMarked
				} else {
					blk[tt].Flags &^= extmem.FlagMarked
				}
			}
		}
	})
	fin, survivors, err := CompactMarkedTight(env, cur, tail.Len())
	if err != nil && failed == nil {
		failed = fmt.Errorf("%w: final compaction: %v", ErrLogStarOverflow, err)
	}
	if int(survivors) > tail.Len()*b && failed == nil {
		failed = fmt.Errorf("%w: %d survivor elements exceed reserved tail", ErrLogStarOverflow, survivors)
	}
	if err == nil { // a failed compaction returns no tail-sized array; the trace stops a copy short
		copyArray(env, fin, tail)
	}

	env.D.Release(mark + out.Len())
	return out, occ, phases, failed
}

// thinningPass is one A-to-C pass: every cell of src probes dst once (see
// prober), a scan batch of cells per vectored read and write of src.
func thinningPass(env *extmem.Env, src, dst extmem.Array) {
	w := env.ScanBatchN(2, src.Len())
	p := newProber(env, w)
	env.Scan(src, src, w, func(_ int, cells []extmem.Element) { p.probe(cells, dst) })
	p.close()
}
