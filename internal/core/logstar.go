package core

import (
	"errors"
	"fmt"
	"slices"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
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

// prober is Theorem 9's probe kernel. A probe draws a uniform slot of dst
// for every cell of a buffer and moves the cell there if the cell is
// occupied and the slot empty; the slots come from the tape, so the trace
// is data-independent. It runs in windows of w cells: the window's slots
// are drawn and fetched with one vectored read (distinct slots only — a
// repeated one reuses the cached copy, preserving the scalar loop's
// sequential move semantics), the moves happen privately, and the slots go
// back with one vectored write.
type prober struct {
	env  *extmem.Env
	w    int
	dbuf []extmem.Element // the window's distinct slots
	at   []int            // for each cell of the window, its slot's block in dbuf
	idx  []int            // the distinct slots, in the order drawn
	seen map[int]int      // slot -> its block in dbuf
}

func newProber(env *extmem.Env, w int) *prober {
	return &prober{env: env, w: w, dbuf: env.Cache.Buf(w * env.B()),
		at: make([]int, w), idx: make([]int, 0, w), seen: make(map[int]int, w)}
}

func (p *prober) close() { p.env.Cache.Free(p.dbuf) }

// probe probes dst once for every b-element cell of cells, emptying the
// cells that move.
func (p *prober) probe(cells []extmem.Element, dst extmem.Array) {
	b := dst.B()
	for ; len(cells) > 0; cells = cells[min(p.w*b, len(cells)):] {
		cnt := min(p.w, len(cells)/b)
		p.idx = p.idx[:0]
		clear(p.seen)
		for t := 0; t < cnt; t++ {
			j := p.env.Tape.IntN(dst.Len())
			k, ok := p.seen[j]
			if !ok {
				k = len(p.idx)
				p.seen[j] = k
				p.idx = append(p.idx, j)
			}
			p.at[t] = k
		}
		dbuf := p.dbuf[:len(p.idx)*b]
		dst.ReadMany(p.idx, dbuf)
		for t := 0; t < cnt; t++ {
			sblk, dblk := cells[t*b:(t+1)*b], dbuf[p.at[t]*b:(p.at[t]+1)*b]
			if route.PredOccupied(sblk) && !route.PredOccupied(dblk) {
				copy(dblk, sblk)
				clear(sblk)
			}
		}
		dst.WriteMany(p.idx, dbuf)
	}
}

// looseBySort is the path for inputs below logStarN0: Lemma 3's
// consolidation of the kept elements, then one deterministic sort of it
// (occupied first; obsort.ByKey keeps the sort total and takes the
// engines' inline kernels), copied into a fresh array of 5·rCap blocks and
// zero-filled past the copy.
func looseBySort(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool, rCap int) (extmem.Array, int64, error) {
	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	work, kept := route.Consolidate(env, a, keep)
	obsort.Deterministic(env, work, obsort.ByKey)
	cp := min(work.Len(), out.Len())
	copyArray(env, work.Slice(0, cp), out.Slice(0, cp))
	zeroArray(env, out.Slice(cp, out.Len()))
	env.D.Release(mark + out.Len())
	if occ := extmem.CeilDiv64(kept, int64(a.B())); occ > int64(rCap) {
		return out, kept, fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLogStarOverflow, occ, rCap)
	}
	return out, kept, nil
}
