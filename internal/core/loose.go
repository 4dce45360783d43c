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

// This file implements Theorem 8: loose compaction of at most R occupied
// blocks into an array of size 5R using O(N/B) I/Os. A round cuts its source
// into regions that fit the cache and reads each once: every cell probes c0
// tape-drawn slots of a 4R-cell array C, moving there if it finds one empty,
// and the region's survivors go to the front of the buffer, whose first half
// is all the next round reads (Lemma 7: a region holds at most half its
// cells of survivors w.h.p.). Rounds stop when fewer than two regions
// remain; one deterministic sort compacts that residue into the last R cells.

// ErrLooseOverflow reports more occupied cells than the declared capacity,
// or Lemma 7's low-probability bad event: a region with more survivors than
// the half that is kept. The trace is unchanged by the failure.
var ErrLooseOverflow = errors.New("core: loose compaction overflow")

// looseShape is the public shape of a call: every round probes each cell c0
// times and halves balanced regions of at least g blocks.
type looseShape struct{ c0, g int }

// loosePlan returns the shape for an array of n blocks, or false where the
// rounds cannot run: no region size fits the cache (no wide-block
// assumption), or n holds fewer than two regions. C has 4R cells for at most
// R items, so a probe fails with probability at most 1/4 whatever happened
// before it, the survivors of an r-block region are dominated by
// Bin(r, 4^-c0), and P[more than r/2 survive] <= exp(-r·KL(1/2 ‖ 4^-c0)).
// All rounds together cut fewer than n regions, each of at least g blocks,
// so g = ⌈(ln 2^40 + ln n) / KL⌉ bounds a call's failure by 2^-40. The plan
// takes the smallest c0 whose g fills at most half the cache — a round costs
// (1.5 + 2·c0) I/Os per block — leaving the rest to the probe window.
func loosePlan(n, b, m int) (looseShape, bool) {
	const l = 40 * math.Ln2
	for c0 := 1; c0 <= 8; c0++ {
		q := math.Pow(4, -float64(c0))
		kl := -math.Ln2 - math.Log(q*(1-q))/2
		g := int(math.Ceil((l + math.Log(float64(max(n, 2)))) / kl))
		if g*b <= m/2 {
			return looseShape{c0, g}, n/g >= 2
		}
	}
	return looseShape{}, false
}

// halved returns the length a round leaves of s blocks: the rounded-up half
// of each of its s/g balanced regions.
func halved(s, g int) int {
	r := s / g
	q, big := s/r, s%r
	return (r-big)*((q+1)/2) + big*((q+2)/2)
}

// looseRounds replays the rounds over n blocks: their number, the longest
// region any of them reads, and the residue they leave.
func looseRounds(n, g int) (rounds, rmax, residue int) {
	s := n
	for ; s/g >= 2; s = halved(s, g) {
		rounds++
		rmax = max(rmax, extmem.CeilDiv(s, s/g))
	}
	return rounds, rmax, s
}

// CompactBlocksLoose compacts the occupied block-cells of a — at most rCap
// of them — into a fresh array of exactly 5·rCap blocks using O(n) I/Os,
// without modifying a. Order is not preserved (this is the paper's loose
// compaction). The theorem's R < N/4 is not a correctness precondition: the
// 1/4 fill of C follows from its 4·rCap cells alone, and n only decides
// whether the output is shorter than the input. It returns the output, the
// occupied count, and the number of probes that repeated a slot already
// fetched in their window — a function of the tape alone; each saves the
// two I/Os by which the call undercuts LooseCost. It fails with
// probability at most 2^-40 (see loosePlan).
func CompactBlocksLoose(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int, int64, error) {
	rCap = max(rCap, 1)
	if plan, ok := loosePlan(a.Len(), a.B(), env.M); ok {
		return looseWith(env, a, rCap, plan)
	}
	out, occ, err := looseBySort(env, a, rCap)
	return out, occ, 0, err
}

// looseWith is CompactBlocksLoose under a given shape with at least two
// regions in a; tests force failures with hostile ones.
func looseWith(env *extmem.Env, a extmem.Array, rCap int, plan looseShape) (extmem.Array, int, int64, error) {
	b := a.B()
	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	c, tail := out.Slice(0, 4*rCap), out.Slice(4*rCap, 5*rCap)
	zeroArray(env, c)

	_, rmax, _ := looseRounds(a.Len(), plan.g)
	rbuf := env.Cache.Buf(rmax * b)
	p := newProber(env, env.ScanBatchN(1, rmax))
	occ, overflowed := 0, 0
	cur := a
	for cur.Len()/plan.g >= 2 {
		s := cur.Len()
		regions := s / plan.g
		next := env.D.Alloc(halved(s, plan.g))
		w := 0
		for i := 0; i < regions; i++ {
			lo, hi := i*s/regions, (i+1)*s/regions
			cells := rbuf[:(hi-lo)*b]
			cur.ReadRange(lo, hi, cells)
			if s == a.Len() {
				occ += packOccupied(cells, b)
			}
			for j := 0; j < plan.c0; j++ {
				p.probe(cells, c)
			}
			keep := (hi - lo + 1) / 2
			if packOccupied(cells, b) > keep {
				overflowed++ // the excess is dropped; the trace goes on unchanged
			}
			next.WriteRange(w, w+keep, cells[:keep*b])
			w += keep
		}
		cur = next
	}
	repeats := p.repeats
	p.close()
	env.Cache.Free(rbuf)

	// At most occ survivors are left, so within the declared capacity the
	// residue's occupied cells fit the tail.
	sortInto(env, cur, tail)
	env.D.Release(mark + out.Len())
	var err error
	if occ > rCap {
		err = fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLooseOverflow, occ, rCap)
	} else if overflowed > 0 {
		err = fmt.Errorf("%w: %d regions with more survivors than the half kept", ErrLooseOverflow, overflowed)
	}
	return out, occ, repeats, err
}

// packOccupied moves the occupied b-element cells of the buffer to its
// front, in order, and returns their number.
func packOccupied(cells []extmem.Element, b int) int {
	w := 0
	for t := 0; t < len(cells); t += b {
		if !route.PredOccupied(cells[t : t+b]) {
			continue
		}
		if w != t {
			copy(cells[w:w+b], cells[t:t+b])
			clear(cells[t : t+b])
		}
		w += b
	}
	return w / b
}

// prober is the probe kernel Theorems 8 and 9 share. A probe draws a uniform
// slot of dst for every cell of a buffer and moves the cell there if the
// cell is occupied and the slot empty; the slots come from the tape, so the
// trace is data-independent. It runs in windows of w cells: the window's
// slots are drawn and fetched with one vectored read (distinct slots only —
// a repeated one reuses the cached copy, preserving the scalar loop's
// sequential move semantics), the moves happen privately, and the slots go
// back with one vectored write.
type prober struct {
	env     *extmem.Env
	w       int
	dbuf    []extmem.Element // the window's distinct slots
	at      []int            // for each cell of the window, its slot's block in dbuf
	idx     []int            // the distinct slots, in the order drawn
	seen    map[int]int      // slot -> its block in dbuf
	repeats int64            // probes whose slot was already in the window
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
			if ok {
				p.repeats++
			} else {
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

// sortInto sorts work occupied-first with obsort.Deterministic (the order
// among the occupied is irrelevant here; Element.Less keeps the sort total)
// and copies as much of it as fits into dst, zero-filling what is left of
// dst.
func sortInto(env *extmem.Env, work, dst extmem.Array) {
	obsort.Deterministic(env, work, extmem.Element.Less)
	cp := min(work.Len(), dst.Len())
	copyArray(env, work.Slice(0, cp), dst.Slice(0, cp))
	zeroArray(env, dst.Slice(cp, dst.Len()))
}

// looseBySort is the path for inputs the rounds cannot run on: one
// deterministic sort of a copy.
func looseBySort(env *extmem.Env, a extmem.Array, rCap int) (extmem.Array, int, error) {
	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	work := env.D.Alloc(a.Len())
	occ, b := 0, a.B()
	env.Scan(a, work, env.ScanBatchN(1, a.Len()), func(_ int, chunk []extmem.Element) {
		for i := 0; i < len(chunk); i += b {
			if route.PredOccupied(chunk[i : i+b]) {
				occ++
			}
		}
	})
	sortInto(env, work, out)
	env.D.Release(mark + out.Len())
	if occ > rCap {
		return out, occ, fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLooseOverflow, occ, rCap)
	}
	return out, occ, nil
}

// LooseCost predicts CompactBlocksLoose on n blocks of b elements with a
// cache of m, entered with the whole cache free and batches bounded by the
// cache alone (no MaxBatch): zeroing C, (1.5 + 2·c0)·s block I/Os per round
// over s blocks, and the sort of the residue into the tail. The block I/Os
// are before the two saved by every repeated probe; the round trips do not
// depend on the repeats.
func LooseCost(n, rCap, b, m int) obs.Cost {
	rCap = max(rCap, 1)
	scan := func(c, free int) int64 { return extmem.ScanRoundTrips(c, b, free, 1) }
	sorted := func(s, d int) obs.Cost { // sortInto
		cp := min(s, d)
		return obsort.DeterministicCost(s, b, m).Add(obs.Cost{IOs: int64(cp + d), RoundTrips: 2*scan(cp, m) + scan(d-cp, m)})
	}
	plan, ok := loosePlan(n, b, m)
	if !ok {
		return obs.Cost{IOs: int64(2 * n), RoundTrips: 2 * scan(n, m)}.Add(sorted(n, 5*rCap))
	}
	c := obs.Cost{IOs: int64(4 * rCap), RoundTrips: scan(4*rCap, m)}
	_, rmax, residue := looseRounds(n, plan.g)
	for s := n; s != residue; s = halved(s, plan.g) {
		r := s / plan.g
		q, big := s/r, s%r
		window := 2 * int64(plan.c0) // a window's read and write, per probe
		c = c.Add(obs.Cost{
			IOs:        int64((1+2*plan.c0)*s + halved(s, plan.g)),
			RoundTrips: int64(r-big)*(2+window*scan(q, m-rmax*b)) + int64(big)*(2+window*scan(q+1, m-rmax*b)),
		})
	}
	return c.Add(sorted(residue, rCap))
}

// LoosePlan reports the public constants of a call on n blocks — probes per
// cell, least region size, rounds — all zero where it sorts instead.
func LoosePlan(n, b, m int) (c0, g, rounds int) {
	plan, ok := loosePlan(n, b, m)
	if !ok {
		return 0, 0, 0
	}
	rounds, _, _ = looseRounds(n, plan.g)
	return plan.c0, plan.g, rounds
}
