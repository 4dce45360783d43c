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
// blocks into an array of size 5R using O(N/B) I/Os, on the cells of Lemma
// 3's consolidation of the kept elements. A round cuts its source into
// regions that fit the cache and reads each once — the first round takes
// its cells from the consolidation as that reads the caller's array
// (route.Consolidation), so the consolidated array is never written: every
// cell probes c0 tape-drawn slots of a 4R-cell array C, moving there if it
// finds one empty, and the region's survivors go to the front of the
// buffer, whose first half is all the next round reads (Lemma 7: a region
// holds at most half its cells of survivors w.h.p.). Rounds stop when fewer
// than two regions remain; one deterministic sort compacts that residue
// into the last R cells. A call's shape — probes, region size, every
// round's length — is one LoosePlan, laid out before any I/O from
// (n, R, B, M): CompactLooseWith runs it and LooseCost sums it.

// ErrLooseOverflow reports more occupied cells than the declared capacity,
// or Lemma 7's low-probability bad event: a region with more survivors than
// the half that is kept. The trace is unchanged by the failure.
var ErrLooseOverflow = errors.New("core: loose compaction overflow")

// looseMaxRounds bounds a call's rounds: a round keeps at most three
// quarters of its source (halved, with regions of g ≥ 2 blocks), and
// (4/3)^152 > 2^63.
const looseMaxRounds = 152

// LoosePlan is the public shape of CompactBlocksLoose over n blocks with
// capacity rCap, built from (n, rCap, B, M) alone: every round probes each
// cell c0 times and halves balanced regions of at least g blocks. A plan
// without rounds sorts instead. CompactLooseWith walks it and LooseCost
// sums it.
type LoosePlan struct {
	n, rCap, b, m int
	c0, g         int
	rounds        int
	lens          [looseMaxRounds + 1]int // lens[r]: the blocks round r reads; lens[rounds]: the residue
	rmax          int                     // blocks of the longest region any round reads
	window        int                     // cache elements beside the region buffer and the consolidation's 2B
}

// PlanLoose plans CompactBlocksLoose on n blocks of b elements with
// capacity rCap and a cache of m. The rounds cannot run where no region
// size fits the cache (no wide-block assumption), or where n holds fewer
// than two regions. C has 4R cells for at most R items, so a probe fails
// with probability at most 1/4 whatever happened before it, the survivors
// of an r-block region are dominated by Bin(r, 4^-c0), and P[more than r/2
// survive] <= exp(-r·KL(1/2 ‖ 4^-c0)). All rounds together cut fewer than
// n regions, each of at least g blocks, so g = ⌈(ln 2^40 + ln n) / KL⌉
// bounds a call's failure by 2^-40. The plan takes the smallest c0 whose g
// fills at most half the cache — a round costs (1.5 + 2·c0) I/Os per
// block — leaving the rest to the probe window.
func PlanLoose(n, rCap, b, m int) LoosePlan {
	const l = 40 * math.Ln2
	p := LoosePlan{n: n, rCap: max(rCap, 1), b: b, m: m}
	for c0 := 1; c0 <= 8; c0++ {
		q := math.Pow(4, -float64(c0))
		kl := -math.Ln2 - math.Log(q*(1-q))/2
		if g := int(math.Ceil((l + math.Log(float64(max(n, 2)))) / kl)); g*b <= m/2 {
			if n/g >= 2 {
				p.c0, p.g = c0, g
			}
			break
		}
	}
	return p.withRounds()
}

// withRounds lays out the rounds the plan's region size g takes over its n
// blocks — none where g is zero — and what they leave the probe window.
func (p LoosePlan) withRounds() LoosePlan {
	s := p.n
	for ; p.g > 0 && s/p.g >= 2; s = halved(s, p.g) {
		p.lens[p.rounds] = s
		p.rmax = max(p.rmax, extmem.CeilDiv(s, s/p.g))
		p.rounds++
	}
	p.lens[p.rounds] = s
	p.window = p.m - (p.rmax+2)*p.b
	return p
}

// Shape reports the plan's public constants — probes per cell, least
// region size, rounds — all zero where it sorts instead.
func (p LoosePlan) Shape() (c0, g, rounds int) { return p.c0, p.g, p.rounds }

// halved returns the length a round leaves of s blocks: the rounded-up half
// of each of its s/g balanced regions.
func halved(s, g int) int {
	r := s / g
	q, big := s/r, s%r
	return (r-big)*((q+1)/2) + big*((q+2)/2)
}

// CompactBlocksLoose compacts the elements of a that keep selects, packed
// by Lemma 3's consolidation into whole cells — at most rCap of them —
// into a fresh array of exactly 5·rCap blocks using O(n) I/Os, without
// modifying a. Order is not preserved (this is the paper's loose
// compaction). The theorem's R < N/4 is not a correctness precondition: the
// 1/4 fill of C follows from its 4·rCap cells alone, and n only decides
// whether the output is shorter than the input. It returns the output, the
// number of kept elements, and the number of probes that repeated a slot
// already fetched in their window — a function of the tape alone; each
// saves the two I/Os by which the call undercuts LooseCost. It fails with
// probability at most 2^-40 (see PlanLoose).
func CompactBlocksLoose(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool, rCap int) (extmem.Array, int64, int64, error) {
	return CompactLooseWith(env, a, keep, PlanLoose(a.Len(), rCap, a.B(), env.M))
}

// CompactLooseWith is CompactBlocksLoose walking p, PlanLoose's plan for
// a's geometry.
func CompactLooseWith(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool, p LoosePlan) (extmem.Array, int64, int64, error) {
	if p.rounds == 0 {
		out, kept, err := looseBySort(env, a, keep, p.rCap)
		return out, kept, 0, err
	}
	b := a.B()
	mark := env.D.Mark()
	out := env.D.Alloc(5 * p.rCap)
	c, tail := out.Slice(0, 4*p.rCap), out.Slice(4*p.rCap, 5*p.rCap)
	zeroArray(env, c)

	rbuf := env.Cache.Buf(p.rmax * b)
	cons := route.NewConsolidation(env, a, keep)
	pr := newProber(env, env.ScanBatchN(1, p.rmax))
	occ, overflowed := 0, 0
	cur := a
	for r, s := range p.lens[:p.rounds] {
		regions := s / p.g
		next := env.D.Alloc(p.lens[r+1])
		w := 0
		for i := 0; i < regions; i++ {
			lo, hi := i*s/regions, (i+1)*s/regions
			cells := rbuf[:(hi-lo)*b]
			if r == 0 {
				cons.Cells(lo, hi, cells)
				occ += packOccupied(cells, b)
			} else {
				cur.ReadRange(lo, hi, cells)
			}
			for range p.c0 {
				pr.probe(cells, c)
			}
			half := (hi - lo + 1) / 2
			if packOccupied(cells, b) > half {
				overflowed++ // the excess is dropped; the trace goes on unchanged
			}
			next.WriteRange(w, w+half, cells[:half*b])
			w += half
		}
		cur = next
	}
	repeats := pr.repeats
	pr.close()
	cons.Close(env)
	env.Cache.Free(rbuf)

	// At most occ survivors are left, so within the declared capacity the
	// residue's occupied cells fit the tail.
	sortInto(env, cur, tail)
	env.D.Release(mark + out.Len())
	var err error
	if occ > p.rCap {
		err = fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLooseOverflow, occ, p.rCap)
	} else if overflowed > 0 {
		err = fmt.Errorf("%w: %d regions with more survivors than the half kept", ErrLooseOverflow, overflowed)
	}
	return out, cons.Kept(), repeats, err
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

// looseBySort is the path for inputs the rounds cannot run on: Lemma 3's
// consolidation of the kept elements, then one deterministic sort of it.
func looseBySort(env *extmem.Env, a extmem.Array, keep func(extmem.Element) bool, rCap int) (extmem.Array, int64, error) {
	mark := env.D.Mark()
	out := env.D.Alloc(5 * rCap)
	work, kept := route.Consolidate(env, a, keep)
	sortInto(env, work, out)
	env.D.Release(mark + out.Len())
	if occ := extmem.CeilDiv64(kept, int64(a.B())); occ > int64(rCap) {
		return out, kept, fmt.Errorf("%w: %d occupied cells exceed declared capacity %d", ErrLooseOverflow, occ, rCap)
	}
	return out, kept, nil
}

// LooseCost predicts CompactBlocksLoose on n blocks of b elements with a
// cache of m, entered with the whole cache free and batches bounded by the
// cache alone (no MaxBatch): PlanLoose's plan, summed.
func LooseCost(n, rCap, b, m int) obs.Cost { return PlanLoose(n, rCap, b, m).Cost() }

// Cost sums the plan: zeroing C, (1.5 + 2·c0)·s block I/Os per round over
// s blocks — the first round's reads being the consolidation's, one a
// region and block 0 on its own — and the sort of the residue into the
// tail; or, without rounds, the consolidation and its sort. The block I/Os
// are before the two saved by every repeated probe; the round trips do not
// depend on the repeats.
func (p LoosePlan) Cost() obs.Cost {
	b, m := p.b, p.m
	scan := func(c, free int) int64 { return extmem.ScanRoundTrips(c, b, free, 1) }
	sorted := func(s, d int) obs.Cost { // sortInto
		cp := min(s, d)
		return obsort.DeterministicCost(s, b, m).Add(obs.Cost{IOs: int64(cp + d), RoundTrips: 2*scan(cp, m) + scan(d-cp, m)})
	}
	if p.rounds == 0 {
		return route.ConsolidateCost(p.n, b, m).Add(sorted(p.n, 5*p.rCap))
	}
	c := obs.Cost{IOs: int64(4 * p.rCap), RoundTrips: scan(4*p.rCap, m)}
	probes := 2 * int64(p.c0) // a window's read and write, per probe
	for i, s := range p.lens[:p.rounds] {
		c.IOs += int64((1+2*p.c0)*s + p.lens[i+1])
		for j, r := 0, s/p.g; j < r; j++ {
			lo, hi := j*s/r, (j+1)*s/r
			c.RoundTrips += 2 + probes*scan(hi-lo, p.window)
			if i == 0 {
				c.RoundTrips += route.CellsReads(s, lo, hi) - 1
			}
		}
	}
	return c.Add(sorted(p.lens[p.rounds], p.rCap))
}
