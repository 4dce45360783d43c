package obsort

import (
	"errors"
	"fmt"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// This file implements Leighton's columnsort, the deterministic sort behind
// the Chaudhry–Cormen approach whose size limit the paper cites: an r × s
// column-major matrix with r ≥ 2(s−1)² is sorted by four column sorts and
// fixed permutations, so its trace is a function of (n, B, free) alone.
//
// Its eight steps run here as three read-once, write-once passes over the
// array, in place — or from a source: the first pass reads it and writes
// the array, and no pass writes the source. Column j is blocks
// [j·r/B, (j+1)·r/B), and slot k of column j — r/s elements, whole blocks —
// stands for chunk j of column k of the transposed matrix, so the
// transposes cost no pass and no scratch:
//
//   - A (steps 1–2): read column j, sort it, deal element t into slot
//     t mod s, write the column back.
//   - B (steps 3–4): gather slot k of every column — transposed column k —
//     in one vectored read, sort it and write it back where it was read.
//     Column m now holds, slot by slot, untransposed column m.
//   - C (steps 5–8): read column m, sort it, merge its top half with the
//     bottom half of column m−1 held in the cache, and write that window,
//     [m·r − r/2, m·r + r/2), to its final place. Sorting the windows is
//     the shift / sort / unshift triple; the two outer half columns are
//     final as soon as they are sorted.
//
// That is 6 block I/Os per block: s reads and s writes in each of A and B,
// s reads and s+1 writes in C. Each pass sends every write together with
// the read of the pass's next batch, one round trip for both, so A and B
// take s+1 round trips each and C s+2 (its last window and the last half
// column are written apart): 3s+4 in all, where one call per read and per
// write took 6s+1. A pass never shares a round trip with the next, so each
// pass's span and price stay its own. Only A sorts from scratch: what B
// and C read is s sorted runs (the slots), which they merge. C's windows
// come out in sorted order, so a caller that only reads the result once
// can take them from C as they are merged instead of from the array: C
// then writes nothing, 5 I/Os per block in 3s+2 round trips.

// ErrColumnGeometry reports an array Columnsort cannot sort in the cache
// free at the call: no column count s meets the size limit and the block
// alignment of its passes.
var ErrColumnGeometry = errors.New("obsort: no columnsort matrix fits")

// ColumnGeometry returns the r × s matrix Columnsort lays nBlocks blocks of
// b elements on, given free elements of the cache not checked out: the
// smallest s ≥ 2 with r = nBlocks·b/s, slots of whole blocks (s·B | r),
// half columns of whole blocks (B | r/2), Leighton's limit r ≥ 2(s−1)², and
// a column plus its deal buffer in the cache (2r ≤ free). The smallest s is
// the widest column and the fewest round trips. An empty array needs no
// matrix. Otherwise, where no s qualifies, it returns ErrColumnGeometry
// naming the geometry.
func ColumnGeometry(nBlocks, b, free int) (r, s int, err error) {
	if r, s, ok := columnShape(nBlocks, b, free); ok {
		return r, s, nil
	}
	return 0, 0, fmt.Errorf("%w: n=%d blocks of B=%d with %d elements of cache free (want r = nB/s, s ≥ 2, s·B | r, B | r/2, r ≥ 2(s−1)², 2r ≤ free)",
		ErrColumnGeometry, nBlocks, b, free)
}

// columnShape is ColumnGeometry without the error value, which the callers
// that only price the engine do not allocate.
func columnShape(nBlocks, b, free int) (r, s int, ok bool) {
	ne := nBlocks * b
	if ne == 0 {
		return 0, 0, true
	}
	// r = ne/s falls and 2(s−1)² rises with s: past the first s over the
	// limit, every larger one is over it too.
	for s = 2; ne >= 2*s*(s-1)*(s-1); s++ {
		if r = ne / s; ne%s == 0 && r%(s*b) == 0 && r%(2*b) == 0 && 2*r <= free {
			return r, s, true
		}
	}
	return 0, 0, false
}

// ColumnCost predicts the exact block I/Os and vectored round trips of one
// Columnsort call entered with free elements of the cache not checked out,
// for a geometry ColumnGeometry admits: three passes of 2 I/Os per block,
// and 3s+4 round trips.
func ColumnCost(nBlocks, b, free int) obs.Cost { return columnCost(nBlocks, b, free, false) }

// columnCost is ColumnCost, or with visit the price of a sort whose last
// pass hands its windows to a visitor: s reads and no write in C, 5 I/Os
// per block in 3s+2 round trips.
func columnCost(nBlocks, b, free int, visit bool) obs.Cost {
	_, s, ok := columnShape(nBlocks, b, free)
	if !ok || nBlocks == 0 {
		return obs.Cost{}
	}
	if visit {
		return obs.Cost{IOs: 5 * int64(nBlocks), RoundTrips: 3*int64(s) + 2}
	}
	return obs.Cost{IOs: 6 * int64(nBlocks), RoundTrips: 3*int64(s) + 4}
}

// Columnsort sorts the array in place with the fused three-pass columnsort
// above, on ColumnGeometry's matrix for the cache free at the call. The
// address trace depends only on (len, B, free); it allocates no disk
// scratch and checks out 2r elements of the cache. It panics with
// ErrColumnGeometry where ColumnGeometry does.
func Columnsort(env *extmem.Env, a extmem.Array) { columnsort(env, a, a, nil, nil) }

// columnsort is Columnsort of src into a, as long as src and possibly src
// itself: pass A reads src, handing each column to first when it is not
// nil, and writes a, and B and C run in a. Where visit is not nil, C hands
// each final window to visit, in sorted order with the index of its first
// block, instead of writing it, and a is left unsorted.
func columnsort(env *extmem.Env, src, a extmem.Array, first func(chunk []extmem.Element), visit func(lo int, chunk []extmem.Element)) {
	n := a.Len()
	b := a.B()
	if src.Len() != n {
		panic(fmt.Sprintf("obsort: columnsort of %d blocks into %d", src.Len(), n))
	}
	free := env.M - env.Cache.Used()
	r, s, err := ColumnGeometry(n, b, free)
	if err != nil {
		panic(err)
	}
	if n == 0 {
		return
	}
	sp := env.Obs.Start("columnsort")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetAttrInt("columns", int64(s))
	sp.SetPredicted(columnCost(n, b, free, visit != nil))
	defer env.Obs.End(sp)

	rb, sb, per := r/b, r/(s*b), r/s // blocks per column, per slot; elements per slot
	buf := env.Cache.Buf(2 * r)
	col, aux := buf[:r], buf[r:]

	// Every pass sends each batch's write with the next batch's read, one
	// interaction for both; a pass starts with a read of its own and ends
	// with a write of its own.
	spa := env.Obs.Start("sort-deal")
	src.ReadRange(0, rb, col)
	for j := 0; j < s; j++ {
		if first != nil {
			first(col)
		}
		sortCells(col)
		for t, e := range col {
			aux[t%s*per+t/s] = e
		}
		next := src.Slice(min(j+1, s)*rb, min(j+2, s)*rb) // empty after the last column
		a.Slice(j*rb, (j+1)*rb).Exchange(aux, next, col[:next.Len()*b])
	}
	env.Obs.End(spa)

	spb := env.Obs.Start("sort-slots")
	x := a.Disk().Batch(rb)
	for j := 0; j < s; j++ {
		x.ReadRange(a, j*rb, j*rb+sb)
	}
	x.Do(nil, col)
	for k := 0; k < s; k++ {
		mergeRuns(col, per, aux)
		// Slot k of every column goes back from col, and slot k+1 lands in
		// col: the store takes the write before it fills the read.
		x = a.Disk().Batch(rb)
		for j := 0; j < s; j++ {
			x.WriteRange(a, j*rb+k*sb, j*rb+(k+1)*sb)
			if k+1 < s {
				x.ReadRange(a, j*rb+(k+1)*sb, j*rb+(k+2)*sb)
			}
		}
		x.Do(col, col)
	}
	env.Obs.End(spb)

	// aux[r/2:] carries the bottom half of the previous column; the window
	// is merged into aux in front of it. The window's write carries the
	// next column's read into aux, and the two buffers trade places: the
	// column just merged holds the carried half in its top half.
	spc := env.Obs.Start("sort-merge")
	half, hb := r/2, rb/2
	a.ReadRange(0, rb, col)
	for m := 0; m < s; m++ {
		mergeRuns(col, per, aux[:half])
		win, lo := col[:half], 0 // the first half column is final
		if m > 0 {
			mergeBehind(aux, col[:half])
			win, lo = aux, m*rb-hb
		}
		next := a.Slice(min(m+1, s)*rb, min(m+2, s)*rb)
		out := a.Slice(lo, lo+len(win)/b)
		if visit != nil {
			visit(lo, win)
			out, win = a.Slice(0, 0), nil
		}
		out.Exchange(win, next, aux[:next.Len()*b])
		col, aux = aux, col
	}
	if visit != nil {
		visit(n-hb, aux[half:])
	} else {
		a.WriteRange(n-hb, n, aux[half:])
	}
	env.Obs.End(spc)
	env.Cache.Free(buf)
}
