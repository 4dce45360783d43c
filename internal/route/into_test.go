package route

import (
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
)

// intoGeometries cover each arm of the routing dispatch at B = 4: an array
// that fits the cache, one routing group, two, and three — the last also at
// the shape of the benchmark ORAM's level-6 table, 640 cells whose top group
// strides 256 classes of two and three cells.
var intoGeometries = []struct{ n, m int }{
	{1, 64}, {12, 64}, {15, 64}, {16, 64}, {33, 64}, {100, 64}, {125, 512}, {300, 128}, {1000, 64}, {640, 192},
}

// CompactInto must leave, bit for bit, what CompactBlocksTight leaves on the
// cells of its runs copied together and converted first, for one read of
// every cell, one write of every cell, and the later passes: CompactCost's
// price, whatever runs the windows straddle.
func TestCompactIntoMatchesCopyThenCompact(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	const b = 4
	for _, cfg := range intoGeometries {
		// The cells are those of three arrays, every one stamped on its
		// way in.
		n1 := r.IntN(cfg.n + 1)
		n2 := r.IntN(cfg.n - n1 + 1)
		occ := occupiedSets(r, cfg.n, cfg.n/3)
		stamp := func(blk []extmem.Element) {
			for i := range blk {
				blk[i].Val += 7
			}
		}

		ref := newEnv(2*cfg.n+8, b, cfg.m, 3)
		whole := ref.D.Alloc(cfg.n)
		buildCells(whole, occ)
		cells := readElems(whole)
		stamp(cells)
		writeElems(whole, cells)
		wantCount := CompactBlocksTight(ref, whole, PredOccupied, 0)

		env := newEnv(2*cfg.n+8, b, cfg.m, 3)
		all := env.D.Alloc(cfg.n)
		buildCells(all, occ)
		out := env.D.Alloc(cfg.n)
		env.D.ResetStats()
		gotCount := CompactInto(env, out, stamp, PredOccupied, all.Slice(0, n1), all.Slice(n1, n1+n2), all.Slice(n1+n2, cfg.n))
		st := env.D.Stats()
		if gotCount != wantCount || !slices.Equal(readElems(out), readElems(whole)) {
			t.Fatalf("n=%d m=%d (%d+%d+%d): output differs from copy + CompactBlocksTight (count %d, want %d)",
				cfg.n, cfg.m, n1, n2, cfg.n-n1-n2, gotCount, wantCount)
		}
		if want := CompactCost(cfg.n, 0, b, cfg.m); st.Cost() != want {
			t.Errorf("n=%d m=%d (%d+%d): measured %+v, predicted %+v", cfg.n, cfg.m, n1, n2, st.Cost(), want)
		}
		if hw, used := env.Cache.HighWater(), env.Cache.Used(); hw > cfg.m || used != 0 {
			t.Errorf("n=%d m=%d: used %d words of private memory, %d left checked out", cfg.n, cfg.m, hw, used)
		}
	}
}

// ExpandInto must leave what an in-place expansion leaves on the source
// copied to the destination's prefix first, each routed cell finished, for one read of
// every source cell, one write of every destination cell, and the later
// passes; and it must leave the source alone.
func TestExpandIntoMatchesCopyThenExpand(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 24))
	const b = 4
	finish := func(blk []extmem.Element) {
		for i := range blk {
			blk[i].Val = blk[i].Key<<32 | uint64(blk[i].CellDest())
			blk[i].Flags = extmem.FlagOccupied
		}
	}
	for _, cfg := range intoGeometries {
		for _, ns := range []int{0, 1, cfg.n / 5, cfg.n / 2, cfg.n} {
			if ns > cfg.n {
				continue
			}
			// Strictly increasing targets, none left of its cell: each
			// occupied source cell moves right by a shift that only grows.
			occ := occupiedSets(r, max(ns, 1), ns*2/3)
			shifts := make([]int, ns)
			for i := range shifts {
				shifts[i] = r.IntN(cfg.n - ns + 1)
			}
			slices.Sort(shifts)
			fill := func(src extmem.Array) {
				buildCells(src, occ)
				cells := readElems(src)
				for j := 0; j < ns; j++ {
					for i := 0; i < b; i++ {
						cells[j*b+i].SetAux(j + shifts[j])
					}
				}
				writeElems(src, cells)
			}

			ref := newEnv(2*cfg.n+8, b, cfg.m, 3)
			whole := ref.D.Alloc(cfg.n)
			prefix := whole.Slice(0, ns)
			fill(prefix)
			ExpandInto(ref, whole, whole, PredOccupied, nil)
			want := readElems(whole)
			for j := 0; j < cfg.n; j++ {
				if blk := want[j*b : (j+1)*b]; PredOccupied(blk) {
					finish(blk)
				}
			}

			env := newEnv(2*cfg.n+8, b, cfg.m, 3)
			src := env.D.Alloc(ns)
			fill(src)
			before := readElems(src)
			dst := env.D.Alloc(cfg.n)
			stale := make([]extmem.Element, cfg.n*b)
			for i := range stale {
				stale[i] = extmem.Element{Key: 99, Flags: extmem.FlagOccupied} // what a rebuilt table holds beforehand
			}
			writeElems(dst, stale)
			env.D.ResetStats()
			ExpandInto(env, src, dst, PredOccupied, finish)
			st := env.D.Stats()
			if !slices.Equal(readElems(dst), want) {
				t.Fatalf("n=%d ns=%d m=%d: output differs from copy + in-place expansion + finish", cfg.n, ns, cfg.m)
			}
			if !slices.Equal(readElems(src), before) {
				t.Fatalf("n=%d ns=%d m=%d: source modified", cfg.n, ns, cfg.m)
			}
			if want := ExpandIntoCost(ns, cfg.n, b, cfg.m); st.Cost() != want {
				t.Errorf("n=%d ns=%d m=%d: measured %+v, predicted %+v", cfg.n, ns, cfg.m, st.Cost(), want)
			}
			if hw, used := env.Cache.HighWater(), env.Cache.Used(); hw > cfg.m || used != 0 {
				t.Errorf("n=%d ns=%d m=%d: used %d words of private memory, %d left checked out", cfg.n, ns, cfg.m, hw, used)
			}
		}
	}
}
