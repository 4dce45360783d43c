package route

import (
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
)

// buildCells writes n block-cells: cells listed in occ hold a full block of
// occupied elements keyed by cell index; others are empty.
func buildCells(a extmem.Array, occ map[int]bool) {
	b := a.B()
	buf := make([]extmem.Element, b)
	for j := 0; j < a.Len(); j++ {
		for t := 0; t < b; t++ {
			if occ[j] {
				buf[t] = extmem.Element{Key: uint64(j), Val: uint64(j*100 + t), Pos: uint64(j*b + t), Flags: extmem.FlagOccupied}
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(j, buf)
	}
}

// cellKeys reads the per-cell occupancy: key of the first element of each
// occupied cell, -1 for empty cells.
func cellKeys(a extmem.Array) []int {
	b := a.B()
	buf := make([]extmem.Element, b)
	out := make([]int, a.Len())
	for j := 0; j < a.Len(); j++ {
		a.Read(j, buf)
		if buf[0].Occupied() {
			out[j] = int(buf[0].Key)
		} else {
			out[j] = -1
		}
	}
	return out
}

func occupiedSets(r *rand.Rand, n, count int) map[int]bool {
	occ := map[int]bool{}
	perm := r.Perm(n)
	for i := 0; i < count; i++ {
		occ[perm[i]] = true
	}
	return occ
}

func TestCompactTightCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, lpp := range []int{0, 1, 2} { // windowed auto, naive, fixed-2
		for _, n := range []int{1, 2, 3, 7, 16, 33, 64, 100} {
			for _, density := range []int{0, 1, n / 2, n} {
				if density > n {
					continue
				}
				env := newEnv(n+8, 4, 64, 5)
				a := env.D.Alloc(n)
				occ := occupiedSets(r, n, density)
				buildCells(a, occ)
				got := CompactBlocksTight(env, a, PredOccupied, lpp)
				if got != density {
					t.Fatalf("lpp=%d n=%d density=%d: count=%d", lpp, n, density, got)
				}
				keys := cellKeys(a)
				// Prefix = occupied cells' keys in increasing order
				// (order preservation); suffix empty.
				var want []int
				for j := 0; j < n; j++ {
					if occ[j] {
						want = append(want, j)
					}
				}
				for i := 0; i < n; i++ {
					if i < len(want) {
						if keys[i] != want[i] {
							t.Fatalf("lpp=%d n=%d density=%d: cell %d = %d, want %d", lpp, n, density, i, keys[i], want[i])
						}
					} else if keys[i] != -1 {
						t.Fatalf("lpp=%d n=%d density=%d: cell %d not empty", lpp, n, density, i)
					}
				}
			}
		}
	}
}

func TestCompactTightPreservesBlockContents(t *testing.T) {
	env := newEnv(24, 4, 64, 5)
	a := env.D.Alloc(16)
	occ := map[int]bool{3: true, 9: true, 15: true}
	buildCells(a, occ)
	CompactBlocksTight(env, a, PredOccupied, 0)
	buf := make([]extmem.Element, 4)
	wantCells := []int{3, 9, 15}
	for i, wc := range wantCells {
		a.Read(i, buf)
		for tt := 0; tt < 4; tt++ {
			if buf[tt].Val != uint64(wc*100+tt) || buf[tt].Pos != uint64(wc*4+tt) {
				t.Fatalf("cell %d element %d content mangled: %+v", i, tt, buf[tt])
			}
		}
		// Aux must record the origin for later expansion.
		if buf[0].Aux() != wc {
			t.Fatalf("cell %d aux = %d, want origin %d", i, buf[0].Aux(), wc)
		}
	}
}

func TestCompactThenExpandIsIdentity(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	// At B = 4, M = 64 the cache holds 16 cells and the routing window is
	// 8: 15 is the largest array that fits the cache beside a block of
	// slack, 16 the first that does not, 8 and 9 sit on either side of one
	// window. With held words checked out by the caller the same sizes land
	// on the other side of every cache-dependent choice, and the expansion
	// runs one level a group: 36 words free at B = 4 is a group size of 1.
	// The compaction also runs the naive network, one level a group forced.
	for _, lpp := range []int{0, 1} {
		for _, held := range []int{0, 64/2 - 4} {
			for _, n := range []int{1, 2, 5, 8, 9, 15, 16, 37, 64} {
				for trial := 0; trial < 4; trial++ {
					env := newEnv(n+8, 4, 64, 5)
					a := env.D.Alloc(n)
					cnt := r.IntN(n + 1)
					occ := occupiedSets(r, n, cnt)
					buildCells(a, occ)
					before := cellKeys(a)
					env.Cache.Acquire(held)
					CompactBlocksTight(env, a, PredOccupied, lpp)
					ExpandInto(env, a, a, PredOccupied, nil)
					env.Cache.Release(held)
					if hw := env.Cache.HighWater(); hw > env.M {
						t.Fatalf("lpp=%d held=%d n=%d: used %d words of private memory, M=%d", lpp, held, n, hw, env.M)
					}
					after := cellKeys(a)
					for j := range before {
						if before[j] != after[j] {
							t.Fatalf("lpp=%d held=%d n=%d trial=%d: cell %d was %d now %d", lpp, held, n, trial, j, before[j], after[j])
						}
					}
				}
			}
		}
	}
}

func TestButterflyIOMatchesPassCount(t *testing.T) {
	for _, cfg := range []struct{ n, m, lpp, held int }{
		{64, 48, 0, 0}, {64, 48, 1, 0}, {128, 24, 0, 0}, {100, 48, 2, 0}, {1000, 512, 0, 0}, {37, 1024, 0, 0},
		// The largest array that fits the cache and the first that does not,
		// a single cell, and an array that would fit were the caller not
		// holding half the cache.
		{127, 512, 0, 0}, {128, 512, 0, 0}, {1, 48, 0, 0}, {1, 48, 1, 0}, {100, 512, 0, 256},
		// Two levels a group under a held cache: each window loads the 47
		// cells half the free cache holds, not the w = 4 a group moves a cell.
		{1000, 512, 2, 128},
		// A whole number of windows and one cell more, at two window sizes:
		// hw = 5 at m = 48, 63 at m = 512.
		{20, 48, 0, 0}, {21, 48, 0, 0}, {189, 512, 0, 0}, {190, 512, 0, 0},
	} {
		for _, expand := range []bool{false, true} {
			if expand && cfg.lpp > 0 { // an expansion takes its group size from the cache
				continue
			}
			env := newEnv(cfg.n+8, 4, cfg.m, 5)
			a := env.D.Alloc(cfg.n)
			r := rand.New(rand.NewPCG(3, 3))
			buildCells(a, occupiedSets(r, cfg.n, cfg.n/3))
			env.Cache.Acquire(cfg.held)
			if expand {
				CompactBlocksTight(env, a, PredOccupied, cfg.lpp)
			}
			env.D.ResetStats()
			if expand {
				ExpandInto(env, a, a, PredOccupied, nil)
			} else {
				CompactBlocksTight(env, a, PredOccupied, cfg.lpp)
			}
			if got, want := env.D.Stats().Cost(), CompactCost(cfg.n, cfg.lpp, 4, cfg.m-cfg.held); got != want {
				t.Errorf("n=%d m=%d lpp=%d held=%d expand=%v: measured %+v, predicted %+v", cfg.n, cfg.m, cfg.lpp, cfg.held, expand, got, want)
			}
			if hw := env.Cache.HighWater(); hw > cfg.m {
				t.Errorf("n=%d m=%d lpp=%d held=%d expand=%v: used %d words of private memory", cfg.n, cfg.m, cfg.lpp, cfg.held, expand, hw)
			}
		}
	}
}

// ConsolidateCompact must leave, bit for bit, what Consolidate followed by
// CompactBlocksTight leaves — the routing labels included — at the cost its
// predictors state: the butterfly's passes and nothing else. It runs in its
// Into form, into blocks inside a longer array that held junk.
func TestConsolidateCompactMatchesThePair(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for _, cfg := range []struct{ n, b, m int }{
		{1, 4, 64}, {2, 4, 64}, {12, 4, 64}, {13, 4, 64}, {14, 4, 64}, {16, 4, 64}, {17, 4, 64}, {33, 4, 64}, {100, 4, 64},
		{9, 4, 28}, {40, 4, 40}, {41, 4, 72}, {300, 8, 256}, {125, 4, 512}, {126, 4, 512}, {1000, 4, 512},
		// A whole number of windows and one cell more, whose last window is
		// cell n−1 alone, at two window sizes: hw = 6 at m = 64, 62 at 512.
		{18, 4, 64}, {19, 4, 64}, {24, 4, 64}, {25, 4, 64}, {186, 4, 512}, {187, 4, 512},
	} {
		for _, kept := range []int{0, 1, cfg.n * cfg.b / 3, cfg.n*cfg.b - 1, cfg.n * cfg.b} {
			in := randomMarkedInput(r, cfg.n*cfg.b, min(kept, cfg.n*cfg.b))
			pair := newEnv(3*cfg.n, cfg.b, cfg.m, 3)
			a := pair.D.Alloc(cfg.n)
			writeElems(a, in)
			want, wantKept := Consolidate(pair, a, extmem.Element.Marked)
			CompactBlocksTight(pair, want, PredOccupied, 0)

			// Into the middle of a longer array full of junk: every block of
			// the output is written, and none past it.
			env := newEnv(3*cfg.n+2, cfg.b, cfg.m, 3)
			a = env.D.Alloc(cfg.n)
			writeElems(a, in)
			outer := env.D.Alloc(cfg.n + 2)
			junk := make([]extmem.Element, (cfg.n+2)*cfg.b)
			for t := range junk {
				junk[t] = extmem.Element{Key: uint64(t), Flags: extmem.FlagOccupied}
			}
			writeElems(outer, junk)
			got := outer.Slice(1, cfg.n+1)
			env.D.ResetStats()
			gotKept := ConsolidateCompactInto(env, a, got, extmem.Element.Marked)
			st := env.D.Stats()
			if gotKept != wantKept || !slices.Equal(readElems(got), readElems(want)) {
				t.Fatalf("n=%d b=%d m=%d kept=%d: output differs from Consolidate + CompactBlocksTight (kept %d, want %d)", cfg.n, cfg.b, cfg.m, kept, gotKept, wantKept)
			}
			if all := readElems(outer); !slices.Equal(all[:cfg.b], junk[:cfg.b]) || !slices.Equal(all[(cfg.n+1)*cfg.b:], junk[(cfg.n+1)*cfg.b:]) {
				t.Fatalf("n=%d b=%d m=%d kept=%d: a block outside the output was written", cfg.n, cfg.b, cfg.m, kept)
			}
			if !slices.Equal(readElems(a), padTo(in, cfg.n*cfg.b)) {
				t.Fatalf("n=%d b=%d m=%d kept=%d: input modified", cfg.n, cfg.b, cfg.m, kept)
			}
			if want := ConsolidateCompactCost(cfg.n, cfg.b, cfg.m); st.Cost() != want {
				t.Errorf("n=%d b=%d m=%d kept=%d: measured %+v, predicted %+v", cfg.n, cfg.b, cfg.m, kept, st.Cost(), want)
			}
			if hw, used := env.Cache.HighWater(), env.Cache.Used(); hw > cfg.m || used != 0 {
				t.Errorf("n=%d b=%d m=%d kept=%d: used %d words of private memory, %d left checked out", cfg.n, cfg.b, cfg.m, kept, hw, used)
			}
		}
	}
}

func padTo(elems []extmem.Element, n int) []extmem.Element {
	return append(slices.Clone(elems), make([]extmem.Element, n-len(elems))...)
}

// TestWindowedBeatsNaive pins the windowing ablation: grouped levels make
// fewer passes than the naive per-level network.
func TestWindowedBeatsNaive(t *testing.T) {
	n := 256
	run := func(lpp int) int64 {
		env := newEnv(n+8, 4, 256, 5)
		a := env.D.Alloc(n)
		r := rand.New(rand.NewPCG(4, 4))
		buildCells(a, occupiedSets(r, n, n/4))
		env.D.ResetStats()
		CompactBlocksTight(env, a, PredOccupied, lpp)
		return env.D.Stats().Total()
	}
	naive, windowed := run(1), run(0)
	if windowed*2 > naive {
		t.Fatalf("windowed (%d I/Os) should be well under naive (%d I/Os) at m=16", windowed, naive)
	}
}

// TestCompactTightWithCallerPredicate: the cells that count are the ones
// the caller's predicate picks, not the occupied ones — here three of
// sixteen full cells, which come out counted and in their original order.
func TestCompactTightWithCallerPredicate(t *testing.T) {
	env := newEnv(24, 4, 64, 5)
	a := env.D.Alloc(16)
	all := map[int]bool{}
	for j := 0; j < 16; j++ {
		all[j] = true
	}
	buildCells(a, all)
	picked := func(blk []extmem.Element) bool { k := blk[0].Key; return k == 2 || k == 5 || k == 11 }
	if cnt := CompactBlocksTight(env, a, picked, 0); cnt != 3 {
		t.Fatalf("picked-cell count = %d, want 3", cnt)
	}
	if keys := cellKeys(a); !slices.Equal(keys[:3], []int{2, 5, 11}) {
		t.Fatalf("picked cells not compacted in order: %v", keys[:4])
	}
}

// Expansion targets must be strictly increasing, never left of the cell and
// inside the array: every geometry — the whole array in the cache, one routing group, several
// — rejects a violation, including an inversion between cells of different
// residue classes, which the network would route without a collision.
func TestExpandRejectsNonMonotoneTargets(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		targets []int // Aux of cells 0, 1, ...
	}{
		{"fits-cache/decreasing", 8, []int{5, 2}},
		{"fits-cache/equal", 8, []int{3, 3}},
		{"fits-cache/left-of-cell", 8, []int{0, 2, 1}},
		{"two-groups/decreasing", 16, []int{5, 2}},
		{"two-groups/cross-class-inversion", 16, []int{9, 6}},
		{"two-groups/equal", 16, []int{7, 7}},
		{"two-groups/left-of-cell", 16, []int{0, 4, 1}},
		{"three-groups/cross-class-inversion", 32, []int{9, 6}},
		{"fits-cache/past-the-end", 8, []int{3, 8}},
		{"two-groups/past-the-end", 16, []int{3, 16}},
		{"three-groups/past-the-end", 32, []int{3, 32}},
		{"five-groups/cross-class-inversion", 640, []int{600, 300}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(c.n+8, 4, 64, 5)
			a := env.D.Alloc(c.n)
			buf := make([]extmem.Element, 4)
			for j := 0; j < c.n; j++ {
				for tt := range buf {
					buf[tt] = extmem.Element{}
					if j < len(c.targets) {
						buf[tt] = extmem.Element{Key: uint64(j), Flags: extmem.FlagOccupied}
						buf[tt].SetAux(c.targets[j])
					}
				}
				a.Write(j, buf)
			}
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid expansion targets")
				}
			}()
			ExpandInto(env, a, a, PredOccupied, nil)
		})
	}
}

// A group size the free cache cannot hold the window of panics, whatever M
// is: at B = 4, M = 64, two levels a group need a stash of 8 cells, which
// fits M but not the 24 words a caller holding 40 leaves. An expansion takes
// its group size from the cache, so it panics below RouteFree: one level a
// group needs a stash of 4 cells, more than the 12 words a caller holding 52
// leaves.
func TestWindowBeyondFreeCachePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		held int
		op   func(env *extmem.Env, a extmem.Array)
	}{
		{"compact", 40, func(env *extmem.Env, a extmem.Array) { CompactBlocksTight(env, a, PredOccupied, 2) }},
		{"expand", 52, func(env *extmem.Env, a extmem.Array) { ExpandInto(env, a, a, PredOccupied, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(72, 4, 64, 5)
			a := env.D.Alloc(64)
			env.Cache.Acquire(c.held)
			defer func() {
				if recover() == nil {
					t.Errorf("no panic; used %d words of private memory, M=%d", env.Cache.HighWater(), env.M)
				}
			}()
			c.op(env, a)
		})
	}
}

// An expansion of more cells than its destination holds panics before it
// reads or writes a block.
func TestExpandIntoRejectsLongerSource(t *testing.T) {
	env := newEnv(16, 4, 64, 5)
	src, dst := env.D.Alloc(9), env.D.Alloc(7)
	env.D.ResetStats()
	defer func() {
		if recover() == nil {
			t.Error("no panic on a source longer than its destination")
		}
		if st := env.D.Stats(); st.Reads+st.Writes != 0 {
			t.Errorf("%d reads and %d writes before the panic", st.Reads, st.Writes)
		}
	}()
	ExpandInto(env, src, dst, PredOccupied, nil)
}

// TestFigure1Example reproduces the concrete 7-cell instance drawn in the
// paper's Figure 1: occupied cells with leftward distance labels
// 2,3,3,6,8,8,9 compact to a tight prefix without collisions.
func TestFigure1Example(t *testing.T) {
	// Figure 1 shows 16 cells; occupied cells sit at positions where
	// label = #empties to the left. Labels 2,3,3,6,8,8,9 correspond to
	// occupied positions: rank k at position p with p - k = label.
	labels := []int{2, 3, 3, 6, 8, 8, 9}
	occ := map[int]bool{}
	for k, d := range labels {
		occ[k+d] = true // position = rank + distance
	}
	n := 16
	env := newEnv(n+8, 2, 32, 5)
	a := env.D.Alloc(n)
	buildCells(a, occ)
	cnt := CompactBlocksTight(env, a, PredOccupied, 1) // level-by-level, as drawn
	if cnt != len(labels) {
		t.Fatalf("count = %d, want %d", cnt, len(labels))
	}
	keys := cellKeys(a)
	for k, d := range labels {
		if keys[k] != k+d {
			t.Fatalf("cell %d should hold the block from position %d, got %d", k, k+d, keys[k])
		}
	}
}

// benchCells is a compaction input at the benchmark's block size: n cells
// of B = 8, every third one occupied, against a cache of m.
func benchCells(n, m int) (*extmem.Env, extmem.Array) {
	const b = 8
	env := newEnv(n, b, m, 9)
	a := env.D.Alloc(n)
	buf := make([]extmem.Element, n*b)
	for i := range buf {
		if i/b%3 == 0 {
			buf[i] = extmem.Element{Key: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		}
	}
	a.WriteRange(0, n, buf)
	return env, a
}

// One routing runs thousands of cache chunks; its allocations must be per
// call and per level group (buffers, closures), never per chunk. At the
// benchmark geometry (n = 2^13, M = 4096) the per-chunk closures used to
// cost over 2 000 objects in either direction.
func TestCompactBlocksTightAllocCeiling(t *testing.T) {
	env, a := benchCells(1<<13, 4096)
	if got := testing.AllocsPerRun(3, func() {
		CompactBlocksTight(env, a, PredOccupied, 0)
	}); got > 4 {
		t.Fatalf("CompactBlocksTight allocated %v objects, want <= 4", got)
	}
}

func TestExpandIntoAllocCeiling(t *testing.T) {
	env, a := benchCells(1<<13, 4096)
	CompactBlocksTight(env, a, PredOccupied, 0)
	// Each run expands the prefix to where it came from and leaves the
	// targets in place; the next one finds the cells already home.
	if got := testing.AllocsPerRun(3, func() {
		ExpandInto(env, a, a, PredOccupied, nil)
	}); got > 4 {
		t.Fatalf("ExpandInto allocated %v objects, want <= 4", got)
	}
}

// One sub-benchmark per arm of the dispatch: the whole array in the cache,
// and the network at two and at four routing groups.
func BenchmarkCompactBlocksTight(b *testing.B) {
	for _, g := range []struct {
		name string
		n, m int
	}{{"fits-cache", 460, 4096}, {"two-groups", 1 << 13, 4096}, {"four-groups", 1 << 13, 512}} {
		b.Run(g.name, func(b *testing.B) {
			env, a := benchCells(g.n, g.m)
			env.D.ResetStats()
			b.ReportAllocs()
			for b.Loop() {
				CompactBlocksTight(env, a, PredOccupied, 0)
			}
			b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/float64(a.Len()), "ios/block")
		})
	}
}
