package obsort

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
)

// TestOrderOfKnowsOnlyByKey: the inline arm is taken by ByKey alone; an
// order that compares as ByKey does but is another function, such as the
// method expression or the oracle's closure, takes the generic kernels.
func TestOrderOfKnowsOnlyByKey(t *testing.T) {
	for _, c := range []struct {
		name  string
		less  Less
		byKey bool
	}{
		{"ByKey", ByKey, true},
		{"Element.Less", extmem.Element.Less, false},
		{"closure", byKeyGeneric, false},
		{"ByPos", ByPos, false},
		{"ByRawKey", ByRawKey, false},
	} {
		if got := orderOf(c.less).byKey; got != c.byKey {
			t.Errorf("%s: inline arm %v, want %v", c.name, got, c.byKey)
		}
	}
}

// kernelCells returns n occupied cells with keys from [0, keys) and
// distinct Pos, so that ByKey orders them totally.
func kernelCells(r *rand.Rand, n int, keys uint64) []extmem.Element {
	cells := make([]extmem.Element, n)
	for i := range cells {
		cells[i] = extmem.Element{Key: r.Uint64N(keys), Val: r.Uint64(), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	return cells
}

// TestIntrosortByKey sorts against slices.SortFunc under ByKey around the
// insertion-sort cut-off and beyond it, on inputs that are random, heavy
// with duplicate keys, sorted, reversed, sorted but for the largest first,
// all equal (empty cells) and mixed with empty cells, at the full depth limit and at depths that force the
// heapsort at once or after one partition.
func TestIntrosortByKey(t *testing.T) {
	r := rand.New(rand.NewPCG(50, 2))
	inputs := func(n int) map[string][]extmem.Element {
		rnd, dup := kernelCells(r, n, 1<<40), kernelCells(r, n, 3)
		sorted := slices.Clone(rnd)
		slices.SortFunc(sorted, func(x, y extmem.Element) int { return compare(ByKey, x, y) })
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		rotated := slices.Clone(sorted) // the largest first, then ascending
		if n > 0 {
			copy(rotated[1:], sorted[:n-1])
			rotated[0] = sorted[n-1]
		}
		mixed := slices.Clone(dup)
		for i := range mixed {
			if r.IntN(2) == 0 {
				mixed[i] = extmem.Element{}
			}
		}
		return map[string][]extmem.Element{
			"random": rnd, "dup": dup, "sorted": sorted, "reversed": reversed,
			"rotated": rotated, "empty": make([]extmem.Element, n), "mixed": mixed,
		}
	}
	for _, n := range []int{0, 1, 2, 11, 12, 13, 100, 2048} {
		for kind, in := range inputs(n) {
			want := slices.Clone(in)
			slices.SortFunc(want, func(x, y extmem.Element) int { return compare(ByKey, x, y) })
			for _, depth := range []int{2 * bits.Len(uint(n)), 0, 1} {
				got := slices.Clone(in)
				introsortByKey(got, depth)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s depth=%d: introsort differs from slices.SortFunc", n, kind, depth)
				}
			}
		}
	}
}

// TestByKeyArmAllocs pins that choosing the inline arm allocates nothing:
// warm ByKey calls of Bitonic and Columnsort at the benchmark geometry
// allocate 0 objects.
func TestByKeyArmAllocs(t *testing.T) {
	g := benchGeometry
	for _, e := range []struct {
		name string
		sort func(*extmem.Env, extmem.Array, Less)
	}{{"Bitonic", Bitonic}, {"Columnsort", Columnsort}} {
		env := extmem.NewEnv(g.n, g.b, g.m, 1)
		a := env.D.Alloc(g.n)
		fillArray(env, a, genKeys(rand.New(rand.NewPCG(5, 9)), g.n*g.b, "rand"))
		e.sort(env, a, ByKey) // warm the cache slab and the disk's scratch
		if got := testing.AllocsPerRun(3, func() { e.sort(env, a, ByKey) }); got != 0 {
			t.Errorf("%s under ByKey: %v allocations per call, want 0", e.name, got)
		}
	}
}

// BenchmarkInCacheKernels times the in-cache kernels of the deterministic
// engines at the benchmark's window, C = 2 048 elements, on the ByKey arm
// and on the generic arm (ByKey through a closure): bitonic's window sort
// of a random window, the 11 compare-exchange levels that merge a bitonic
// window, and one 1 024 + 1 024 merge of columnsort. Each iteration first copies the 64 KiB input into
// place, a few µs of every figure.
func BenchmarkInCacheKernels(b *testing.B) {
	const c = 2048
	r := rand.New(rand.NewPCG(50, 3))
	random := kernelCells(r, c, 1<<40)
	halves := slices.Clone(random) // two ascending runs, what a merge reads
	for _, h := range [][]extmem.Element{halves[:c/2], halves[c/2:]} {
		slices.SortFunc(h, func(x, y extmem.Element) int { return compare(ByKey, x, y) })
	}
	bitonic := slices.Clone(halves) // ascending then descending, what a merging level reads
	slices.Reverse(bitonic[c/2:])
	win, scratch := make([]extmem.Element, c), make([]extmem.Element, c/2)
	kernels := []struct {
		name string
		in   []extmem.Element
		run  func(order)
	}{
		{"window-sort", random, func(o order) { o.sort(win, false) }},
		{"exchange-levels", bitonic, func(o order) {
			for stride := c / 2; stride > 0; stride /= 2 {
				o.exchangeLevel(win, stride, 0, false)
			}
		}},
		{"merge", halves, func(o order) { o.mergeRuns(win, c/2, scratch) }},
	}
	for _, k := range kernels {
		for _, arm := range []struct {
			name string
			less Less
		}{{"ByKey", ByKey}, {"generic", byKeyGeneric}} {
			b.Run(fmt.Sprintf("%s/%s", k.name, arm.name), func(b *testing.B) {
				o := orderOf(arm.less)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(win, k.in)
					k.run(o)
				}
			})
		}
	}
}
