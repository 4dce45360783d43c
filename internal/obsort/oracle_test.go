package obsort

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

// The sorters' differential oracle: every engine this package owns, and the
// one Pick names for the call (auto), under every exported order, against a sort.SliceStable reference over the shared
// corpus (workload.SortCorpus), at cache sizes from M/B = 4 to 512. The
// sibling test in internal/core runs core.Sort, the auto engine through
// core.SortWith, and emsort over the same corpus.

// oracleOrder is one order under test. ByRawKey has no empties-last rule,
// so an engine's +infinity padding is not last under it; it is exercised
// only where no engine pads — a fully occupied power-of-two block count.
type oracleOrder struct {
	name   string
	less   Less
	padded bool
}

// oracleOrders are the orders under test.
var oracleOrders = []oracleOrder{
	{"ByKey", ByKey, true},
	{"ByPos", ByPos, true},
	{"ByRawKey", ByRawKey, false},
}

// layCase writes the case into a fresh array and returns every cell of the
// array (the slots plus the empty fill of the last block) in reference
// order under less.
func layCase(env *extmem.Env, c workload.SortCase, b int, less Less) (extmem.Array, []extmem.Element) {
	a := env.D.Alloc(extmem.CeilDiv(len(c.Slots), b))
	cells := make([]extmem.Element, a.Len()*b)
	copy(cells, c.Slots)
	for blk := 0; blk < a.Len(); blk++ {
		a.Write(blk, cells[blk*b:(blk+1)*b])
	}
	sort.SliceStable(cells, func(i, j int) bool { return less(cells[i], cells[j]) })
	return a, cells
}

// unpadded reports whether no engine pads the case: every cell occupied and
// the block count a power of two.
func unpadded(c workload.SortCase, b int) bool {
	n := len(c.Slots)
	if n == 0 || n%b != 0 || (n/b)&(n/b-1) != 0 {
		return false
	}
	for _, e := range c.Slots {
		if !e.Occupied() {
			return false
		}
	}
	return true
}

// checkAgainstReference compares a sorted array with the reference cell by
// cell: occupancy everywhere, and (Key, Pos, Val) of every occupied cell —
// the content of an empty cell is don't-care under padded semantics.
func checkAgainstReference(t *testing.T, name string, got, ref []extmem.Element) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: array has %d cells, reference %d", name, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Occupied() != ref[i].Occupied() {
			t.Fatalf("%s: cell %d: occupied = %v, reference %v", name, i, got[i].Occupied(), ref[i].Occupied())
		}
		if ref[i].Occupied() && (got[i].Key != ref[i].Key || got[i].Pos != ref[i].Pos || got[i].Val != ref[i].Val) {
			t.Fatalf("%s: cell %d = %+v, reference %+v", name, i, got[i], ref[i])
		}
	}
}

func TestSorterDifferentialOracle(t *testing.T) {
	const b = 8
	byName := map[string]func(*extmem.Env, extmem.Array, Less){
		EngineBitonic:    Bitonic,
		EngineColumnsort: Columnsort,
		EngineZigzag:     Zigzag,
		EngineBucket:     BucketSorter,
	}
	// auto runs the engine Pick names with the cache free at the call and
	// the "mem" price, as core.Engine resolves it for an ORAM rebuild.
	auto := func(env *extmem.Env, a extmem.Array, less Less) {
		name := Pick(a.Len(), a.B(), env.M, env.M-env.Cache.Used(), "mem")
		run, ok := byName[name]
		if !ok {
			panic(fmt.Sprintf("Pick named %q, not an engine of this package", name))
		}
		run(env, a, less)
	}
	// Columnsort takes only the arrays ColumnGeometry admits; every other
	// engine takes any array.
	always := func(int, int) bool { return true }
	columns := func(n, m int) bool { _, _, err := ColumnGeometry(n, b, m); return err == nil }
	type engine struct {
		name   string
		sort   func(*extmem.Env, extmem.Array, Less)
		admits func(nBlocks, m int) bool
	}
	engines := []engine{
		{EngineBitonic, Bitonic, always},
		{EngineColumnsort, Columnsort, columns},
		{EngineZigzag, Zigzag, always},
		{EngineBucket, BucketSorter, always},
		{EngineAuto, auto, always},
	}
	ran := map[string]int{} // cases each engine sorted
	run := func(t *testing.T, corpus []workload.SortCase, m int, eng engine, ord oracleOrder) {
		for _, c := range corpus {
			if (!ord.padded && !unpadded(c, b)) || !eng.admits(extmem.CeilDiv(len(c.Slots), b), m) {
				continue
			}
			env := extmem.NewEnv(64, b, m, 7)
			a, ref := layCase(env, c, b, ord.less)
			env.Cache.ResetHighWater()
			eng.sort(env, a, ord.less)
			if used := env.Cache.Used(); used != 0 {
				t.Fatalf("%s: %d words left checked out", c.Name, used)
			}
			if hw := env.Cache.HighWater(); hw > m {
				t.Fatalf("%s: used %d words of private memory, M=%d", c.Name, hw, m)
			}
			checkAgainstReference(t, c.Name, readAll(a), ref)
			ran[eng.name]++
		}
	}
	corpus := workload.SortCorpus(b)
	for _, m := range []int{4 * b, 16 * b, 64 * b, 512 * b} {
		for _, eng := range engines {
			for _, ord := range oracleOrders {
				t.Run(fmt.Sprintf("M=%d/%s/%s", m, eng.name, ord.name), func(t *testing.T) {
					run(t, corpus, m, eng, ord)
				})
			}
		}
	}
	// auto and columnsort at the benchmark's geometry and at an eighth of
	// its size: the corpus is too small for the engines' prices to part.
	for _, g := range []struct{ n, m int }{{8192, 512 * b}, {1024, 512 * b}} {
		at := workload.SortCasesAt(g.n, b)
		for _, eng := range engines {
			if eng.name != EngineAuto && eng.name != EngineColumnsort {
				continue
			}
			for _, ord := range oracleOrders {
				t.Run(fmt.Sprintf("n=%d,M=%d/%s/%s", g.n, g.m, eng.name, ord.name), func(t *testing.T) {
					run(t, at, g.m, eng, ord)
				})
			}
		}
	}
	for _, eng := range engines {
		if ran[eng.name] == 0 {
			t.Errorf("%s sorted no case", eng.name)
		}
	}
}

// byKeyGeneric is ByKey through a distinct closure. The engines select their
// inline kernels by ByKey's identity, so this order runs the generic ones:
// the reference that TestByKeyArmMatchesGeneric holds the ByKey arm to.
var byKeyGeneric Less = func(a, b extmem.Element) bool { return a.Less(b) }

// armEntry is one deterministic entry point, uniformly typed: into sorts a
// source into a second array, visit hands the sorted cells to a visitor.
type armEntry struct {
	name        string
	sort        func(env *extmem.Env, src, dst extmem.Array, less Less, visit func(int, []extmem.Element))
	into, visit bool
}

var armEntries = []armEntry{
	{"Bitonic", func(env *extmem.Env, _, dst extmem.Array, less Less, _ func(int, []extmem.Element)) {
		Bitonic(env, dst, less)
	}, false, false},
	{"Columnsort", func(env *extmem.Env, _, dst extmem.Array, less Less, _ func(int, []extmem.Element)) {
		Columnsort(env, dst, less)
	}, false, false},
	{"Deterministic", func(env *extmem.Env, _, dst extmem.Array, less Less, _ func(int, []extmem.Element)) {
		Deterministic(env, dst, less)
	}, false, false},
	{"DeterministicInto", DeterministicInto, true, false},
	{"DeterministicInto/visit", DeterministicInto, true, true},
}

// armFill lays n·b cells, cell i with Pos i, so that occupied cells are
// totally ordered by ByKey even where keys repeat: "dup" occupies every cell
// with keys from {0..3}; "half" occupies the first half of the cells, which
// leaves half-empty and all-empty windows behind it; "scatter" occupies
// about half of the cells, anywhere; "empty" none. Empty cells carry junk
// keys and values: their content is not part of the sorted result.
func armFill(kind string, n, b int, r *rand.Rand) []extmem.Element {
	cells := make([]extmem.Element, n*b)
	for i := range cells {
		e := extmem.Element{Key: r.Uint64N(4), Val: r.Uint64(), Pos: uint64(i)}
		switch kind {
		case "dup":
			e.Flags = extmem.FlagOccupied
		case "half":
			if i < len(cells)/2 {
				e.Flags = extmem.FlagOccupied
			}
		case "scatter":
			if r.IntN(2) == 0 {
				e.Flags = extmem.FlagOccupied
			}
		}
		cells[i] = e
	}
	return cells
}

// armRun sorts the cells with one entry point under less, on a strict cache
// of m with held elements checked out, and returns the trace and the sorted
// cells (the visited ones where the entry visits).
func armRun(t *testing.T, e armEntry, n, b, m, held int, cells []extmem.Element, less Less) (trace.Summary, []extmem.Element) {
	t.Helper()
	env := extmem.NewEnv(3*n, b, m, 3)
	env.Cache = extmem.NewCache(m, true)
	env.Cache.Acquire(held)
	src := env.D.Alloc(n)
	for blk := 0; blk < n; blk++ {
		src.Write(blk, cells[blk*b:(blk+1)*b])
	}
	dst := src
	if e.into {
		dst = env.D.Alloc(n)
	}
	rec := trace.NewRecorder(0)
	env.D.SetRecorder(rec)
	var seen []extmem.Element
	var visit func(int, []extmem.Element)
	if e.visit {
		visit = func(_ int, chunk []extmem.Element) { seen = append(seen, chunk...) }
	}
	e.sort(env, src, dst, less, visit)
	if used := env.Cache.Used(); used != held {
		t.Fatalf("%s: %d elements checked out after the sort, %d held", e.name, used, held)
	}
	if !e.visit {
		seen = readAll(dst)
	}
	return rec.Summarize(), seen
}

// TestByKeyArmMatchesGeneric runs each deterministic entry point on one
// input under ByKey and under byKeyGeneric and requires the same trace and
// the same occupied cells, element for element. The geometries give bitonic
// two or more windows (odd ones sort descending), block counts that are not
// powers of two (padded), a held cache, and columnsort both inside
// Deterministic and called directly where ColumnGeometry admits the array.
func TestByKeyArmMatchesGeneric(t *testing.T) {
	geoms := []struct{ n, b, m, held int }{
		{100, 8, 512, 0},
		{100, 8, 512, 128},
		{256, 4, 256, 0},
		{1000, 8, 4096, 1024},
		{2048, 8, 4096, 0},
		{8192, 8, 4096, 0},
	}
	r := rand.New(rand.NewPCG(50, 1))
	for _, g := range geoms {
		_, _, colErr := ColumnGeometry(g.n, g.b, g.m-g.held)
		for _, kind := range []string{"dup", "half", "scatter", "empty"} {
			cells := armFill(kind, g.n, g.b, r)
			for _, e := range armEntries {
				if e.name == "Columnsort" && colErr != nil {
					continue
				}
				name := fmt.Sprintf("n=%d,B=%d,M=%d,held=%d/%s/%s", g.n, g.b, g.m, g.held, kind, e.name)
				wantTr, want := armRun(t, e, g.n, g.b, g.m, g.held, cells, byKeyGeneric)
				gotTr, got := armRun(t, e, g.n, g.b, g.m, g.held, cells, ByKey)
				if !gotTr.Equal(wantTr) {
					t.Errorf("%s: trace %v under ByKey, %v under the generic arm", name, gotTr, wantTr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d cells under ByKey, %d under the generic arm", name, len(got), len(want))
				}
				for i := range want {
					if got[i].Occupied() != want[i].Occupied() || (want[i].Occupied() && got[i] != want[i]) {
						t.Fatalf("%s: cell %d = %+v under ByKey, %+v under the generic arm", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}
