package obsort

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

// The sorters' differential oracle: every engine this package owns,
// BucketSort, and the one Pick names for the call (auto), against a
// sort.SliceStable reference under Element.Less over the shared corpus
// (workload.SortCorpus), at cache sizes from M/B = 4 to 512, on the
// corpus's cells, on the same cells keyed by their Pos (pos-keys), which
// puts the occupied ones in order, and on the same cells keyed by the
// complement of their Pos (reversed-keys), which puts them in reverse
// order. The sibling test in internal/core runs core.Sort, the auto engine
// through core.SortWith, and emsort over the same corpus.

// oracleInputs are the inputs each case is sorted as: its cells as the
// corpus keys them (rekey nil), or with every Key replaced by rekey of the
// cell's Pos.
var oracleInputs = []struct {
	name  string
	rekey func(pos uint64) uint64
}{
	{"ByKey", nil},
	{"pos-keys", func(pos uint64) uint64 { return pos }},
	{"reversed-keys", func(pos uint64) uint64 { return ^pos }},
}

// layCase writes the case into a fresh array, every cell keyed by rekey of
// its Pos where rekey is not nil, and returns every cell of the array (the
// slots plus the empty fill of the last block) in reference order.
func layCase(env *extmem.Env, c workload.SortCase, b int, rekey func(uint64) uint64) (extmem.Array, []extmem.Element) {
	a := env.D.Alloc(extmem.CeilDiv(len(c.Slots), b))
	cells := make([]extmem.Element, a.Len()*b)
	copy(cells, c.Slots)
	if rekey != nil {
		for i := range cells {
			cells[i].Key = rekey(cells[i].Pos)
		}
	}
	for blk := 0; blk < a.Len(); blk++ {
		a.Write(blk, cells[blk*b:(blk+1)*b])
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
	return a, cells
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
	byName := map[string]func(*extmem.Env, extmem.Array){
		EngineBitonic:    bitonicSort,
		EngineColumnsort: Columnsort,
		EngineZigzag:     zigzagSort,
	}
	// auto runs the engine Pick names with the cache free at the call and
	// the "mem" price, as core.Engine resolves it for an ORAM rebuild.
	auto := func(env *extmem.Env, a extmem.Array) {
		name := Pick(a.Len(), a.B(), env.M, env.M-env.Cache.Used(), "mem")
		run, ok := byName[name]
		if !ok {
			panic(fmt.Sprintf("Pick named %q, not an engine of this package", name))
		}
		run(env, a)
	}
	// Columnsort takes only the arrays ColumnGeometry admits; every other
	// engine takes any array.
	always := func(int, int) bool { return true }
	columns := func(n, m int) bool { _, _, err := ColumnGeometry(n, b, m); return err == nil }
	// total lifts an engine that never fails to the signature BucketSort has.
	total := func(sort func(*extmem.Env, extmem.Array)) func(*extmem.Env, extmem.Array) error {
		return func(env *extmem.Env, a extmem.Array) error { sort(env, a); return nil }
	}
	type engine struct {
		name   string
		sort   func(*extmem.Env, extmem.Array) error
		admits func(nBlocks, m int) bool
	}
	// BucketSort is no engine name, but the benchmark's layer probe runs
	// it; the only failure it may return is a declared overflow, which
	// leaves the array as it was.
	engines := []engine{
		{EngineBitonic, total(bitonicSort), always},
		{EngineColumnsort, total(Columnsort), columns},
		{EngineZigzag, total(zigzagSort), always},
		{"BucketSort", func(env *extmem.Env, a extmem.Array) error { return BucketSort(env, a, ByKey) }, always},
		{EngineAuto, total(auto), always},
	}
	ran := map[string]int{} // cases each engine sorted
	run := func(t *testing.T, corpus []workload.SortCase, m int, eng engine, rekey func(uint64) uint64) {
		for _, c := range corpus {
			if !eng.admits(extmem.CeilDiv(len(c.Slots), b), m) {
				continue
			}
			env := extmem.NewEnv(64, b, m, 7)
			a, ref := layCase(env, c, b, rekey)
			in := readAll(a)
			env.Cache.ResetHighWater()
			err := eng.sort(env, a)
			if used := env.Cache.Used(); used != 0 {
				t.Fatalf("%s: %d words left checked out", c.Name, used)
			}
			if hw := env.Cache.HighWater(); hw > m {
				t.Fatalf("%s: used %d words of private memory, M=%d", c.Name, hw, m)
			}
			if err != nil {
				if !errors.Is(err, ErrBucketOverflow) {
					t.Fatalf("%s: %v", c.Name, err)
				}
				if !slices.Equal(readAll(a), in) {
					t.Fatalf("%s: the declared overflow changed the array", c.Name)
				}
				continue
			}
			checkAgainstReference(t, c.Name, readAll(a), ref)
			ran[eng.name]++
		}
	}
	corpus := workload.SortCorpus(b)
	for _, m := range []int{4 * b, 16 * b, 64 * b, 512 * b} {
		for _, eng := range engines {
			for _, in := range oracleInputs {
				t.Run(fmt.Sprintf("M=%d/%s/%s", m, eng.name, in.name), func(t *testing.T) {
					run(t, corpus, m, eng, in.rekey)
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
			for _, in := range oracleInputs {
				t.Run(fmt.Sprintf("n=%d,M=%d/%s/%s", g.n, g.m, eng.name, in.name), func(t *testing.T) {
					run(t, at, g.m, eng, in.rekey)
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

// entryPoint is one deterministic entry point, uniformly typed: into sorts
// a source into a second array, visit hands the sorted cells to a visitor.
type entryPoint struct {
	name        string
	sort        func(env *extmem.Env, src, dst extmem.Array, visit func(int, []extmem.Element))
	into, visit bool
}

var entryPoints = []entryPoint{
	{"Bitonic", func(env *extmem.Env, _, dst extmem.Array, _ func(int, []extmem.Element)) {
		Bitonic(env, dst, ByKey)
	}, false, false},
	{"BitonicInto", func(env *extmem.Env, src, dst extmem.Array, _ func(int, []extmem.Element)) {
		bitonic(env, src, dst, nil)
	}, true, false},
	{"Columnsort", func(env *extmem.Env, _, dst extmem.Array, _ func(int, []extmem.Element)) {
		Columnsort(env, dst)
	}, false, false},
	{"Deterministic", func(env *extmem.Env, _, dst extmem.Array, _ func(int, []extmem.Element)) {
		Deterministic(env, dst)
	}, false, false},
	{"DeterministicInto", deterministicInto, true, false},
	{"DeterministicInto/visit", deterministicInto, true, true},
}

// deterministicInto is DeterministicInto without a first-pass observer.
func deterministicInto(env *extmem.Env, src, dst extmem.Array, visit func(int, []extmem.Element)) {
	DeterministicInto(env, src, dst, nil, visit)
}

// entryFill lays n·b cells, cell i with Pos i, so that occupied cells are
// totally ordered by Element.Less even where keys repeat: "dup" occupies
// every cell with keys from {0..3}; "half" occupies the first half of the
// cells, which leaves half-empty and all-empty windows behind it;
// "scatter" occupies about half of the cells, anywhere; "empty" none.
// Empty cells carry junk keys and values: their content is not part of the
// sorted result.
func entryFill(kind string, n, b int, r *rand.Rand) []extmem.Element {
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

// entryRun sorts the cells with one entry point on a strict cache of m
// with held elements checked out, and returns the trace and the sorted
// cells (the visited ones where the entry visits).
func entryRun(t *testing.T, e entryPoint, n, b, m, held int, cells []extmem.Element) (trace.Summary, []extmem.Element) {
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
	e.sort(env, src, dst, visit)
	if used := env.Cache.Used(); used != held {
		t.Fatalf("%s: %d elements checked out after the sort, %d held", e.name, used, held)
	}
	if !e.visit {
		seen = readAll(dst)
	}
	return rec.Summarize(), seen
}

// TestEntryPointsMatchReference runs each deterministic entry point on
// every input kind of a geometry and requires the occupied cells a
// reference stable sort gives, element for element, and at each geometry
// one trace for every input kind. The geometries give bitonic two or more
// windows, block counts that are not powers of two, a held cache,
// columnsort both inside Deterministic and called directly where
// ColumnGeometry admits the array, and bitonic from a source into a second
// array (BitonicInto). The second table is block counts one past and short
// of a power of two, the randomized Sort's 1 989-block bucket among them,
// at B = 1, 4 and 8 with a quarter of a 64-block cache held: a window of
// 32 blocks, so the small counts sort in one window and the large ones
// take gather passes.
func TestEntryPointsMatchReference(t *testing.T) {
	type geom struct {
		n, b, m, held int
		kinds         []string
	}
	all := []string{"dup", "half", "scatter", "empty"}
	geoms := []geom{
		{100, 8, 512, 0, all},
		{100, 8, 512, 128, all},
		{256, 4, 256, 0, all},
		{1000, 8, 4096, 1024, all},
		{2048, 8, 4096, 0, all},
		{8192, 8, 4096, 0, all},
	}
	for _, n := range []int{1, 3, 5, 7, 513, 1025, 1989, 2049} {
		for _, b := range []int{1, 4, 8} {
			geoms = append(geoms, geom{n, b, 64 * b, 16 * b, []string{"half", "scatter"}})
		}
	}
	r := rand.New(rand.NewPCG(50, 1))
	for _, g := range geoms {
		_, _, colErr := ColumnGeometry(g.n, g.b, g.m-g.held)
		traces := map[string]trace.Summary{} // each entry point's trace on the geometry's first kind
		for _, kind := range g.kinds {
			cells := entryFill(kind, g.n, g.b, r)
			ref := slices.Clone(cells)
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
			for _, e := range entryPoints {
				if e.name == "Columnsort" && colErr != nil {
					continue
				}
				name := fmt.Sprintf("n=%d,B=%d,M=%d,held=%d/%s/%s", g.n, g.b, g.m, g.held, kind, e.name)
				tr, got := entryRun(t, e, g.n, g.b, g.m, g.held, cells)
				if first, ok := traces[e.name]; !ok {
					traces[e.name] = tr
				} else if !tr.Equal(first) {
					t.Errorf("%s: trace %v, %v on %s", name, tr, first, g.kinds[0])
				}
				if len(got) != len(ref) {
					t.Fatalf("%s: %d cells, reference %d", name, len(got), len(ref))
				}
				for i := range ref {
					if got[i].Occupied() != ref[i].Occupied() || (ref[i].Occupied() && got[i] != ref[i]) {
						t.Fatalf("%s: cell %d = %+v, reference %+v", name, i, got[i], ref[i])
					}
				}
			}
		}
	}
}
