package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"oblivext/internal/emsort"
	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

// The differential oracle: Select, Quantiles and selectInCache against a
// sort.Slice reference over one shared corpus of awkward inputs, at cache
// sizes on both sides of every path choice the three make from public
// geometry (in-cache, sort-and-read-ranks, sampled narrowing, and
// Quantiles' sort arm against its q Selects), the sort in Select's tail and
// in Quantiles' sort arm on both arms of obsort.Deterministic.

// oracleCase is one input layout: a sequence of cell slots, occupied or
// empty, laid into ceil(len/B) blocks. Pos is the slot index, so (Key, Pos)
// is a total order and the reference answer is unique.
type oracleCase struct {
	name  string
	slots []extmem.Element
}

func oracleCorpus() []oracleCase {
	r := rand.New(rand.NewPCG(16, 61))
	occ := func(key uint64) extmem.Element {
		return extmem.Element{Key: key, Val: key ^ 0xabc, Flags: extmem.FlagOccupied}
	}
	gen := func(n int, key func(i int) uint64, empty func(i int) bool) []extmem.Element {
		out := make([]extmem.Element, n)
		for i := range out {
			if empty == nil || !empty(i) {
				out[i] = occ(key(i))
			}
			out[i].Pos = uint64(i)
		}
		return out
	}
	random := func(int) uint64 { return r.Uint64() % 1_000_000 }
	return []oracleCase{
		{"n=1", gen(1, random, nil)},
		{"n<M", gen(100, random, nil)},
		{"duplicates-only", gen(1000, func(int) uint64 { return 7 }, nil)},
		{"three-distinct-keys", gen(1500, func(i int) uint64 { return uint64(i*7) % 3 }, nil)},
		{"n-not-multiple-of-B", gen(1003, random, nil)},
		// Every third slot empty, plus a run of wholly empty blocks inside.
		{"interior-empties", gen(2000, random, func(i int) bool { return i%3 == 1 || (i >= 640 && i < 960) })},
		{"sorted-descending", gen(3000, func(i int) uint64 { return uint64(3000 - i) }, nil)},
		// 300 blocks: at M = 512 Select's tail sorts with columnsort, 6 I/Os
		// a block against bitonic's 10 (15.7 while it padded to 512 blocks).
		{"columnsort-tail", gen(2400, random, nil)},
		// Large enough that M=4096 narrows through several levels.
		{"large-random", gen(20000, random, nil)},
	}
}

// oracleEnv lays the case into a fresh environment and returns the array
// and the occupied elements in reference order.
func oracleEnv(c oracleCase, b, m int, seed uint64) (*extmem.Env, extmem.Array, []extmem.Element) {
	nBlocks := extmem.CeilDiv(len(c.slots), b)
	env := newTestEnv(4*nBlocks+64, b, m, seed)
	a := env.D.Alloc(nBlocks)
	writeElems(a, c.slots)
	var ref []extmem.Element
	for _, e := range c.slots {
		if e.Occupied() {
			ref = append(ref, e)
		}
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].Key != ref[j].Key {
			return ref[i].Key < ref[j].Key
		}
		return ref[i].Pos < ref[j].Pos
	})
	return env, a, ref
}

// retryDeclared runs op on fresh tapes until it does not declare failure,
// as Alice does in the paper's model; three declared failures in a row is a
// bug at any failure rate the lemmas allow.
func retryDeclared(t *testing.T, declared error, op func(seed uint64) error) {
	t.Helper()
	var err error
	for seed := uint64(1); seed <= 3; seed++ {
		if err = op(seed); err == nil {
			return
		}
		if !errors.Is(err, declared) {
			t.Fatalf("undeclared error: %v", err)
		}
	}
	t.Fatalf("declared failure on three tapes in a row: %v", err)
}

func sameItem(got, want extmem.Element) bool {
	return got.Key == want.Key && got.Pos == want.Pos && got.Val == want.Val
}

func TestDifferentialOracle(t *testing.T) {
	const b = 8
	quantileArms := map[bool]bool{} // which arms of Quantiles ran, keyed by bySelect
	columns := map[string]bool{}    // which of Select and Quantiles' sort arm ran columnsort
	for _, m := range []int{2 * b * 16, 512, 1024, 2048, 4096} {
		for _, c := range oracleCorpus() {
			t.Run(fmt.Sprintf("M=%d/%s", m, c.name), func(t *testing.T) {
				_, _, ref := oracleEnv(c, b, m, 1)
				total := int64(len(ref))
				inCache := extmem.CeilDiv(len(c.slots), b)*b <= m/2

				ranks := map[int64]bool{1: true, total: true, total/2 + 1: true}
				for k := range ranks {
					if k < 1 || k > total {
						continue
					}
					retryDeclared(t, ErrSelectFailed, func(seed uint64) error {
						env, a, _ := oracleEnv(c, b, m, seed)
						col := env.EnableObs()
						got, err := Select(env, a, k)
						columns["Select"] = columns["Select"] || ranUnder(col.Roots(), "", "columnsort")
						if err == nil && !sameItem(got, ref[k-1]) {
							t.Fatalf("Select(%d) = %+v, want %+v", k, got, ref[k-1])
						}
						if env.Cache.Used() != 0 {
							t.Fatalf("Select(%d) left %d words checked out", k, env.Cache.Used())
						}
						if env.Cache.HighWater() > m {
							t.Fatalf("Select(%d) used %d words of private memory, M=%d", k, env.Cache.HighWater(), m)
						}
						return err
					})
					if inCache {
						env, a, _ := oracleEnv(c, b, m, 1)
						got, err := selectInCache(env, a, int(k))
						if err != nil || !sameItem(got, ref[k-1]) {
							t.Fatalf("selectInCache(%d) = %+v, %v, want %+v", k, got, err, ref[k-1])
						}
					}
				}

				// Ranks out of range are declared errors, never panics.
				for _, k := range []int64{0, -1, total + 1} {
					env, a, _ := oracleEnv(c, b, m, 1)
					if _, err := Select(env, a, k); !errors.Is(err, ErrSelectFailed) {
						t.Fatalf("Select(%d) of %d items: err = %v, want ErrSelectFailed", k, total, err)
					}
					if env.Cache.Used() != 0 {
						t.Fatalf("Select(%d) left %d words checked out", k, env.Cache.Used())
					}
					if inCache {
						if _, err := selectInCache(env, a, int(k)); !errors.Is(err, ErrSelectFailed) {
							t.Fatalf("selectInCache(%d) of %d items: err = %v, want ErrSelectFailed", k, total, err)
						}
					}
				}

				for _, q := range []int{1, 3, 4, 8} {
					if int64(q) > total || 8*q*b > m {
						env, a, _ := oracleEnv(c, b, m, 1)
						if _, err := Quantiles(env, a, q); !errors.Is(err, ErrQuantilesFailed) {
							t.Fatalf("Quantiles(%d) of %d items at M=%d: err = %v, want ErrQuantilesFailed", q, total, m, err)
						}
						continue
					}
					bySelect := PlanQuantiles(extmem.CeilDiv(len(c.slots), b), b, m, q).bySelect
					quantileArms[bySelect] = true
					want := quantileRanks(total, q)
					retryDeclared(t, ErrQuantilesFailed, func(seed uint64) error {
						env, a, _ := oracleEnv(c, b, m, seed)
						col := env.EnableObs()
						got, err := Quantiles(env, a, q)
						if err != nil {
							return err
						}
						columns["Quantiles"] = columns["Quantiles"] || !bySelect && ranUnder(col.Roots(), "", "columnsort")
						if len(got) != q {
							t.Fatalf("Quantiles(%d) returned %d items", q, len(got))
						}
						for i, e := range got {
							if !sameItem(e, ref[want[i]-1]) {
								t.Fatalf("Quantiles(%d)[%d] (rank %d) = %+v, want %+v", q, i, want[i], e, ref[want[i]-1])
							}
						}
						return nil
					})
				}
			})
		}
	}
	// The grid is worth its name only if both arms of Quantiles run.
	if !quantileArms[true] || !quantileArms[false] {
		t.Errorf("Quantiles ran the Select arm %v and the sort arm %v over the grid; both must run", quantileArms[true], quantileArms[false])
	}
	if !columns["Select"] || !columns["Quantiles"] {
		t.Errorf("columnsort ran in Select's tail %v and in Quantiles' sort arm %v over the grid; both must", columns["Select"], columns["Quantiles"])
	}
}

// TestSorterDifferentialOracle is the sibling of the test of the same name
// in internal/obsort: the randomized Sort (Theorem 21), the auto engine as
// SortWith runs it (resolved by Engine at the call), and the non-oblivious
// emsort baseline over the same shared corpus, against the same
// sort.SliceStable reference under Element.Less. The emsort/pos-keys row
// keys every cell by its Pos, its index in the case: the same cells,
// occupied ones already in order. The emsort/reversed-keys row keys every
// cell by the complement of its Pos: occupied ones in reverse order. A row
// may set its own block size and check part of the cache out before the
// sort, under a strict cache.
func TestSorterDifferentialOracle(t *testing.T) {
	const b = 8
	sorters := []struct {
		name  string
		minM  int                     // smallest M the sorter's own passes accept
		rekey func(pos uint64) uint64 // if not nil, key every cell by rekey(Pos) before the sort
		sort  func(env *extmem.Env, a extmem.Array) error
	}{
		{"randomized/ByKey", 16 * b, nil, Sort},
		{"auto/ByKey", 4 * b, nil, func(env *extmem.Env, a extmem.Array) error {
			return SortWith(env, a, Engine(obsort.EngineAuto, a.Len(), a.B(), env.M, env.M-env.Cache.Used(), "mem"))
		}},
		{"emsort/ByKey", 4 * b, nil, func(env *extmem.Env, a extmem.Array) error { emsort.MergeSort(env, a, obsort.ByKey); return nil }},
		{"emsort/pos-keys", 4 * b, func(pos uint64) uint64 { return pos }, func(env *extmem.Env, a extmem.Array) error { emsort.MergeSort(env, a, obsort.ByKey); return nil }},
		{"emsort/reversed-keys", 4 * b, func(pos uint64) uint64 { return ^pos }, func(env *extmem.Env, a extmem.Array) error { emsort.MergeSort(env, a, obsort.ByKey); return nil }},
	}
	type row struct {
		name   string
		m      int
		corpus []workload.SortCase
		only   string // the one sorter the row runs, or "" for all
		// A span that columnsort must run below on some case of the row,
		// or "" for none.
		columnsUnder string
		b, held      int // the row's block size (0: 8) and held cache
	}
	var rows []row
	for _, m := range []int{4 * b, 16 * b, 64 * b, 512 * b} {
		rows = append(rows, row{fmt.Sprintf("M=%d", m), m, workload.SortCorpus(b), "", "", 0, 0})
	}
	// auto at the benchmark's geometry, where the engines' prices part as
	// they cannot over the corpus's small sizes.
	atBench := workload.SortCasesAt(8192, b)
	rows = append(rows, row{"n=8192,M=4096", 4096, atBench, "auto/ByKey", "", 0, 0})
	// Theorem 21 at the benchmark's geometry and at the benchmark's -quick
	// one (N = 2^10, M = 512), where a level's buckets part as the small
	// corpus never makes them.
	rows = append(rows, row{"n=8192,M=4096", 4096, atBench, "randomized/ByKey", "", 0, 0},
		row{"n=128,M=512", 512, workload.SortCasesAt(128, b), "randomized/ByKey", "", 0, 0})
	// Theorem 21 where obsort.Deterministic takes columnsort: for the
	// direct sort of a full array's 600-block buckets, and for the sort of a
	// 300-block sample. (At 1 577 blocks the buckets hold 576, where bitonic
	// over n blocks costs 3 456 I/Os in 30 round trips, no longer dominated.)
	rows = append(rows, row{"n=1657,M=1024", 1024, workload.SortCasesAt(1657, b), "randomized/ByKey", "direct-sort", 0, 0},
		row{"n=2393,M=512", 512, workload.SortCasesAt(2393, b), "randomized/ByKey", "sample-splitters", 0, 0})
	// Theorem 21 where a level's buckets take each of the paths below the
	// top: 600 blocks, whose 230-block buckets sort privately; the
	// benchmark geometry with half the cache held; and B = 64, where the
	// level below the top distributes again.
	rows = append(rows, row{"n=600,M=4096", 4096, workload.SortCasesAt(600, b), "randomized/ByKey", "", 0, 0},
		row{"n=8192,M=4096,held=2056", 4096, atBench, "randomized/ByKey", "", 0, 2056},
		row{"n=1100,B=64,M=4096", 4096, workload.SortCasesAt(1100, 64), "randomized/ByKey", "", 64, 0})
	for _, rw := range rows {
		for _, s := range sorters {
			m := rw.m
			if m < s.minM || (rw.only != "" && s.name != rw.only) {
				continue
			}
			bs := cmp.Or(rw.b, b)
			t.Run(fmt.Sprintf("%s/%s", rw.name, s.name), func(t *testing.T) {
				columns := false
				for _, c := range rw.corpus {
					retryDeclared(t, ErrSortFailed, func(seed uint64) error {
						env := newTestEnv(64, bs, m, seed)
						if rw.held > 0 {
							env.Cache = extmem.NewCache(m, true)
							env.Cache.Acquire(rw.held)
						}
						col := env.EnableObs()
						a := env.D.Alloc(extmem.CeilDiv(len(c.Slots), bs))
						slots := c.Slots
						if s.rekey != nil {
							slots = slices.Clone(slots)
							for i := range slots {
								slots[i].Key = s.rekey(slots[i].Pos)
							}
						}
						writeElems(a, slots)
						ref := readElems(a)
						sort.SliceStable(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
						env.Cache.ResetHighWater()
						if err := s.sort(env, a); err != nil {
							return err
						}
						columns = columns || rw.columnsUnder != "" && ranUnder(col.Roots(), rw.columnsUnder, "columnsort")
						if used := env.Cache.Used(); used != rw.held {
							t.Fatalf("%s: %d words left checked out, %d held", c.Name, used, rw.held)
						}
						if hw := env.Cache.HighWater(); hw > m {
							t.Fatalf("%s: used %d words of private memory, M=%d", c.Name, hw, m)
						}
						got := readElems(a)
						for i := range ref {
							if got[i].Occupied() != ref[i].Occupied() || (ref[i].Occupied() && !sameItem(got[i], ref[i])) {
								t.Fatalf("%s: cell %d = %+v, reference %+v", c.Name, i, got[i], ref[i])
							}
						}
						return nil
					})
				}
				if rw.columnsUnder != "" && !columns {
					t.Errorf("columnsort never ran below %q", rw.columnsUnder)
				}
			})
		}
	}
}

// compactCase is one block-level layout for the compaction oracle: n cells,
// the listed ones occupied. A cell's slot t holds an item when keep(j, t)
// (nil: every slot), so ragged cells are covered too; every item is marked
// as well as occupied, Pos is the slot index, and keys repeat.
type compactCase struct {
	name string
	n    int
	occ  []int
	keep func(j, t int) bool
}

// compactCorpus is the corpus at one geometry: the fixed sizes, and the
// sizes on either side of every choice the routing layer makes from (B, M).
func compactCorpus(b, m int) []compactCase {
	r := rand.New(rand.NewPCG(19, 8))
	span := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			out = append(out, j)
		}
		return out
	}
	// 0 / 1 / 2 / 7 / 8, n·B < M at every geometry below but M = 12B (16),
	// half again a cache of 12 blocks (18), not a power of two (100), and
	// several routing windows at the small caches (300).
	sizes := []int{1, 2, 7, 8, 16, 18, 100, 300}
	// The largest array that fits the cache beside a block of slack and the
	// first that does not; one butterfly window (two half-windows of 2^g
	// cells, the most that leave room for an I/O block) and one cell more.
	window := 2
	for 2*window+2 <= m/b {
		window *= 2
	}
	for _, n := range []int{m/b - 1, m / b, window, window + 1} {
		if !slices.Contains(sizes, n) {
			sizes = append(sizes, n)
		}
	}
	cases := []compactCase{{name: "n=0"}}
	for _, n := range sizes {
		q := max(1, n/4)
		random := r.Perm(n)[:q]
		sort.Ints(random)
		cases = append(cases,
			compactCase{name: fmt.Sprintf("n=%d/none", n), n: n},
			compactCase{name: fmt.Sprintf("n=%d/one", n), n: n, occ: []int{n / 2}},
			compactCase{name: fmt.Sprintf("n=%d/all", n), n: n, occ: span(0, n)},
			compactCase{name: fmt.Sprintf("n=%d/front", n), n: n, occ: span(0, q)},
			compactCase{name: fmt.Sprintf("n=%d/back", n), n: n, occ: span(n-q, n)},
			compactCase{name: fmt.Sprintf("n=%d/random", n), n: n, occ: random},
		)
	}
	return append(cases, compactCase{name: "n=100/ragged", n: 100, occ: span(30, 55),
		keep: func(j, t int) bool { return (j+t)%3 != 0 }})
}

// lay writes the case into a fresh array of env and returns it with the
// items in slot order (the filter-and-compare reference).
func (c compactCase) lay(env *extmem.Env) (extmem.Array, []extmem.Element) {
	b := env.B()
	a := env.D.Alloc(c.n)
	slots := make([]extmem.Element, c.n*b)
	var ref []extmem.Element
	for _, j := range c.occ {
		for t := 0; t < b; t++ {
			if c.keep != nil && !c.keep(j, t) {
				continue
			}
			e := extmem.Element{Key: uint64((j*31 + t) % 17), Val: uint64(j), Pos: uint64(j*b + t),
				Flags: extmem.FlagOccupied | extmem.FlagMarked}
			slots[j*b+t] = e
			ref = append(ref, e)
		}
	}
	writeElems(a, slots)
	return a, ref
}

// TestCompactionDifferentialOracle runs the compactions over one shared
// corpus against a filter-and-compare reference: the items (in order for
// the tight ones, as a multiset for the loose ones), the output-length
// contract, a balanced cache and HighWater <= M — and, where the occupancy
// exceeds the declared capacity, the declared failure.
func TestCompactionDifferentialOracle(t *testing.T) {
	type result struct {
		out extmem.Array
		err error
	}
	tight := func(env *extmem.Env, a extmem.Array, rCap int) result {
		out, _, err := CompactMarkedTight(env, a, rCap)
		return result{out, err}
	}
	loose := func(env *extmem.Env, a extmem.Array, rCap int) result {
		out, _, err := CompactMarkedLoose(env, a, rCap)
		return result{out, err}
	}
	compactors := []struct {
		name     string
		ordered  bool
		declared error
		outLen   func(n, rCap int) int
		run      func(env *extmem.Env, a extmem.Array, rCap int) result
		// free, where set, is the cache the call is entered with, the rest
		// checked out around it; nil enters with all M free.
		free func(m, b int) int
	}{
		{"CompactMarkedTight", true, ErrCompactionFailed, func(_, rCap int) int { return rCap },
			tight, nil},
		// The routing's shape comes from the free cache, not from M.
		{"CompactMarkedTight/half-cache-held", true, ErrCompactionFailed, func(_, rCap int) int { return rCap },
			tight, func(m, b int) int { return m/2 + b }},
		{"CompactMarkedTight/5B-free", true, ErrCompactionFailed, func(_, rCap int) int { return rCap },
			tight, func(_, b int) int { return 5 * b }},
		{"route.CompactBlocksTight", true, nil, func(n, _ int) int { return n },
			func(env *extmem.Env, a extmem.Array, _ int) result {
				route.CompactBlocksTight(env, a, route.PredOccupied, 0)
				return result{a, nil}
			}, nil},
		// Entered with half the cache, less the block of slack, checked out
		// by the caller: which arrays fit the cache, and how wide a routing
		// window may be, depend on what is free, not on M.
		{"route.CompactBlocksTight/half-cache-held", true, nil, func(n, _ int) int { return n },
			func(env *extmem.Env, a extmem.Array, _ int) result {
				held := env.M/2 - env.B()
				env.Cache.Acquire(held)
				route.CompactBlocksTight(env, a, route.PredOccupied, 0)
				env.Cache.Release(held)
				return result{a, nil}
			}, nil},
		{"route.ConsolidateCompact", true, nil, func(n, _ int) int { return n },
			func(env *extmem.Env, a extmem.Array, _ int) result {
				out, _ := route.ConsolidateCompact(env, a, extmem.Element.Marked)
				return result{out, nil}
			}, nil},
		{"CompactMarkedLoose", false, ErrCompactionFailed, func(_, rCap int) int { return 5 * rCap },
			loose, nil},
		// The routing's shape comes from the free cache, not from M: half of
		// it, and a block of slack, is free here.
		{"CompactMarkedLoose/half-cache-held", false, ErrCompactionFailed, func(_, rCap int) int { return 5 * rCap },
			loose, func(m, b int) int { return m/2 + b }},
		// Five blocks free, less than the butterfly's six from four blocks
		// up: the declared failure, before any I/O, where the routing
		// cannot run.
		{"CompactMarkedLoose/5B-free", false, ErrCompactionFailed, func(_, rCap int) int { return 5 * rCap },
			loose, func(_, b int) int { return 5 * b }},
	}
	byPos := func(s []extmem.Element) {
		sort.Slice(s, func(i, j int) bool { return s[i].Pos < s[j].Pos })
	}
	for _, g := range []struct{ b, m int }{{4, 48}, {4, 256}, {8, 1024}, {8, 4096}} {
		for _, c := range compactCorpus(g.b, g.m) {
			// rCap exactly the occupancy, rCap = 1, and the theorems' n/4.
			rCaps := map[int]bool{max(1, len(c.occ)): true, 1: true, max(1, c.n/4): true}
			for _, cp := range compactors {
				for rCap := range rCaps {
					if cp.declared == nil && rCap != 1 {
						continue // the in-place butterfly takes no capacity
					}
					t.Run(fmt.Sprintf("B=%d,M=%d/%s/%s/rCap=%d", g.b, g.m, c.name, cp.name, rCap), func(t *testing.T) {
						held := 0
						if cp.free != nil {
							held = g.m - cp.free(g.m, g.b)
						}
						short := held > 0 && g.m-held < route.ConsolidateCompactFree(c.n, g.b)
						check := func(seed uint64) error {
							env := newTestEnv(64, g.b, g.m, seed)
							a, ref := c.lay(env)
							env.Cache.ResetHighWater()
							env.D.ResetStats()
							env.Cache.Acquire(held)
							res := cp.run(env, a, rCap)
							env.Cache.Release(held)
							if used := env.Cache.Used(); used != 0 {
								t.Fatalf("%d words left checked out", used)
							}
							if hw := env.Cache.HighWater(); hw > g.m {
								t.Fatalf("used %d words of private memory, M=%d", hw, g.m)
							}
							if res.err != nil {
								if st := env.D.Stats(); short && st.Reads+st.Writes != 0 {
									t.Fatalf("short cache declared after %d reads and %d writes", st.Reads, st.Writes)
								}
								return res.err
							}
							if want := cp.outLen(c.n, rCap); res.out.Len() != want {
								t.Fatalf("output of %d blocks, contract says %d", res.out.Len(), want)
							}
							var got []extmem.Element
							for _, e := range readElems(res.out) {
								if e.Occupied() {
									got = append(got, e)
								}
							}
							if !cp.ordered {
								byPos(got)
							}
							if len(got) != len(ref) {
								t.Fatalf("%d items out, %d in", len(got), len(ref))
							}
							for i := range ref {
								if !sameItem(got[i], ref[i]) {
									t.Fatalf("item %d = %+v, reference %+v", i, got[i], ref[i])
								}
							}
							return nil
						}
						if short {
							err := check(1)
							if !errors.Is(err, cp.declared) {
								t.Fatalf("%d words free, the routing needs %d: err = %v, want %v",
									g.m-held, route.ConsolidateCompactFree(c.n, g.b), err, cp.declared)
							}
							return
						}
						if cp.declared != nil && len(c.occ) > rCap {
							if err := check(1); !errors.Is(err, cp.declared) {
								t.Fatalf("%d occupied cells over capacity %d: err = %v, want %v", len(c.occ), rCap, err, cp.declared)
							}
							return
						}
						retryDeclared(t, cp.declared, check)
					})
				}
			}
		}
	}
}

// TestTraceInvariantAcrossWorkloads is the security property over the whole
// library at once: under a fixed tape every oblivious operation leaves a
// bit-identical trace on all six key distributions. The compaction rows
// keep the elements with Key%8 == 3, so the number and the positions of the
// cells they move vary with the data (none for equal keys, a fifth for
// fewdup) while staying under the loose capacity n/4. The last row checks
// the method itself: the non-oblivious quickselect's traces must differ.
func TestTraceInvariantAcrossWorkloads(t *testing.T) {
	keep := func(e extmem.Element) bool { return e.Occupied() && e.Key%8 == 3 }
	ops := []struct {
		name  string
		leaky bool
		run   func(env *extmem.Env, a extmem.Array) error
	}{
		{"Sort", false, Sort},
		{"obsort.Bitonic", false, func(env *extmem.Env, a extmem.Array) error { obsort.Bitonic(env, a, obsort.ByKey); return nil }},
		{"obsort.Zigzag", false, func(env *extmem.Env, a extmem.Array) error { obsort.Zigzag(env, a, obsort.ByKey); return nil }},
		{"Select", false, func(env *extmem.Env, a extmem.Array) error {
			_, err := Select(env, a, int64(a.Len()*a.B()/2))
			return err
		}},
		{"Quantiles", false, func(env *extmem.Env, a extmem.Array) error { _, err := Quantiles(env, a, 2); return err }},
		{"route.Consolidate+CompactBlocksTight", false, func(env *extmem.Env, a extmem.Array) error {
			cons, _ := route.Consolidate(env, a, keep)
			route.CompactBlocksTight(env, cons, route.PredOccupied, 0)
			return nil
		}},
		{"route.ConsolidateCompact", false, func(env *extmem.Env, a extmem.Array) error {
			route.ConsolidateCompact(env, a, keep)
			return nil
		}},
		{"emsort.QuickSelect", true, func(env *extmem.Env, a extmem.Array) error {
			_, err := emsort.QuickSelect(env, a, int64(a.Len()*a.B()/2))
			return err
		}},
	}
	// M = 256 is where Select sorts and zigzag is the engine of choice;
	// M = 4096 is the benchmark's cache, where Select narrows and the
	// randomized Sort runs a full level of its pipeline.
	for _, g := range []struct{ nBlocks, b, m int }{{256, 8, 256}, {1024, 8, 4096}} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("n=%d,M=%d/%s", g.nBlocks, g.m, op.name), func(t *testing.T) {
				var first trace.Summary
				differ := false
				for i, kind := range workload.Kinds() {
					sum := traceOf(t, 4*g.nBlocks, g.b, g.m, 999, func(env *extmem.Env) {
						a := env.D.Alloc(g.nBlocks)
						keys, err := workload.Keys(kind, g.nBlocks*g.b, 5)
						if err == nil {
							err = workload.Fill(a, keys)
						}
						if err == nil {
							err = op.run(env, a)
						}
						if err != nil {
							t.Fatalf("%s: %v", kind, err)
						}
					})
					if i == 0 {
						first = sum
					} else if !sum.Equal(first) {
						differ = true
						if !op.leaky {
							t.Errorf("trace on %s keys %v differs from %v on %s keys", kind, sum, first, workload.Kinds()[0])
						}
					}
				}
				if op.leaky && !differ {
					t.Error("the non-oblivious baseline left the same trace on every distribution: the comparison cannot see a leak")
				}
			})
		}
	}
}

// TestScanCallsOracle runs the three calls of the benchmark's scan_enc_file
// that read the caller's array to sort it or compact it — Select,
// Quantiles and loose compaction of the marked elements — against a
// sort.Slice and filter reference at that geometry (8 192 blocks, B = 8,
// M = 4 096: Select's tail and Quantiles' sort arm run columnsort from the
// caller's array) and beside it: 2 048 blocks, where both sort with
// bitonic; 4 155 blocks, where Select narrows once and sorts the
// consolidated prefix with columnsort, and 3 000, where it narrows three
// times and sorts the prefix with bitonic; and 18 blocks at M = 12B. Every
// call must leave the caller's array as it was and never write an address
// of it, and over the rows Select and Quantiles must each run both arms of
// obsort.Deterministic.
func TestScanCallsOracle(t *testing.T) {
	type arms struct{ columns, bitonic bool }
	ran := map[string]*arms{"Select": {}, "Quantiles": {}} // the callers of obsort.Deterministic
	for _, g := range []struct{ nBlocks, b, m int }{{8192, 8, 4096}, {2048, 8, 4096}, {4155, 8, 4096}, {3000, 8, 4096}, {18, 4, 48}} {
		t.Run(fmt.Sprintf("n=%d,B=%d,M=%d", g.nBlocks, g.b, g.m), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(g.nBlocks), 47))
			slots := make([]extmem.Element, g.nBlocks*g.b)
			var ref, marked []extmem.Element
			for i := range slots {
				slots[i].Pos = uint64(i)
				if r.IntN(7) == 0 {
					continue // an empty slot
				}
				slots[i].Key, slots[i].Val, slots[i].Flags = r.Uint64N(uint64(len(slots)/3)), uint64(i)^0x5a, extmem.FlagOccupied
				if r.IntN(5) == 0 {
					slots[i].Flags |= extmem.FlagMarked
					marked = append(marked, slots[i])
				}
				ref = append(ref, slots[i])
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i].Less(ref[j]) })
			total := int64(len(ref))
			q := min(8, g.m/(8*g.b))
			rCap := extmem.CeilDiv(len(slots)/3, g.b) + 1
			calls := []struct {
				name     string
				declared error
				run      func(env *extmem.Env, a extmem.Array) error
			}{
				{"Select", ErrSelectFailed, func(env *extmem.Env, a extmem.Array) error {
					for _, k := range []int64{1, total / 2, total} {
						got, err := Select(env, a, k)
						if err != nil {
							return err
						}
						if !sameItem(got, ref[k-1]) {
							t.Fatalf("Select(%d) = %+v, want %+v", k, got, ref[k-1])
						}
					}
					return nil
				}},
				{"Quantiles", ErrQuantilesFailed, func(env *extmem.Env, a extmem.Array) error {
					got, err := Quantiles(env, a, q)
					if err != nil {
						return err
					}
					for i, k := range quantileRanks(total, q) {
						if !sameItem(got[i], ref[k-1]) {
							t.Fatalf("Quantiles(%d)[%d] (rank %d) = %+v, want %+v", q, i, k, got[i], ref[k-1])
						}
					}
					return nil
				}},
				{"CompactLoose", ErrCompactionFailed, func(env *extmem.Env, a extmem.Array) error {
					out, _, err := CompactMarkedLoose(env, a, rCap)
					if err != nil {
						return err
					}
					var got []extmem.Element
					for _, e := range readElems(out) {
						if e.Occupied() {
							got = append(got, e)
						}
					}
					sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
					if len(got) != len(marked) || out.Len() != 5*rCap {
						t.Fatalf("%d items out of %d marked, in %d blocks (want %d)", len(got), len(marked), out.Len(), 5*rCap)
					}
					for i := range marked {
						if !sameItem(got[i], marked[i]) {
							t.Fatalf("item %d = %+v, reference %+v", i, got[i], marked[i])
						}
					}
					return nil
				}},
			}
			for _, c := range calls {
				retryDeclared(t, c.declared, func(seed uint64) error {
					env := newTestEnv(8*g.nBlocks+64, g.b, g.m, seed)
					a := env.D.Alloc(g.nBlocks)
					writeElems(a, slots)
					rec := trace.NewRecorder(1 << 30)
					env.D.SetRecorder(rec)
					col := env.EnableObs()
					if err := c.run(env, a); err != nil {
						return err
					}
					if a := ran[c.name]; a != nil {
						a.columns = a.columns || ranUnder(col.Roots(), "", "columnsort")
						a.bitonic = a.bitonic || ranUnder(col.Roots(), "", "bitonic")
					}
					for _, op := range rec.Ops() {
						if op.Kind == trace.Write && op.Addr >= int64(a.Base()) && op.Addr < int64(a.Base()+a.Len()) {
							t.Fatalf("%s wrote block %d of the caller's array", c.name, op.Addr-int64(a.Base()))
						}
					}
					if got := readElems(a); !slices.Equal(got, slots) {
						t.Fatalf("%s changed the caller's array", c.name)
					}
					if env.Cache.Used() != 0 || env.Cache.HighWater() > g.m {
						t.Fatalf("%s: %d words left checked out, high-water %d of M=%d", c.name, env.Cache.Used(), env.Cache.HighWater(), g.m)
					}
					return nil
				})
			}
		})
	}
	for name, a := range ran {
		if !a.columns || !a.bitonic {
			t.Errorf("%s ran columnsort %v and bitonic %v over the rows; both must run", name, a.columns, a.bitonic)
		}
	}
}
