package obsort

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

// TestColumnGeometry pins the matrix and the price at the geometries the
// engine is chosen or passed over for, and the rejection of an array past
// the size limit: an error naming n, B and the free cache.
func TestColumnGeometry(t *testing.T) {
	for _, g := range []struct {
		n, b, free, r, s int
		cost             obs.Cost
	}{
		// The benchmark's sort: 0.75 I/Os per record against bitonic's 1.75.
		{8192, 8, 4096, 2048, 32, obs.Cost{IOs: 49152, RoundTrips: 100}},
		{1024, 8, 4096, 2048, 4, obs.Cost{IOs: 6144, RoundTrips: 16}},
		// The ORAM's 64-block rebuild: bitonic's price exactly, in more
		// round trips.
		{64, 8, 384, 128, 4, obs.Cost{IOs: 384, RoundTrips: 16}},
		// A held cache narrows the column and widens the matrix.
		{1024, 8, 2048, 1024, 8, obs.Cost{IOs: 6144, RoundTrips: 28}},
		{20, 4, 1024, 40, 2, obs.Cost{IOs: 120, RoundTrips: 10}},
	} {
		r, s, err := ColumnGeometry(g.n, g.b, g.free)
		if err != nil || r != g.r || s != g.s {
			t.Errorf("ColumnGeometry(%d, %d, %d) = %d × %d, %v; want %d × %d", g.n, g.b, g.free, r, s, err, g.r, g.s)
		}
		if c := ColumnCost(g.n, g.b, g.free); c != g.cost {
			t.Errorf("ColumnCost(%d, %d, %d) = %+v, want %+v", g.n, g.b, g.free, c, g.cost)
		}
	}
	for _, g := range []struct{ n, b, free int }{
		{8192, 8, 2048}, // r ≤ 1024 needs s ≥ 64: past the limit
		{1616, 8, 512},  // the ORAM's largest rebuild
		{4097, 8, 4096}, // no square divides n
		{64, 8, 255},    // no room for a column and its deal buffer
		{1, 8, 4096},
	} {
		_, _, err := ColumnGeometry(g.n, g.b, g.free)
		want := fmt.Sprintf("n=%d blocks of B=%d with %d elements of cache free", g.n, g.b, g.free)
		if !errors.Is(err, ErrColumnGeometry) || !strings.Contains(err.Error(), want) {
			t.Errorf("ColumnGeometry(%d, %d, %d): err = %v, want ErrColumnGeometry naming %q", g.n, g.b, g.free, err, want)
		}
		if c := ColumnCost(g.n, g.b, g.free); c != (obs.Cost{}) {
			t.Errorf("ColumnCost(%d, %d, %d) = %+v for a rejected geometry", g.n, g.b, g.free, c)
		}
	}
	if _, _, err := ColumnGeometry(0, 8, 0); err != nil {
		t.Errorf("an empty array: %v", err)
	}
}

// TestDeterministicRule pins which engine Deterministic runs at the
// geometries internal/core's callers meet at B = 8, M = 4 096: columnsort
// only where it is no dearer than bitonic in block I/Os and in round trips.
// Each row sorts random keys through Deterministic on a strict cache and
// requires the named engine's span, a sorted result, and the cost
// DeterministicCost predicts. Choosing allocates nothing, where no matrix
// fits too: Theorem 21 chooses once per bucket.
func TestDeterministicRule(t *testing.T) {
	const b, m = 8, 4096
	for _, r := range []struct {
		n               int
		engine          string
		bitonic, column obs.Cost
	}{
		// scan_enc_file's Quantiles(8): cheaper on both counts.
		{8192, "columnsort", obs.Cost{IOs: 114688, RoundTrips: 119}, obs.Cost{IOs: 49152, RoundTrips: 100}},
		// sort_mem's sample: a tie on I/Os, and fewer round trips.
		{1024, "bitonic", obs.Cost{IOs: 6144, RoundTrips: 9}, obs.Cost{IOs: 6144, RoundTrips: 16}},
		// Fewer I/Os, more round trips: neither dominates.
		{2048, "bitonic", obs.Cost{IOs: 16384, RoundTrips: 20}, obs.Cost{IOs: 12288, RoundTrips: 28}},
		// A sort_mem bucket: no matrix fits.
		{1989, "bitonic", obs.Cost{IOs: 15912, RoundTrips: 20}, obs.Cost{}},
		// scan_enc_file's loose residue: one bitonic window.
		{256, "bitonic", obs.Cost{IOs: 512, RoundTrips: 2}, obs.Cost{IOs: 1536, RoundTrips: 10}},
		// Fewer I/Os, one round trip more: bitonic, whose passes stopped
		// reading and writing the pad to 2 048 blocks (columnsort took it
		// at 19 round trips each while bitonic's were 14 388 I/Os).
		{1050, "bitonic", obs.Cost{IOs: 8400, RoundTrips: 18}, obs.Cost{IOs: 6300, RoundTrips: 19}},
	} {
		if bt, c := BitonicCost(r.n, b, m), ColumnCost(r.n, b, m); bt != r.bitonic || c != r.column {
			t.Errorf("n=%d: bitonic %+v and columnsort %+v, want %+v and %+v", r.n, bt, c, r.bitonic, r.column)
		}
		want := r.bitonic
		if r.engine == "columnsort" {
			want = r.column
		}
		if c := DeterministicCost(r.n, b, m); c != want {
			t.Errorf("n=%d: DeterministicCost %+v, want %s's %+v", r.n, c, r.engine, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { columnsDominate(r.n, b, m, false) }); allocs != 0 {
			t.Errorf("n=%d: choosing the engine allocates %.0f objects", r.n, allocs)
		}
		keys := genKeys(rand.New(rand.NewPCG(uint64(r.n), 43)), r.n*b-5, "rand")
		env := extmem.NewEnv(2*r.n, b, m, 3)
		env.Cache = extmem.NewCache(m, true)
		a := env.D.Alloc(r.n)
		fillArray(env, a, keys)
		col := env.EnableObs()
		env.D.ResetStats()
		Deterministic(env, a)
		got := env.D.Stats().Cost()
		if roots := col.Roots(); len(roots) != 1 || roots[0].Name != r.engine {
			t.Errorf("n=%d: spans %s, want one %s", r.n, obs.RenderTree(roots), r.engine)
		}
		if sorted := checkSortedPadded(t, readAll(a)); !sameMultiset(sorted, keys) {
			t.Errorf("n=%d: multiset changed", r.n)
		}
		if got != want {
			t.Errorf("n=%d: measured %+v, DeterministicCost %+v", r.n, got, want)
		}
	}
}

// TestDeterministicVisitRule pins the engine and the price of a sort whose
// caller reads the result once, through a visitor, at the same geometries:
// columnsort's last pass then writes nothing, 5 I/Os per block in 3s+2
// round trips, while bitonic sorts and a scan reads the result back. At 8 192
// blocks (Select's tail and Quantiles' sort arm on scan_enc_file) columnsort
// dominates as before; at 1 024 and 2 048 it still does not. Each row sorts
// from a source into scratch through DeterministicInto on a strict cache,
// its first pass handing the source to an observer, and requires the named
// engine's span, sorted windows in order, and the predicted cost.
func TestDeterministicVisitRule(t *testing.T) {
	const b, m = 8, 4096
	for _, r := range []struct {
		n      int
		engine string
		want   obs.Cost
	}{
		{8192, "columnsort", obs.Cost{IOs: 40960, RoundTrips: 98}},
		{1024, "bitonic", obs.Cost{IOs: 7168, RoundTrips: 12}},
		{2048, "bitonic", obs.Cost{IOs: 18432, RoundTrips: 25}},
		{1989, "bitonic", obs.Cost{IOs: 17901, RoundTrips: 24}},
		// Columnsort since each pass pairs a write with the next read: 11
		// round trips either way (15 against bitonic and a scan's 14 before).
		{576, "columnsort", obs.Cost{IOs: 2880, RoundTrips: 11}},
	} {
		if c := DeterministicVisitCost(r.n, b, m); c != r.want {
			t.Errorf("n=%d: DeterministicVisitCost %+v, want %s's %+v", r.n, c, r.engine, r.want)
		}
		if allocs := testing.AllocsPerRun(10, func() { columnsDominate(r.n, b, m, true) }); allocs != 0 {
			t.Errorf("n=%d: choosing the engine allocates %.0f objects", r.n, allocs)
		}
		keys := genKeys(rand.New(rand.NewPCG(uint64(r.n), 44)), r.n*b-5, "rand")
		var col *obs.Collector
		into := func(env *extmem.Env, src, dst extmem.Array, first func([]extmem.Element), visit func(int, []extmem.Element)) {
			col = env.EnableObs()
			DeterministicInto(env, src, dst, first, visit)
		}
		_, st, _, elems := intoRun(t, into, r.n, b, m, 0, keys, true)
		if roots := col.Roots(); len(roots) != 1 || roots[0].Name != r.engine {
			t.Errorf("n=%d: spans %s, want one %s", r.n, obs.RenderTree(roots), r.engine)
		}
		if sorted := checkSortedPadded(t, elems); !sameMultiset(sorted, keys) {
			t.Errorf("n=%d: multiset changed", r.n)
		}
		if got := st.Cost(); got != r.want {
			t.Errorf("n=%d: measured %+v, DeterministicVisitCost %+v", r.n, got, r.want)
		}
	}
}

// TestDeterministicBitonicWithinTwoWindows: an array of at most two of
// bitonic's windows (the largest power of two of blocks that fits the free
// cache) always keeps bitonic, whose passes over it make at most 9 round
// trips against columnsort's 3s+4 ≥ 10.
func TestDeterministicBitonicWithinTwoWindows(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8, 64} {
		for fb := 2; fb <= 300; fb++ {
			w := 1
			for 2*w <= fb {
				w *= 2
			}
			for n := 1; n <= 2*w; n++ {
				if columnsDominate(n, b, fb*b, false) {
					t.Fatalf("n=%d blocks of B=%d with %d blocks free: columnsort %+v dominates bitonic %+v within two windows of %d",
						n, b, fb, ColumnCost(n, b, fb*b), BitonicCost(n, b, fb*b), w)
				}
			}
		}
	}
}

// columnsortNoScratch runs Columnsort and fails the test if the Disk's
// high-water moved: the engine sorts in place.
func columnsortNoScratch(t *testing.T) func(*extmem.Env, extmem.Array) {
	return func(env *extmem.Env, a extmem.Array) {
		hw := env.D.HighWater()
		Columnsort(env, a)
		if got := env.D.HighWater(); got != hw {
			t.Fatalf("columnsort grew the disk from %d to %d blocks", hw, got)
		}
	}
}

// checkColumnRun sorts each input in n blocks of b on a strict cache of m
// with held checked out, and checks the result sorted with its multiset
// kept, the cost ColumnCost at the free cache, the high-water within
// held + 2r, no disk scratch, and one trace for every input.
func checkColumnRun(t *testing.T, n, b, m, held int, inputs [][]uint64) {
	t.Helper()
	run := func(in []uint64) (trace.Summary, obs.Counters, int, []extmem.Element) {
		return heldRun(t, columnsortNoScratch(t), n, b, m, held, in)
	}
	checkColumnRuns(t, "in place", run, ColumnCost(n, b, m-held), n, b, m, held, inputs)
}

// checkColumnRuns checks what run returns for each input as checkColumnRun
// does, against the cost want.
func checkColumnRuns(t *testing.T, mode string, run func([]uint64) (trace.Summary, obs.Counters, int, []extmem.Element), want obs.Cost, n, b, m, held int, inputs [][]uint64) {
	t.Helper()
	r, _, err := ColumnGeometry(n, b, m-held)
	if err != nil {
		t.Fatal(err)
	}
	var first trace.Summary
	for i, in := range inputs {
		sum, st, hw, elems := run(in)
		if got := checkSortedPadded(t, elems); !sameMultiset(got, in) {
			t.Fatalf("%s, n=%d b=%d held=%d input %d: multiset changed", mode, n, b, held, i)
		}
		if hw > held+2*r {
			t.Fatalf("%s, n=%d b=%d held=%d: cache high-water %d > held + 2r = %d", mode, n, b, held, hw, held+2*r)
		}
		if st.Cost() != want {
			t.Fatalf("%s, n=%d b=%d held=%d: measured %+v, predicted %+v", mode, n, b, held, st.Cost(), want)
		}
		if i == 0 {
			first = sum
		} else if !sum.Equal(first) {
			t.Fatalf("%s, n=%d b=%d held=%d: trace %v of input %d differs from %v", mode, n, b, held, sum, i, first)
		}
	}
}

// TestColumnsortSortsObliviously runs the engine over key kinds that stress
// the merge (sorted, reversed, few and one distinct keys) and part-empty
// arrays, at matrices from 2 to 32 columns, some under a held cache.
func TestColumnsortSortsObliviously(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	for _, g := range []struct{ n, b, m, held int }{
		{8192, 8, 4096, 0}, {1024, 8, 4096, 0}, {1024, 8, 4096, 2048}, {64, 8, 512, 128},
		{128, 8, 512, 0}, {20, 4, 1024, 0}, {48, 2, 96, 0}, {72, 16, 1024, 100}, {50, 4, 1024, 100},
	} {
		var inputs [][]uint64
		for _, kind := range []string{"rand", "sorted", "reverse", "dup", "equal"} {
			inputs = append(inputs, genKeys(rng, g.n*g.b, kind), genKeys(rng, g.n*g.b*3/5, kind))
		}
		checkColumnRun(t, g.n, g.b, g.m, g.held, inputs)
	}
}

// FuzzColumnsort builds a random admissible matrix — s columns of r
// elements for a fuzzed (s, B), the shortest r the size limit and the
// block alignment allow or a multiple of it, with a fuzzed part of the
// cache held — and sorts fuzzed keys and a constant on it, in place, from
// a source array into another, and from a source with the last pass's
// windows handed to a visitor: each must sort, stay within held + 2r, leave
// one trace for both inputs and cost ColumnCost, or 5 I/Os per block in
// 3s+2 round trips with the visitor.
func FuzzColumnsort(f *testing.F) {
	f.Add(uint8(30), uint8(3), uint8(0), uint16(0), uint64(1)) // 32 columns of 2048: the benchmark's sort
	f.Add(uint8(2), uint8(3), uint8(0), uint16(128), uint64(2))
	f.Add(uint8(0), uint8(0), uint8(1), uint16(7), uint64(3))
	f.Add(uint8(13), uint8(1), uint8(2), uint16(500), uint64(4))
	f.Fuzz(func(t *testing.T, sRaw, bRaw, kRaw uint8, heldRaw uint16, seed uint64) {
		s, b := 2+int(sRaw)%31, 1<<(bRaw%5)
		unit := s * b
		if unit%(2*b) != 0 {
			unit *= 2
		}
		r := extmem.CeilDiv(2*(s-1)*(s-1), unit) * unit * (1 + int(kRaw)%3)
		n := r * s / b
		held := int(heldRaw) % 1024
		m := held + 2*r + int(heldRaw)%(2*b)
		keys := genKeys(rand.New(rand.NewPCG(seed, 2)), n*b-int(seed%uint64(b+1)), "rand")
		inputs := [][]uint64{keys, genKeys(nil, len(keys), "equal")}
		checkColumnRun(t, n, b, m, held, inputs)
		for _, visit := range []bool{false, true} {
			run := func(in []uint64) (trace.Summary, obs.Counters, int, []extmem.Element) {
				return intoRun(t, columnsort, n, b, m, held, in, visit)
			}
			want := obs.Cost{IOs: 6 * int64(n), RoundTrips: 3*int64(s) + 4}
			if visit {
				want = obs.Cost{IOs: 5 * int64(n), RoundTrips: 3*int64(s) + 2}
			}
			checkColumnRuns(t, fmt.Sprintf("from a source, visit %v", visit), run, want, n, b, m, held, inputs)
		}
	})
}

// BenchmarkColumnsort sorts the benchmark's geometry (N = 2^16, B = 8,
// M = 4096): 6 I/Os per block in 100 round trips.
func BenchmarkColumnsort(b *testing.B) {
	g := benchGeometry
	env := extmem.NewEnv(g.n, g.b, g.m, 1)
	a := env.D.Alloc(g.n)
	keys := genKeys(rand.New(rand.NewPCG(7, 8)), g.n*g.b, "rand")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillArray(env, a, keys)
		env.D.ResetStats()
		b.StartTimer()
		Columnsort(env, a)
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(g.n), "ios/block")
	b.ReportMetric(float64(env.D.Stats().RoundTrips), "round-trips")
}
