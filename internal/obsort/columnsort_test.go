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
		{8192, 8, 4096, 2048, 32, obs.Cost{IOs: 49152, RoundTrips: 193}},
		{1024, 8, 4096, 2048, 4, obs.Cost{IOs: 6144, RoundTrips: 25}},
		// The ORAM's 64-block rebuild: bitonic's price exactly, in more
		// round trips.
		{64, 8, 384, 128, 4, obs.Cost{IOs: 384, RoundTrips: 25}},
		// A held cache narrows the column and widens the matrix.
		{1024, 8, 2048, 1024, 8, obs.Cost{IOs: 6144, RoundTrips: 49}},
		{20, 4, 1024, 40, 2, obs.Cost{IOs: 120, RoundTrips: 13}},
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

// columnsortNoScratch runs Columnsort and fails the test if the Disk's
// high-water moved: the engine sorts in place.
func columnsortNoScratch(t *testing.T) func(*extmem.Env, extmem.Array, Less) {
	return func(env *extmem.Env, a extmem.Array, less Less) {
		hw := env.D.HighWater()
		Columnsort(env, a, less)
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
	r, _, err := ColumnGeometry(n, b, m-held)
	if err != nil {
		t.Fatal(err)
	}
	var first trace.Summary
	for i, in := range inputs {
		sum, st, hw, elems := heldRun(t, columnsortNoScratch(t), n, b, m, held, in)
		if got := checkSortedPadded(t, elems); !sameMultiset(got, in) {
			t.Fatalf("n=%d b=%d held=%d input %d: multiset changed", n, b, held, i)
		}
		if hw > held+2*r {
			t.Fatalf("n=%d b=%d held=%d: cache high-water %d > held + 2r = %d", n, b, held, hw, held+2*r)
		}
		if want := ColumnCost(n, b, m-held); st.Cost() != want {
			t.Fatalf("n=%d b=%d held=%d: measured %+v, predicted %+v", n, b, held, st.Cost(), want)
		}
		if i == 0 {
			first = sum
		} else if !sum.Equal(first) {
			t.Fatalf("n=%d b=%d held=%d: trace %v of input %d differs from %v", n, b, held, sum, i, first)
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
// cache held — and sorts fuzzed keys and a constant on it: both must sort,
// cost ColumnCost, stay within held + 2r and leave the same trace.
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
		checkColumnRun(t, n, b, m, held, [][]uint64{keys, genKeys(nil, len(keys), "equal")})
	})
}

// BenchmarkColumnsort sorts the benchmark's geometry (N = 2^16, B = 8,
// M = 4096): 6 I/Os per block in 193 round trips.
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
		Columnsort(env, a, ByKey)
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(g.n), "ios/block")
	b.ReportMetric(float64(env.D.Stats().RoundTrips), "round-trips")
}
