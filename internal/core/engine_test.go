package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/trace"
)

// engineGrid is the geometries, with what the caller holds of the cache,
// that the engine tests resolve and price over.
var engineGrid = []struct{ n, b, m, held int }{
	{0, 8, 512, 0}, {1, 8, 512, 0}, {64, 8, 512, 0}, {336, 8, 512, 128}, {1616, 8, 512, 0},
	{1 << 13, 8, 4096, 0}, {1 << 13, 8, 4096, 2056}, {300, 4, 64, 40}, {19, 6, 96, 0}, {130, 8, 32, 0},
}

// TestEngineResolves: over a grid of geometries, held caches and both
// backends, "auto" resolves to obsort.Pick's choice and every other name to
// itself — the one place an engine name is resolved.
func TestEngineResolves(t *testing.T) {
	picked := map[string]bool{}
	for _, g := range engineGrid {
		free := g.m - g.held
		for _, backend := range []string{"mem", "net"} {
			for _, name := range obsort.EngineNames() {
				want := name
				if name == obsort.EngineAuto {
					want = obsort.Pick(g.n, g.b, g.m, free, backend)
					picked[want] = true
				}
				if got := Engine(name, g.n, g.b, g.m, free, backend); got != want {
					t.Errorf("Engine(%q, %d, %d, %d, %d, %s) = %q, want %q", name, g.n, g.b, g.m, free, backend, got, want)
				}
			}
		}
	}
	if !picked[obsort.EngineBitonic] || !picked[obsort.EngineColumnsort] || !picked[obsort.EngineZigzag] {
		t.Errorf("auto resolved only to %v over the grid; want bitonic, columnsort and zigzag each", picked)
	}
}

// TestRandomizedNeverCheapest is why obsort.Pick never picks the randomized
// sort: over engineGrid, the randomized sort of a full array costs nowhere
// strictly less than the cheapest exact deterministic predictor the
// geometry admits — bitonic, columnsort or zigzag, priced as Pick prices
// them, at the cache the caller leaves — in block I/Os or in round trips.
// Its cost is SortCost at the same free cache (TestSortRespectsHeldCache
// measures it there). Rows below SortFree are left out: the randomized
// sort declares ErrSortCache there.
func TestRandomizedNeverCheapest(t *testing.T) {
	for _, g := range engineGrid {
		free := g.m - g.held
		if free < SortFree(g.n, g.b) {
			continue
		}
		var ios, trips []int64
		for _, name := range []string{obsort.EngineBitonic, obsort.EngineColumnsort, obsort.EngineZigzag} {
			if name == obsort.EngineBitonic && (g.b&(g.b-1) != 0 || g.m < 4*g.b || free < 2*g.b) {
				continue
			}
			if c, ok := obsort.Cost(name, g.n, g.b, free); ok {
				ios, trips = append(ios, c.IOs), append(trips, c.RoundTrips)
			}
		}
		r := SortCost(g.n, g.b, free, g.n*g.b)
		if r.IOs < slices.Min(ios) || r.RoundTrips < slices.Min(trips) {
			t.Errorf("%+v: SortCost %+v undercuts the cheapest deterministic engine (%d I/Os, %d round trips)", g, r, slices.Min(ios), slices.Min(trips))
		}
	}
}

// TestSortRespectsHeldCache: the randomized Sort sizes every level from the
// cache free at its entry, not from M. Under a strict cache with part of it
// held — at n = 300, B = 4, M = 64 with 40 held, 6B free, the floor
// SortFree, where a Sort sized from M reached a high-water of 76 — it
// sorts, its high-water stays within M, and it costs exactly SortCost at
// the free cache, with one trace for every input.
func TestSortRespectsHeldCache(t *testing.T) {
	r := rand.New(rand.NewPCG(57, 58))
	for _, g := range []struct{ n, b, m, held int }{
		{300, 4, 64, 40}, {20, 8, 96, 48}, {336, 8, 512, 128}, {1 << 13, 8, 4096, 2056},
	} {
		free := g.m - g.held
		var first trace.Summary
		for i, kind := range []string{"rand", "equal"} {
			keys := make([]uint64, g.n*g.b)
			for j := range keys {
				if kind == "rand" {
					keys[j] = r.Uint64() % 1_000
				}
			}
			env := newTestEnv(40*g.n+16, g.b, g.m, 7)
			env.Cache = extmem.NewCache(g.m, true)
			env.Cache.Acquire(g.held)
			a := env.D.Alloc(g.n)
			buildKeyArray(a, keys)
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			env.D.ResetStats()
			if err := Sort(env, a); err != nil {
				t.Fatalf("%+v %s: %v", g, kind, err)
			}
			got := env.D.Stats().Cost()
			if want := SortCost(g.n, g.b, free, g.n*g.b); got != want {
				t.Errorf("%+v %s: measured %+v, SortCost at %d free %+v", g, kind, got, free, want)
			}
			if hw := env.Cache.HighWater(); hw > g.m {
				t.Errorf("%+v %s: cache high-water %d > M = %d", g, kind, hw, g.m)
			}
			if used := env.Cache.Used(); used != g.held {
				t.Errorf("%+v %s: %d elements checked out after the Sort, %d held", g, kind, used, g.held)
			}
			checkSorted(t, a, keys)
			if sum := rec.Summarize(); i == 0 {
				first = sum
			} else if !sum.Equal(first) {
				t.Errorf("%+v: trace %v on equal keys differs from %v", g, sum, first)
			}
		}
	}
}

// TestSortWithSorts: every engine name, auto resolved at the call as the
// ORAM's rebuild resolves it, sorts by key with the cache balanced and
// within M; an unresolved or unknown name panics.
func TestSortWithSorts(t *testing.T) {
	const b, m = 8, 512
	r := rand.New(rand.NewPCG(51, 52))
	for _, name := range obsort.EngineNames() {
		for _, nBlocks := range []int{4, 64, 256} {
			env := newTestEnv(4*nBlocks+16, b, m, 7)
			a := env.D.Alloc(nBlocks)
			keys := make([]uint64, nBlocks*b-3) // a ragged last block
			for i := range keys {
				keys[i] = r.Uint64() % 1_000_000
			}
			buildKeyArray(a, keys)
			engine := Engine(name, a.Len(), b, env.M, env.M-env.Cache.Used(), "mem")
			if err := SortWith(env, a, engine); err != nil {
				t.Fatalf("%s (%s), n=%d: %v", name, engine, nBlocks, err)
			}
			if used := env.Cache.Used(); used != 0 {
				t.Fatalf("%s (%s), n=%d: %d words left checked out", name, engine, nBlocks, used)
			}
			if hw := env.Cache.HighWater(); hw > m {
				t.Fatalf("%s (%s), n=%d: cache high-water %d > M = %d", name, engine, nBlocks, hw, m)
			}
			checkSorted(t, a, keys)
		}
	}
	for _, name := range []string{obsort.EngineAuto, "", "quicksort"} {
		t.Run(fmt.Sprintf("panics/%q", name), func(t *testing.T) {
			env := newTestEnv(16, b, m, 7)
			a := env.D.Alloc(4)
			defer func() {
				if recover() == nil {
					t.Fatalf("SortWith(%q) did not panic", name)
				}
			}()
			SortWith(env, a, name)
		})
	}
}

// TestSortWithDeclaresColumnGeometry: columnsort named for an array past its
// size limit in the cache free at the call returns obsort.ErrColumnGeometry
// naming n, B and the free cache, before any I/O.
func TestSortWithDeclaresColumnGeometry(t *testing.T) {
	const b, m, held = 8, 4096, 2048
	env := newTestEnv(8192+16, b, m, 7)
	a := env.D.Alloc(8192) // takes columnsort with all of M free, not with half
	env.Cache.Acquire(held)
	env.D.ResetStats()
	err := SortWith(env, a, obsort.EngineColumnsort)
	if !errors.Is(err, obsort.ErrColumnGeometry) || !strings.Contains(err.Error(), "n=8192 blocks of B=8 with 2048 elements of cache free") {
		t.Fatalf("SortWith(columnsort) with %d held: err = %v, want ErrColumnGeometry naming the geometry", held, err)
	}
	if st := env.D.Stats(); st.Reads+st.Writes != 0 {
		t.Fatalf("the declared error cost %d reads and %d writes", st.Reads, st.Writes)
	}
	env.Cache.Release(held)
	if err := SortWith(env, a, obsort.EngineColumnsort); err != nil {
		t.Fatalf("with M free: %v", err)
	}
}

// TestSortWithBelowTwoBlocks: with fewer than two blocks of cache free no
// engine has room for a pair of blocks, so SortWith declines every name,
// auto resolved, with ErrSortCache, an empty trace and the held cache
// untouched; with two blocks free the deterministic engines sort.
func TestSortWithBelowTwoBlocks(t *testing.T) {
	const nBlocks, b, m = 100, 8, 512
	for _, name := range obsort.EngineNames() {
		for _, held := range []int{m - 2*b + 1, m - 2*b} {
			env := newTestEnv(4*nBlocks+16, b, m, 7)
			a := env.D.Alloc(nBlocks)
			keys := make([]uint64, nBlocks*b)
			for i := range keys {
				keys[i] = uint64(i * 7919 % 1000)
			}
			buildKeyArray(a, keys)
			env.Cache.Acquire(held)
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			engine := Engine(name, nBlocks, b, m, m-held, "mem")
			if held == m-2*b && engine != obsort.EngineBitonic && engine != obsort.EngineZigzag {
				continue // floors of their own, or runs sized from M
			}
			err := SortWith(env, a, engine)
			if used := env.Cache.Used(); used != held {
				t.Fatalf("%s (%s), held %d: %d words checked out after", name, engine, held, used)
			}
			if held > m-2*b {
				if !errors.Is(err, ErrSortCache) || rec.Len() != 0 {
					t.Errorf("%s (%s) with %d free: err %v after %d accesses, want ErrSortCache before any", name, engine, m-held, err, rec.Len())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (%s) with %d free: %v", name, engine, m-held, err)
			}
			checkSorted(t, a, keys)
		}
	}
}

// TestSortDeclaresCacheFloor: the randomized sort below SortFree — M = 4B
// and 5B, where its closing compaction's narrowest butterfly window does
// not fit beside the holding buffer — returns ErrSortCache with an empty
// trace and the cache balanced; at M = 6B it sorts.
func TestSortDeclaresCacheFloor(t *testing.T) {
	const b = 8
	r := rand.New(rand.NewPCG(53, 54))
	for _, mb := range []int{4, 5, 6} {
		for _, nBlocks := range []int{3, 20, 130} {
			t.Run(fmt.Sprintf("M=%dB/n=%d", mb, nBlocks), func(t *testing.T) {
				env := newTestEnv(40*nBlocks+16, b, mb*b, 7)
				a := env.D.Alloc(nBlocks)
				keys := make([]uint64, nBlocks*b)
				for i := range keys {
					keys[i] = r.Uint64() % 1_000
				}
				buildKeyArray(a, keys)
				rec := trace.NewRecorder(0)
				env.D.SetRecorder(rec)
				err := SortWith(env, a, obsort.EngineRandomized)
				if used := env.Cache.Used(); used != 0 {
					t.Fatalf("%d words left checked out", used)
				}
				if mb < 6 {
					if !errors.Is(err, ErrSortCache) {
						t.Fatalf("err = %v, want ErrSortCache", err)
					}
					if n := rec.Len(); n != 0 {
						t.Fatalf("the declared error left a trace of %d accesses", n)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				checkSorted(t, a, keys)
			})
		}
	}
}
