package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/rng"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

func TestLooseCompactCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 9))
	for _, cfg := range []struct{ n, rCap, occ int }{
		{64, 16, 16}, {64, 16, 5}, {128, 16, 10}, {32, 8, 0}, {256, 32, 30}, {7, 2, 1},
	} {
		env := newTestEnv(8*cfg.n+16, 4, 256, uint64(cfg.n))
		a := env.D.Alloc(cfg.n)
		occ := r.Perm(cfg.n)[:cfg.occ]
		buildSparseCells(a, occ)
		before := readElems(a)
		want := map[uint64]bool{}
		for _, e := range before {
			if e.Occupied() {
				want[e.Key] = true
			}
		}
		out, got, _, err := CompactBlocksLoose(env, a, cfg.rCap)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if got != cfg.occ {
			t.Fatalf("cfg %+v: occupied = %d", cfg, got)
		}
		if out.Len() != 5*cfg.rCap {
			t.Fatalf("cfg %+v: out size %d, want %d", cfg, out.Len(), 5*cfg.rCap)
		}
		gotKeys := map[uint64]bool{}
		for _, e := range readElems(out) {
			if e.Occupied() {
				if gotKeys[e.Key] {
					t.Fatalf("cfg %+v: duplicate key %d in output", cfg, e.Key)
				}
				gotKeys[e.Key] = true
			}
		}
		if len(gotKeys) != len(want) {
			t.Fatalf("cfg %+v: %d keys out, want %d", cfg, len(gotKeys), len(want))
		}
		for k := range want {
			if !gotKeys[k] {
				t.Fatalf("cfg %+v: key %d lost", cfg, k)
			}
		}
		for i, e := range readElems(a) {
			if e != before[i] {
				t.Fatalf("cfg %+v: input slot %d modified", cfg, i)
			}
		}
	}
}

func TestLooseCompactOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 7))
	run := func(occ []int) trace.Summary {
		return traceOf(t, 1024, 4, 256, 77, func(env *extmem.Env) {
			a := env.D.Alloc(64)
			buildSparseCells(a, occ)
			CompactBlocksLoose(env, a, 16)
		})
	}
	s1 := run(nil)
	s2 := run(r.Perm(64)[:16])
	s3 := run([]int{0, 1, 2, 3})
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("loose compaction trace depends on data: %v %v %v", s1, s2, s3)
	}
}

// At B = 8, M = 512 the plan probes three times a round (c0 = 3, g = 24 to
// 26): zeroing C costs 1 I/O per block, the rounds (1.5 + 2·3)·Σs < 15 per
// block (Σs < 2n), the residue's sort and the tail at most 1. Each call costs
// exactly LooseCost less its repeated probes, so LooseCost under that
// constant at every n is the linearity claim. The ratio between two lengths
// is not: the residue's sort is a larger share of a short array's cost, and
// it shrinks with the sort's window.
func TestLooseCompactLinearIO(t *testing.T) {
	const b, m = 8, 512
	for _, n := range []int{128, 512, 2048} {
		plan, ok := loosePlan(n, b, m)
		if !ok || plan.c0 != 3 {
			t.Fatalf("n=%d: plan %+v, %v; want the rounds at c0 = 3", n, plan, ok)
		}
		env := newTestEnv(8*n, b, m, 13)
		a := env.D.Alloc(n)
		r := rand.New(rand.NewPCG(uint64(n), 2))
		buildSparseCells(a, r.Perm(n)[:n/8])
		env.D.ResetStats()
		_, _, repeats, err := CompactBlocksLoose(env, a, n/4)
		if err != nil {
			t.Fatal(err)
		}
		want := LooseCost(n, n/4, b, m)
		if got := env.D.Stats().Cost().Add(obs.Cost{IOs: 2 * repeats}); got != want {
			t.Errorf("n=%d: measured %+v with 2·%d repeated probes added back, predicted %+v", n, got, repeats, want)
		}
		if perBlock := float64(want.IOs) / float64(n); perBlock > 1+2*(1.5+2*float64(plan.c0))+1 {
			t.Errorf("n=%d: LooseCost is %.1f I/Os per block, over the plan's constant", n, perBlock)
		}
	}
}

func TestLooseCompactOverflowDetected(t *testing.T) {
	env := newTestEnv(512, 4, 256, 5)
	a := env.D.Alloc(64)
	occ := make([]int, 40)
	for i := range occ {
		occ[i] = i
	}
	buildSparseCells(a, occ)
	_, _, _, err := CompactBlocksLoose(env, a, 8) // 40 > 8
	if !errors.Is(err, ErrLooseOverflow) {
		t.Fatalf("err = %v, want ErrLooseOverflow", err)
	}
}

// TestThinningPassSurvivorRate measures Lemma 7's decay on the probe kernel
// Theorems 8 and 9 share: each probe leaves at most ~1/4 of the occupied
// cells unmoved in expectation (C is at least 3/4 empty), so survivors decay
// geometrically — whether the cells sit in a cache buffer, as in Theorem 8's
// rounds, or are scanned through one by thinningPass.
func TestThinningPassSurvivorRate(t *testing.T) {
	const n, rCap, b = 256, 64, 4
	r := rand.New(rand.NewPCG(8, 8))
	occupied := func(cells []extmem.Element) int {
		return packOccupied(append([]extmem.Element(nil), cells...), b)
	}
	for _, inCache := range []bool{true, false} {
		env := newTestEnv(4096, b, 4*n*b, 21)
		a := env.D.Alloc(n)
		buildSparseCells(a, r.Perm(n)[:rCap])
		c := env.D.Alloc(4 * rCap)
		zeroArray(env, c)
		cells := readElems(a)
		p := newProber(env, 32)
		counts := []int{occupied(cells)}
		for pass := 0; pass < 4; pass++ {
			if inCache {
				p.probe(cells, c)
			} else {
				thinningPass(env, a, c)
				cells = readElems(a)
			}
			counts = append(counts, occupied(cells))
		}
		p.close()
		// After 4 probes the expectation is <= rCap/4^4 = 0.25 cells; allow
		// generous slack, and nothing may be lost on the way.
		if counts[0] != rCap || counts[4] > rCap/8 {
			t.Fatalf("in cache %v: survivor counts %v decay too slowly", inCache, counts)
		}
		if moved := occupied(readElems(c)); moved+counts[4] != rCap {
			t.Fatalf("in cache %v: %d cells in C and %d survivors of %d", inCache, moved, counts[4], rCap)
		}
		if env.Cache.Used() != 0 {
			t.Fatalf("in cache %v: %d words left checked out", inCache, env.Cache.Used())
		}
	}
}

func TestLooseCompactCacheBound(t *testing.T) {
	env := newTestEnv(2048, 4, 128, 31)
	a := env.D.Alloc(128)
	r := rand.New(rand.NewPCG(9, 9))
	buildSparseCells(a, r.Perm(128)[:16])
	env.Cache.ResetHighWater()
	if _, _, _, err := CompactBlocksLoose(env, a, 32); err != nil {
		t.Fatal(err)
	}
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("loose compaction used %d private elements > M=%d", hw, env.M)
	}
}

// The plan's constants at the benchmark's and the unit tests' geometries, and
// its two ways out: no region fits the cache, fewer than two regions fit n.
func TestLoosePlan(t *testing.T) {
	for _, c := range []struct {
		n, b, m       int
		c0, g, rounds int
	}{
		{1 << 13, 8, 4096, 1, 256, 5}, // the benchmark's scan_enc_file
		{128, 4, 256, 3, 24, 2},
		{128, 4, 128, 4, 16, 3},
		{1 << 13, 8, 96, 0, 0, 0}, // g >= 7 at c0 = 8: never within 6 blocks
		{40, 4, 256, 0, 0, 0},     // g = 23: one region
		{0, 8, 4096, 0, 0, 0},
	} {
		if c0, g, rounds := LoosePlan(c.n, c.b, c.m); c0 != c.c0 || g != c.g || rounds != c.rounds {
			t.Errorf("LoosePlan(%d, %d, %d) = c0 %d, g %d, %d rounds, want %d, %d, %d", c.n, c.b, c.m, c0, g, rounds, c.c0, c.g, c.rounds)
		}
	}
}

// placeCells returns which of n cells are occupied when occ of them are
// placed at random, contiguously at the front, or contiguously at the back.
func placeCells(placement string, n, occ int, r *rand.Rand) []int {
	if placement == "random" {
		return r.Perm(n)[:occ]
	}
	cells := make([]int, occ)
	for i := range cells {
		cells[i] = i
		if placement == "back" {
			cells[i] += n - occ
		}
	}
	return cells
}

func TestLooseCostMatchesPrediction(t *testing.T) {
	for _, c := range []struct{ n, rCap, b, m int }{
		{1 << 13, 2732, 8, 4096}, // the benchmark's scan_enc_file
		{1 << 13, 1 << 11, 8, 4096},
		{3000, 700, 8, 1024}, // unbalanced regions, a block count Bitonic pads
		{128, 32, 4, 256},
		{1000, 10, 4, 128},
		{40, 10, 4, 256}, // one region: the sort path
		{18, 4, 4, 48},   // no room for the rounds: the sort path, by columnsort
	} {
		env := newTestEnv(c.n, c.b, c.m, 3)
		a := env.D.Alloc(c.n)
		buildSparseCells(a, placeCells("random", c.n, min(c.rCap, c.n/4), rand.New(rand.NewPCG(4, 4))))
		env.D.ResetStats()
		_, _, repeats, err := CompactBlocksLoose(env, a, c.rCap)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		st := env.D.Stats()
		if got, want := st.Cost().Add(obs.Cost{IOs: 2 * repeats}), LooseCost(c.n, c.rCap, c.b, c.m); got != want {
			t.Errorf("%+v: measured %+v with 2·%d repeated probes added back, predicted %+v", c, got, repeats, want)
		}
	}
}

// The plan bounds a call's failure by 2^-40, so no tape of any sweep may
// fail — in particular with every occupied cell in the same few regions,
// where a too-small region or a too-weak probe count would show first.
func TestLooseNeverFailsOverSeededSweep(t *testing.T) {
	sweeps := []struct{ n, rCap, b, m, tapes int }{
		{1 << 13, 1 << 11, 8, 4096, 500},
		{128, 32, 4, 256, 500},
		{300, 75, 4, 128, 500},
	}
	for _, s := range sweeps {
		if testing.Short() {
			s.tapes /= 10
		}
		for _, placement := range []string{"random", "front", "back"} {
			env := newTestEnv(s.n, s.b, s.m, 1)
			a := env.D.Alloc(s.n)
			buildSparseCells(a, placeCells(placement, s.n, s.rCap, rand.New(rand.NewPCG(6, 6))))
			for tape := 0; tape < s.tapes; tape++ {
				env.Tape = rng.NewTape(uint64(tape), uint64(s.n))
				mark := env.D.Mark()
				_, occ, _, err := CompactBlocksLoose(env, a, s.rCap)
				if err != nil || occ != s.rCap {
					t.Fatalf("%+v, %s, tape %d: %d occupied, %v", s, placement, tape, occ, err)
				}
				env.D.Release(mark)
			}
		}
	}
}

// A hostile shape — no probes, two-block regions — keeps every occupied
// cell, so contiguous occupied cells overflow their regions: the failure is
// declared, the cache balanced, and the trace that of a fault-free run.
func TestLooseDeclaredFailures(t *testing.T) {
	const n, rCap, b, m = 64, 16, 4, 256
	hostile := looseShape{c0: 0, g: 2}
	run := func(occ []int, wantOcc int, wantErr error) trace.Summary {
		return traceOf(t, 8*n, b, m, 9, func(env *extmem.Env) {
			a := env.D.Alloc(n)
			buildSparseCells(a, occ)
			out, got, _, err := looseWith(env, a, rCap, hostile)
			if !errors.Is(err, wantErr) {
				t.Fatalf("%d occupied: err = %v, want %v", len(occ), err, wantErr)
			}
			if got != wantOcc || out.Len() != 5*rCap {
				t.Fatalf("%d occupied: counted %d, output of %d blocks", len(occ), got, out.Len())
			}
			if env.Cache.Used() != 0 {
				t.Fatalf("%d occupied: %d words left checked out", len(occ), env.Cache.Used())
			}
		})
	}
	clean := run(nil, 0, nil)
	for name, sum := range map[string]trace.Summary{
		"one cell":        run([]int{5}, 1, nil), // alone in every region it reaches
		"region overflow": run(placeCells("front", n, rCap, nil), rCap, ErrLooseOverflow),
		"over capacity":   run(placeCells("back", n, rCap+1, nil), rCap+1, ErrLooseOverflow),
	} {
		if !sum.Equal(clean) {
			t.Errorf("%s: trace %v differs from the fault-free %v", name, sum, clean)
		}
	}
}

// looseBenchInput lays the benchmark's scan_enc_file shape: 2^13 blocks of
// 8, a quarter of them occupied, capacity for a third of the elements.
func looseBenchInput(env *extmem.Env, placement string) (extmem.Array, int) {
	const nBlocks, b = 1 << 13, 8
	a := env.D.Alloc(nBlocks)
	buildSparseCells(a, placeCells(placement, nBlocks, nBlocks/4, rand.New(rand.NewPCG(7, 7))))
	return a, extmem.CeilDiv(nBlocks*b/3, b) + 1
}

// The public CompactLoose — Lemma 3's consolidation, then Theorem 8 — at the
// benchmark's geometry: at most 11 I/Os per block, the cache within M, and
// one trace whatever the data.
func TestLooseTraceAtBenchmarkGeometry(t *testing.T) {
	const b, m = 8, 4096
	var want trace.Summary
	for _, placement := range []string{"random", "front", "back"} {
		sum := traceOf(t, 1<<15, b, m, 12, func(env *extmem.Env) {
			a, rCap := looseBenchInput(env, placement)
			env.D.ResetStats()
			env.Cache.ResetHighWater()
			cons, _ := route.Consolidate(env, a, extmem.Element.Occupied)
			if _, occ, _, err := CompactBlocksLoose(env, cons, rCap); err != nil || occ != a.Len()/4 {
				t.Fatalf("%s: %d occupied, %v", placement, occ, err)
			}
			if per := float64(env.D.Stats().Total()) / float64(a.Len()); per > 11 {
				t.Errorf("%s: %.2f I/Os per block, want at most 11", placement, per)
			}
			if hw := env.Cache.HighWater(); hw > m || env.Cache.Used() != 0 {
				t.Errorf("%s: cache high-water %d of %d, %d left checked out", placement, hw, m, env.Cache.Used())
			}
		})
		if want.Len == 0 {
			want = sum
		} else if !sum.Equal(want) {
			t.Errorf("%s: trace %v, want %v", placement, sum, want)
		}
	}
}

func BenchmarkCompactLoose(b *testing.B) {
	env := newTestEnv(1<<15, 8, 4096, 1)
	a, rCap := looseBenchInput(env, "random")
	cons, _ := route.Consolidate(env, a, extmem.Element.Occupied)
	env.D.ResetStats()
	b.ReportAllocs()
	for b.Loop() {
		mark := env.D.Mark()
		if _, _, _, err := CompactBlocksLoose(env, cons, rCap); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/float64(a.Len()), "ios/block")
}
