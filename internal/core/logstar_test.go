package core

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

func logStarCheck(t *testing.T, a extmem.Array, out extmem.Array, rCap int) {
	t.Helper()
	want := map[uint64]bool{}
	for _, e := range readElems(a) {
		if e.Occupied() {
			want[e.Key] = true
		}
	}
	got := map[uint64]bool{}
	for _, e := range readElems(out) {
		if e.Occupied() {
			if got[e.Key] {
				t.Fatalf("duplicate key %d in log* output", e.Key)
			}
			got[e.Key] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys out, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("key %d lost", k)
		}
	}
	if out.Len() != 4*rCap+extmem.CeilDiv(rCap, 4) {
		t.Fatalf("output size %d, want 4.25R = %d", out.Len(), 4*rCap+extmem.CeilDiv(rCap, 4))
	}
}

func TestLogStarCorrectness(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 4))
	for _, cfg := range []struct{ n, rCap, occ int }{
		{64, 16, 10}, {128, 32, 32}, {256, 32, 20}, {8, 2, 1}, {100, 25, 0},
	} {
		env := newTestEnv(16*cfg.n, 4, 1024, uint64(cfg.n))
		a := env.D.Alloc(cfg.n)
		buildSparseCells(a, r.Perm(cfg.n)[:cfg.occ])
		out, occ, _, err := CompactBlocksLogStar(env, a, cfg.rCap, LogStarParams{})
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if occ != cfg.occ {
			t.Fatalf("cfg %+v: occ=%d", cfg, occ)
		}
		if cfg.n >= 16 {
			logStarCheck(t, a, out, cfg.rCap)
		}
	}
}

func TestLogStarForcedPhases(t *testing.T) {
	// Exercise the tower machinery (thinning-out + region compaction).
	r := rand.New(rand.NewPCG(5, 6))
	env := newTestEnv(1<<14, 4, 1024, 31)
	a := env.D.Alloc(256)
	buildSparseCells(a, r.Perm(256)[:40])
	out, occ, phases, err := CompactBlocksLogStar(env, a, 64, LogStarParams{ForcePhases: 2})
	if err != nil {
		t.Fatal(err)
	}
	if phases != 2 {
		t.Fatalf("phases = %d, want forced 2", phases)
	}
	if occ != 40 {
		t.Fatalf("occ = %d", occ)
	}
	logStarCheck(t, a, out, 64)
}

func TestLogStarPhaseCountCollapsesAtPracticalScale(t *testing.T) {
	// The tower threshold r/t_1^4 <= n/log²n holds for every n <= 2^32, so
	// the phase count is 0 — the log* behaviour the theorem promises.
	env := newTestEnv(1<<13, 4, 1024, 3)
	a := env.D.Alloc(512)
	r := rand.New(rand.NewPCG(1, 2))
	buildSparseCells(a, r.Perm(512)[:100])
	_, _, phases, err := CompactBlocksLogStar(env, a, 128, LogStarParams{})
	if err != nil {
		t.Fatal(err)
	}
	if phases != 0 {
		t.Fatalf("phases = %d at practical scale, want 0", phases)
	}
}

func TestLogStarOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	run := func(occ []int) trace.Summary {
		return traceOf(t, 1<<13, 4, 1024, 55, func(env *extmem.Env) {
			a := env.D.Alloc(128)
			buildSparseCells(a, occ)
			CompactBlocksLogStar(env, a, 32, LogStarParams{ForcePhases: 1})
		})
	}
	s1 := run(nil)
	s2 := run(r.Perm(128)[:32])
	s3 := run([]int{0, 1, 2})
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("log* compaction trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestLogStarNearLinearIO(t *testing.T) {
	io := func(n int) float64 {
		env := newTestEnv(16*n, 8, 2048, uint64(n))
		a := env.D.Alloc(n)
		r := rand.New(rand.NewPCG(uint64(n), 7))
		buildSparseCells(a, r.Perm(n)[:n/8])
		env.D.ResetStats()
		if _, _, _, err := CompactBlocksLogStar(env, a, n/4, LogStarParams{}); err != nil {
			t.Fatal(err)
		}
		return float64(env.D.Stats().Total()) / float64(n)
	}
	small, large := io(256), io(2048)
	if large > small*1.8 {
		t.Fatalf("log* compaction I/O per block grew from %.1f to %.1f", small, large)
	}
}

// TestLogStarIOAtPinnedGeometry pins log* compaction's block I/Os and round
// trips at n = 1 024, B = 8, M = 4 096, rCap = 256: zeroing the output,
// copying the input into the working array while counting its occupied
// blocks, and marking the survivors are one scan each, not a round trip a
// block.
func TestLogStarIOAtPinnedGeometry(t *testing.T) {
	const n, b, m, rCap = 1024, 8, 4096, 256
	env := newTestEnv(16*n, b, m, 9)
	a := env.D.Alloc(n)
	buildSparseCells(a, rand.New(rand.NewPCG(3, 9)).Perm(n)[:n/8])
	env.D.ResetStats()
	_, occ, _, err := CompactBlocksLogStar(env, a, rCap, LogStarParams{})
	if err != nil {
		t.Fatal(err)
	}
	if occ != n/8 {
		t.Fatalf("occ = %d, want %d", occ, n/8)
	}
	st := env.D.Stats()
	if st.Total() != 40272 || st.RoundTrips != 198 {
		t.Fatalf("log* compaction: %d I/Os in %d round trips, want 40 272 in 198", st.Total(), st.RoundTrips)
	}
}

// TestThinningPassSurvivorRate measures Lemma 7's decay on Theorem 9's probe
// kernel: each probe leaves at most ~1/4 of the occupied cells unmoved in
// expectation (C is at least 3/4 empty), so survivors decay geometrically —
// whether the cells sit in a cache buffer or are scanned through one by
// thinningPass.
func TestThinningPassSurvivorRate(t *testing.T) {
	const n, rCap, b = 256, 64, 4
	r := rand.New(rand.NewPCG(8, 8))
	occupied := func(cells []extmem.Element) int {
		occ := 0
		for j := 0; j < len(cells); j += b {
			if route.PredOccupied(cells[j : j+b]) {
				occ++
			}
		}
		return occ
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
