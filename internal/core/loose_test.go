package core

import (
	"errors"
	"math/rand/v2"
	"sort"
	"testing"

	"oblivext/internal/extmem"
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
		want := map[uint64]bool{}
		for _, e := range readElems(a) {
			if e.Occupied() {
				want[e.Key] = true
			}
		}
		out, got, err := CompactBlocksLoose(env, a, cfg.rCap, LooseParams{})
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
	}
}

func TestLooseCompactOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 7))
	run := func(occ []int) trace.Summary {
		return traceOf(t, 1024, 4, 256, 77, func(env *extmem.Env) {
			a := env.D.Alloc(64)
			buildSparseCells(a, occ)
			CompactBlocksLoose(env, a, 16, LooseParams{})
		})
	}
	s1 := run(nil)
	s2 := run(r.Perm(64)[:16])
	s3 := run([]int{0, 1, 2, 3})
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("loose compaction trace depends on data: %v %v %v", s1, s2, s3)
	}
}

func TestLooseCompactLinearIO(t *testing.T) {
	io := func(n int) float64 {
		env := newTestEnv(8*n, 8, 512, 13)
		a := env.D.Alloc(n)
		r := rand.New(rand.NewPCG(uint64(n), 2))
		buildSparseCells(a, r.Perm(n)[:n/8])
		env.D.ResetStats()
		if _, _, err := CompactBlocksLoose(env, a, n/4, LooseParams{}); err != nil {
			t.Fatal(err)
		}
		return float64(env.D.Stats().Total()) / float64(n)
	}
	small, large := io(128), io(2048)
	if large > small*1.7 {
		t.Fatalf("loose compaction I/O per block grew from %.1f to %.1f — not linear", small, large)
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
	_, _, err := CompactBlocksLoose(env, a, 8, LooseParams{}) // 40 > 8
	if !errors.Is(err, ErrLooseOverflow) {
		t.Fatalf("err = %v, want ErrLooseOverflow", err)
	}
}

// TestThinningPassSurvivorRate is E12's core measurement: each pass leaves
// at most ~1/4 of occupied cells uncopied in expectation (C is at least 3/4
// empty), so survivors decay geometrically.
func TestThinningPassSurvivorRate(t *testing.T) {
	env := newTestEnv(4096, 4, 256, 21)
	n, rCap := 256, 64
	a := env.D.Alloc(n)
	r := rand.New(rand.NewPCG(8, 8))
	buildSparseCells(a, r.Perm(n)[:rCap])
	c := env.D.Alloc(4 * rCap)
	blk := make([]extmem.Element, 4)
	for i := range blk {
		blk[i] = extmem.Element{}
	}
	for i := 0; i < c.Len(); i++ {
		c.Write(i, blk)
	}
	counts := []int{rCap}
	for pass := 0; pass < 4; pass++ {
		thinningPass(env, a, c)
		surv := 0
		for i := 0; i < n; i++ {
			a.Read(i, blk)
			if route.PredOccupied(blk) {
				surv++
			}
		}
		counts = append(counts, surv)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// After 4 passes survivors should be far below the start; expectation
	// is <= rCap/4^4 = 0.25 cells, allow generous slack.
	if counts[len(counts)-1] > rCap/8 {
		t.Fatalf("survivor counts %v decay too slowly", counts)
	}
}

func TestLooseCompactCacheBound(t *testing.T) {
	env := newTestEnv(2048, 4, 128, 31)
	a := env.D.Alloc(128)
	r := rand.New(rand.NewPCG(9, 9))
	buildSparseCells(a, r.Perm(128)[:16])
	env.Cache.ResetHighWater()
	if _, _, err := CompactBlocksLoose(env, a, 32, LooseParams{}); err != nil {
		t.Fatal(err)
	}
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("loose compaction used %d private elements > M=%d", hw, env.M)
	}
}
