package core

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// buildSparseCells writes n cells; the cells listed in occ get a full block
// of occupied elements with Pos recording their global element order.
func buildSparseCells(a extmem.Array, occ []int) {
	b := a.B()
	isOcc := map[int]bool{}
	for _, j := range occ {
		isOcc[j] = true
	}
	buf := make([]extmem.Element, b)
	for j := 0; j < a.Len(); j++ {
		for t := 0; t < b; t++ {
			if isOcc[j] {
				buf[t] = extmem.Element{Key: uint64(j*1000 + t), Val: uint64(j), Pos: uint64(j*b + t), Flags: extmem.FlagOccupied}
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(j, buf)
	}
}

func TestSparseCompactPrivatePath(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for _, cfg := range []struct{ n, rCap, occ int }{
		{16, 4, 3}, {16, 4, 4}, {32, 8, 5}, {64, 6, 6}, {20, 5, 0}, {8, 2, 1},
	} {
		env := newTestEnv(256, 4, 4096, uint64(cfg.n)) // big cache: private peel
		a := env.D.Alloc(cfg.n)
		perm := r.Perm(cfg.n)
		occ := append([]int(nil), perm[:cfg.occ]...)
		buildSparseCells(a, occ)
		out, got, err := CompactBlocksSparse(env, a, cfg.rCap)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if got != cfg.occ {
			t.Fatalf("cfg %+v: occupied=%d", cfg, got)
		}
		if out.Len() != cfg.rCap {
			t.Fatalf("cfg %+v: out len %d", cfg, out.Len())
		}
		elems := readElems(out)
		// Occupied elements must appear first, in original Pos order.
		var poss []uint64
		for i, e := range elems {
			if e.Occupied() {
				if i >= cfg.occ*4 {
					t.Fatalf("cfg %+v: occupied element beyond prefix at %d", cfg, i)
				}
				poss = append(poss, e.Pos)
			}
		}
		if len(poss) != cfg.occ*4 {
			t.Fatalf("cfg %+v: %d occupied elements, want %d", cfg, len(poss), cfg.occ*4)
		}
		for i := 1; i < len(poss); i++ {
			if poss[i-1] >= poss[i] {
				t.Fatalf("cfg %+v: order not restored at %d", cfg, i)
			}
		}
	}
}

// TestSparseCompactTableOverCachePanics: a table too large for the cache
// is a caller's error (CompactMarkedTight takes the butterfly there), and
// CompactBlocksSparse names the table size and the cache before any I/O.
func TestSparseCompactTableOverCachePanics(t *testing.T) {
	env := newTestEnv(512, 4, 96, 3)
	a := env.D.Alloc(12)
	buildSparseCells(a, []int{2, 7, 11})
	if SparseTableFits(env, 3) {
		t.Fatal("the table for rCap = 3 fits M = 96; the geometry no longer tests the precondition")
	}
	env.D.ResetStats()
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"m = 9 cells", "rCap = 3", "M = 96", "B = 4"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
		if io := env.D.Stats().Total(); io != 0 {
			t.Fatalf("%d block I/Os before the panic, want 0", io)
		}
		if used := env.Cache.Used(); used != 0 {
			t.Fatalf("%d words left checked out", used)
		}
	}()
	CompactBlocksSparse(env, a, 3)
}

func TestSparseCompactOverCapacityFails(t *testing.T) {
	env := newTestEnv(256, 4, 4096, 9)
	a := env.D.Alloc(16)
	buildSparseCells(a, []int{0, 1, 2, 3, 4})
	_, _, err := CompactBlocksSparse(env, a, 3)
	if !errors.Is(err, ErrCompactionFailed) {
		t.Fatalf("err = %v, want ErrCompactionFailed", err)
	}
}

func TestSparseCompactOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	run := func(occ []int) trace.Summary {
		return traceOf(t, 256, 4, 4096, 42, func(env *extmem.Env) {
			a := env.D.Alloc(24)
			buildSparseCells(a, occ)
			CompactBlocksSparse(env, a, 6)
		})
	}
	s1 := run([]int{1, 5, 9})
	s2 := run([]int{20, 21, 22, 23})
	s3 := run(nil)
	s4 := run(r.Perm(24)[:6])
	if !s1.Equal(s2) || !s1.Equal(s3) || !s1.Equal(s4) {
		t.Fatalf("sparse compaction trace depends on data: %v %v %v %v", s1, s2, s3, s4)
	}
}

func TestSparseCompactInsertionIOLinear(t *testing.T) {
	// Insertion touches k*(2 reads + 2 writes) + 1 read per input cell plus
	// table init and output; total must scale linearly in n at fixed rCap.
	io := func(n int) int64 {
		env := newTestEnv(4*n, 4, 1<<20, 11)
		a := env.D.Alloc(n)
		buildSparseCells(a, []int{0, 1})
		env.D.ResetStats()
		if _, _, err := CompactBlocksSparse(env, a, 4); err != nil {
			t.Fatal(err)
		}
		return env.D.Stats().Total()
	}
	lo, hi := io(64), io(256)
	ratio := float64(hi-io(1)) / float64(lo-io(1))
	if ratio > 5.2 {
		t.Fatalf("sparse compaction I/O superlinear: 64->%d, 256->%d (ratio %.2f)", lo, hi, ratio)
	}
}

func TestSparseFailureRateLemma1(t *testing.T) {
	// Lemma 1 at table factor 3, k=4: failures should be rare.
	fails := 0
	const trials = 60
	r := rand.New(rand.NewPCG(13, 13))
	for tr := 0; tr < trials; tr++ {
		env := newTestEnv(256, 4, 1<<20, uint64(1000+tr))
		a := env.D.Alloc(48)
		occ := r.Perm(48)[:12]
		buildSparseCells(a, occ)
		if _, _, err := CompactBlocksSparse(env, a, 12); err != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("sparse compaction failed %d/%d times", fails, trials)
	}
}
