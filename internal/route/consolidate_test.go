package route

import (
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// writeElems lays the given elements into the array sequentially, padding
// with empty cells.
func writeElems(a extmem.Array, elems []extmem.Element) {
	b := a.B()
	buf := make([]extmem.Element, b)
	for blk := 0; blk < a.Len(); blk++ {
		clear(buf)
		if lo := blk * b; lo < len(elems) {
			copy(buf, elems[lo:])
		}
		a.Write(blk, buf)
	}
}

// readElems returns every element of the array in order.
func readElems(a extmem.Array) []extmem.Element {
	out := make([]extmem.Element, a.Len()*a.B())
	for blk := 0; blk < a.Len(); blk++ {
		a.Read(blk, out[blk*a.B():(blk+1)*a.B()])
	}
	return out
}

// keysOf extracts the keys of the elements satisfying keep, in order.
func keysOf(elems []extmem.Element, keep func(extmem.Element) bool) []uint64 {
	var out []uint64
	for _, e := range elems {
		if keep(e) {
			out = append(out, e.Key)
		}
	}
	return out
}

// randomMarkedInput builds total occupied elements of which a random subset
// of exactly marked carry FlagMarked.
func randomMarkedInput(r *rand.Rand, total, marked int) []extmem.Element {
	elems := make([]extmem.Element, total)
	for i := range elems {
		elems[i] = extmem.Element{Key: uint64(i)*10 + 1, Val: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	perm := r.Perm(total)
	for i := 0; i < marked; i++ {
		elems[perm[i]].Flags |= extmem.FlagMarked
	}
	return elems
}

func TestConsolidateBasic(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for _, cfg := range []struct{ n, b, marked int }{
		{1, 4, 0}, {1, 4, 4}, {4, 4, 7}, {10, 8, 40}, {10, 8, 80}, {16, 2, 1}, {9, 4, 36},
	} {
		env := newEnv(cfg.n*2+4, cfg.b, 4*cfg.b, 3)
		a := env.D.Alloc(cfg.n)
		in := randomMarkedInput(r, cfg.n*cfg.b, cfg.marked)
		writeElems(a, in)
		out, cnt := Consolidate(env, a, extmem.Element.Marked)
		if cnt != int64(cfg.marked) {
			t.Fatalf("n=%d marked=%d: count %d", cfg.n, cfg.marked, cnt)
		}
		if out.Len() != cfg.n {
			t.Fatalf("output has %d blocks, want %d", out.Len(), cfg.n)
		}
		got := readElems(out)
		// Order preservation of marked elements.
		if !slices.Equal(keysOf(in, extmem.Element.Marked), keysOf(got, extmem.Element.Occupied)) {
			t.Fatalf("n=%d marked=%d: order not preserved", cfg.n, cfg.marked)
		}
		// Full-or-empty block structure (except possibly one partial).
		partials := 0
		buf := make([]extmem.Element, cfg.b)
		for blk := 0; blk < out.Len(); blk++ {
			out.Read(blk, buf)
			occ := 0
			for _, e := range buf {
				if e.Occupied() {
					occ++
				}
			}
			if occ != 0 && occ != cfg.b {
				partials++
			}
		}
		if partials > 1 {
			t.Fatalf("n=%d marked=%d: %d partial blocks, want <= 1", cfg.n, cfg.marked, partials)
		}
	}
}

func TestConsolidateIOExact(t *testing.T) {
	// Lemma 3: a single scan — n reads of A and n writes of A', in the
	// predicted number of cache-sized batches.
	for _, m := range []int{16, 64, 1024} {
		env := newEnv(64, 4, m, 3)
		a := env.D.Alloc(20)
		r := rand.New(rand.NewPCG(2, 2))
		writeElems(a, randomMarkedInput(r, 80, 33))
		env.D.ResetStats()
		Consolidate(env, a, extmem.Element.Marked)
		st := env.D.Stats()
		if want := ConsolidateCost(20, 4, m); st.Reads != 20 || st.Cost() != want {
			t.Fatalf("M=%d: I/O = %+v, want exactly 20 reads and 20 writes in %d round trips", m, st, want.RoundTrips)
		}
	}
}

func TestConsolidateOblivious(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	run := func(marked int) trace.Summary {
		return traceOf(16, 4, 16,
			func(a extmem.Array) { writeElems(a, randomMarkedInput(r, 64, marked)) },
			func(env *extmem.Env, a extmem.Array) { Consolidate(env, a, extmem.Element.Marked) })
	}
	s0, s1, s2 := run(0), run(64), run(17)
	if !s0.Equal(s1) || !s0.Equal(s2) {
		t.Fatalf("consolidation trace depends on data: %v %v %v", s0, s1, s2)
	}
}

func TestConsolidateCacheBound(t *testing.T) {
	env := newEnv(64, 8, 32, 3) // M = 4B
	a := env.D.Alloc(16)
	r := rand.New(rand.NewPCG(4, 4))
	writeElems(a, randomMarkedInput(r, 128, 100))
	env.Cache.ResetHighWater()
	Consolidate(env, a, extmem.Element.Marked)
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("consolidation used %d private elements > M=%d", hw, env.M)
	}
	if used := env.Cache.Used(); used != 0 {
		t.Fatalf("cache not returned: %d used", used)
	}
}

func TestConsolidatePreservesPayload(t *testing.T) {
	env := newEnv(16, 4, 16, 3)
	a := env.D.Alloc(4)
	elems := make([]extmem.Element, 16)
	for i := range elems {
		elems[i] = extmem.Element{Key: uint64(100 + i), Val: uint64(i * i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		if i%3 == 0 {
			elems[i].Flags |= extmem.FlagMarked
		}
	}
	writeElems(a, elems)
	out, _ := Consolidate(env, a, extmem.Element.Marked)
	var got []extmem.Element
	for _, e := range readElems(out) {
		if e.Occupied() {
			got = append(got, e)
		}
	}
	j := 0
	for _, e := range elems {
		if !e.Marked() {
			continue
		}
		g := got[j]
		if g.Key != e.Key || g.Val != e.Val || g.Pos != e.Pos {
			t.Fatalf("payload mangled at %d: %+v vs %+v", j, g, e)
		}
		j++
	}
}
