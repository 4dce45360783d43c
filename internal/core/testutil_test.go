package core

import (
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// newTestEnv builds an environment with the given geometry.
func newTestEnv(blocks, b, m int, seed uint64) *extmem.Env {
	return extmem.NewEnv(blocks, b, m, seed)
}

// writeElems lays the given elements into the array sequentially, padding
// with empty cells.
func writeElems(a extmem.Array, elems []extmem.Element) {
	b := a.B()
	buf := make([]extmem.Element, b)
	idx := 0
	for blk := 0; blk < a.Len(); blk++ {
		for t := 0; t < b; t++ {
			if idx < len(elems) {
				buf[t] = elems[idx]
				idx++
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(blk, buf)
	}
	if idx != len(elems) {
		panic("writeElems: array too small")
	}
}

// readElems returns every element of the array in order.
func readElems(a extmem.Array) []extmem.Element {
	b := a.B()
	buf := make([]extmem.Element, b)
	out := make([]extmem.Element, 0, a.Len()*b)
	for blk := 0; blk < a.Len(); blk++ {
		a.Read(blk, buf)
		out = append(out, buf...)
	}
	return out
}

// occupiedKeys extracts the keys of occupied elements in order.
func occupiedKeys(elems []extmem.Element) []uint64 {
	var out []uint64
	for _, e := range elems {
		if e.Occupied() {
			out = append(out, e.Key)
		}
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameMultisetU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[uint64]int{}
	for _, k := range a {
		m[k]++
	}
	for _, k := range b {
		m[k]--
		if m[k] < 0 {
			return false
		}
	}
	return true
}

// traceOf runs fn against a fresh env with a recorder attached and returns
// the trace summary.
func traceOf(t *testing.T, blocks, b, m int, seed uint64, fn func(env *extmem.Env)) trace.Summary {
	t.Helper()
	env := newTestEnv(blocks, b, m, seed)
	rec := trace.NewRecorder(0)
	env.D.SetRecorder(rec)
	fn(env)
	return rec.Summarize()
}
