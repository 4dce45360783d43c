package core

import (
	"testing"

	"oblivext/internal/extmem"
)

// looseBenchFill lays scan_enc_file's loose-compaction input into a: every
// element occupied, those with Key%4 == 0 marked, as Mark(key%4==0) leaves
// them. It returns the call's capacity, CompactLoose(N/3)'s in blocks.
func looseBenchFill(a extmem.Array) int {
	b := a.B()
	elems := make([]extmem.Element, a.Len()*b)
	for i := range elems {
		elems[i] = extmem.Element{Key: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
		if i%4 == 0 {
			elems[i].Flags |= extmem.FlagMarked
		}
	}
	a.WriteRange(0, a.Len(), elems)
	return extmem.CeilDiv(a.Len()*b/3, b) + 1
}

// BenchmarkCompactLoose runs the public CompactLoose's call at the
// benchmark's scan_enc_file geometry (2^13 blocks of 8, M = 4 096): the
// consolidating butterfly into the leading blocks of the 5R-block output
// and the zero-fill past them. It reports I/Os per block.
func BenchmarkCompactLoose(b *testing.B) {
	env := newTestEnv(1<<15, 8, 4096, 1)
	a := env.D.Alloc(1 << 13)
	rCap := looseBenchFill(a)
	env.D.ResetStats()
	b.ReportAllocs()
	for b.Loop() {
		mark := env.D.Mark()
		if _, _, err := CompactMarkedLoose(env, a, rCap); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	b.ReportMetric(float64(env.D.Stats().Total())/float64(b.N)/float64(a.Len()), "ios/block")
}

// TestCompactMarkedTightKeepsOnlyItsOutput: CompactMarkedTight routes into
// n blocks and returns the first rCap, giving the rest back, so a call
// leaves the Disk rCap blocks higher. (TestPredictorsExact checks the same
// of CompactMarkedLoose.)
func TestCompactMarkedTightKeepsOnlyItsOutput(t *testing.T) {
	env := newTestEnv(1<<15, 8, 4096, 1)
	a := env.D.Alloc(1 << 13)
	rCap := looseBenchFill(a) // a third of the elements; a quarter are marked
	mark := env.D.Mark()
	out, _, err := CompactMarkedTight(env, a, rCap)
	if err != nil {
		t.Fatal(err)
	}
	if grew := env.D.Mark() - mark; grew != rCap || out.Len() != rCap {
		t.Errorf("output of %d blocks, the Disk grew %d, want both %d", out.Len(), grew, rCap)
	}
}
