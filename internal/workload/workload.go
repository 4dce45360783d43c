// Package workload generates the key distributions the tests run on:
// uniform random, pre-sorted, reverse-sorted, few-distinct (heavy
// duplicates), and Zipf-skewed. The data-oblivious algorithms must behave
// identically on all of them — TestTraceInvariantAcrossWorkloads pins that
// invariance — while the non-oblivious baselines visibly vary.
package workload

import (
	"fmt"
	"math/rand"

	"oblivext/internal/extmem"
)

// Kind names a key distribution.
type Kind string

// The supported distributions.
const (
	Uniform Kind = "uniform"
	Sorted  Kind = "sorted"
	Reverse Kind = "reverse"
	FewDup  Kind = "fewdup"
	Zipf    Kind = "zipf"
	Equal   Kind = "equal"
)

// Kinds lists every distribution, in report order.
func Kinds() []Kind { return []Kind{Uniform, Sorted, Reverse, FewDup, Zipf, Equal} }

// Keys generates n keys of the given distribution, deterministically from
// the seed.
func Keys(kind Kind, n int, seed uint64) ([]uint64, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	out := make([]uint64, n)
	switch kind {
	case Uniform:
		for i := range out {
			out[i] = r.Uint64()
		}
	case Sorted:
		for i := range out {
			out[i] = uint64(i)
		}
	case Reverse:
		for i := range out {
			out[i] = uint64(n - i)
		}
	case FewDup:
		for i := range out {
			out[i] = uint64(r.Intn(5))
		}
	case Zipf:
		z := rand.NewZipf(r, 1.2, 1, uint64(max(2, n)))
		for i := range out {
			out[i] = z.Uint64()
		}
	case Equal:
		for i := range out {
			out[i] = 7
		}
	default:
		return nil, fmt.Errorf("workload: unknown kind %q", kind)
	}
	return out, nil
}

// Fill writes n occupied elements with the given keys into the array
// (Pos = index, Val = key echoed), padding remaining cells empty.
func Fill(a extmem.Array, keys []uint64) error {
	b := a.B()
	if len(keys) > a.Len()*b {
		return fmt.Errorf("workload: %d keys exceed %d cells", len(keys), a.Len()*b)
	}
	buf := make([]extmem.Element, b)
	idx := 0
	for blk := 0; blk < a.Len(); blk++ {
		for t := 0; t < b; t++ {
			if idx < len(keys) {
				buf[t] = extmem.Element{Key: keys[idx], Val: keys[idx], Pos: uint64(idx), Flags: extmem.FlagOccupied}
				idx++
			} else {
				buf[t] = extmem.Element{}
			}
		}
		a.Write(blk, buf)
	}
	return nil
}

// MarkFraction sets FlagMarked on every element whose index is in the
// first markCount positions of a fixed pseudorandom permutation — a
// deterministic way to mark an exact count for the compaction tests.
func MarkFraction(a extmem.Array, markCount int, seed uint64) error {
	b := a.B()
	total := a.Len() * b
	if markCount > total {
		return fmt.Errorf("workload: mark count %d exceeds %d cells", markCount, total)
	}
	r := rand.New(rand.NewSource(int64(seed)))
	marked := make([]bool, total)
	for i, p := range r.Perm(total)[:markCount] {
		_ = i
		marked[p] = true
	}
	buf := make([]extmem.Element, b)
	for blk := 0; blk < a.Len(); blk++ {
		a.Read(blk, buf)
		for t := range buf {
			buf[t].Flags &^= extmem.FlagMarked
			if marked[blk*b+t] && buf[t].Occupied() {
				buf[t].Flags |= extmem.FlagMarked
			}
		}
		a.Write(blk, buf)
	}
	return nil
}
