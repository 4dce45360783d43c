package workload

import (
	"fmt"
	"math/rand"

	"oblivext/internal/extmem"
)

// SortCase is one awkward input for the sorters' differential oracle: a
// sequence of cell slots, occupied or empty, laid into ceil(len/B) blocks.
// Every slot's Pos is its index, so (Key, Pos) is a total order over the
// whole layout and the reference answer is unique under every order the
// sorters are asked for.
type SortCase struct {
	Name  string
	Slots []extmem.Element
}

// SortCorpus returns the shared corpus the sorter oracles in internal/obsort
// and internal/core both run: degenerate sizes, duplicate-heavy keys,
// interior empties, block counts on both sides of a power of two, and
// "right-heavy" lengths whose second half is the longer or the fuller one
// (the merge-network cases liboblivious tests explicitly). The corpus is a
// function of b alone.
func SortCorpus(b int) []SortCase {
	r := rand.New(rand.NewSource(17))
	gen := func(n int, key func(i int) uint64, empty func(i int) bool) []extmem.Element {
		out := make([]extmem.Element, n)
		for i := range out {
			if empty == nil || !empty(i) {
				k := key(i)
				out[i] = extmem.Element{Key: k, Val: k ^ 0xabc, Flags: extmem.FlagOccupied}
			}
			out[i].Pos = uint64(i)
		}
		return out
	}
	random := func(int) uint64 { return uint64(r.Int63n(1_000_000)) }
	cases := []SortCase{
		{"n=0", nil},
		{"n=1", gen(1, random, nil)},
		{"three-blocks-short", gen(3*b-1, random, nil)},
		{"duplicates-only", gen(40*b, func(int) uint64 { return 7 }, nil)},
		{"three-distinct-keys", gen(50*b, func(i int) uint64 { return uint64(i*7) % 3 }, nil)},
		// Every third slot empty, plus a run of wholly empty blocks inside.
		{"interior-empties", gen(64*b, random, func(i int) bool { return i%3 == 1 || (i >= 20*b && i < 30*b) })},
		{"sorted-descending", gen(32*b, func(i int) uint64 { return uint64(32*b - i) }, nil)},
		// Right-heavy: a block count whose upper half-range holds more than
		// the lower, an element count that leaves the last block part full,
		// and a layout whose occupied cells all sit in the second half.
		{"right-heavy-97-blocks", gen(97*b, random, nil)},
		{"right-heavy-odd-length", gen(65*b-3, random, nil)},
		{"right-heavy-occupancy", gen(64*b, random, func(i int) bool { return i < 32*b })},
	}
	for _, blocks := range []int{63, 64, 65} {
		cases = append(cases, SortCase{fmt.Sprintf("blocks=%d", blocks), gen(blocks*b, random, nil)})
	}
	return cases
}

// SortCasesAt returns inputs of exactly nBlocks blocks of b cells, for the
// oracles' rows at one fixed geometry, where the engine an order picks
// depends on the size: random keys, three distinct keys, one key, ascending
// and descending keys (all fully occupied, so every order applies), and
// random keys with every third slot empty plus a run of wholly empty blocks.
func SortCasesAt(nBlocks, b int) []SortCase {
	r := rand.New(rand.NewSource(int64(nBlocks)*31 + int64(b)))
	n := nBlocks * b
	gen := func(key func(i int) uint64, empty func(i int) bool) []extmem.Element {
		out := make([]extmem.Element, n)
		for i := range out {
			if empty == nil || !empty(i) {
				k := key(i)
				out[i] = extmem.Element{Key: k, Val: k ^ 0xabc, Flags: extmem.FlagOccupied}
			}
			out[i].Pos = uint64(i)
		}
		return out
	}
	random := func(int) uint64 { return uint64(r.Int63n(1_000_000)) }
	return []SortCase{
		{"random", gen(random, nil)},
		{"three-distinct-keys", gen(func(i int) uint64 { return uint64(i*7) % 3 }, nil)},
		{"all-equal", gen(func(int) uint64 { return 7 }, nil)},
		{"ascending", gen(func(i int) uint64 { return uint64(i) }, nil)},
		{"descending", gen(func(i int) uint64 { return uint64(n - i) }, nil)},
		{"interior-empties", gen(random, func(i int) bool { return i%3 == 1 || (i >= n/4 && i < n/4+16*b) })},
	}
}
