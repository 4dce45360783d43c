package iblt

import "oblivext/internal/rng"

// DefaultPasses returns the pass budget used when peeling m cells: the
// peeling depth of a sparse random k-uniform hypergraph is O(log m) with
// high probability, so a small multiple of log2(m) suffices.
func DefaultPasses(m int) int {
	l := 0
	for v := 1; v < m; v <<= 1 {
		l++
	}
	return 2*l + 8
}

// Peel runs pass-based peeling over cells, which live in private memory:
// each pass scans every cell in index order and, when a cell is pure
// (count 1, key hashes back), extracts its pair and deletes it from the
// key's k cells. emit is called once per recovered pair, with a value
// slice of its own that it may keep. Peel stops after a pass that finds the
// table empty or extracts nothing, or after a DefaultPasses budget, and
// returns true if the table emptied.
//
// Peeling is confluent: whatever the order, it recovers exactly the pairs
// outside the table's 2-core, so this recovers the same set as the classic
// queue-driven peeler.
func Peel(cells []Cell, h *rng.Hasher, emit func(key uint64, val []uint64)) bool {
	m := len(cells)
	idx := make([]int, 0, h.K())
	for pass := 0; pass < DefaultPasses(m); pass++ {
		extracted := false
		remaining := false
		for i := range cells {
			c := &cells[i]
			if c.Count != 0 {
				remaining = true
			}
			if !c.pure(h, i) {
				continue
			}
			key := c.KeySum
			// The deletion below subtracts the pair from c's own ValSum,
			// so snapshot it before emitting.
			snap := make([]uint64, len(c.ValSum))
			copy(snap, c.ValSum)
			emit(key, snap)
			idx = h.Indices(idx[:0], key)
			for _, j := range idx {
				cells[j].add(key, snap, -1)
			}
			extracted = true
		}
		if !remaining {
			return true
		}
		if !extracted {
			return false // stuck: 2-core is non-empty
		}
	}
	// Budget exhausted; check emptiness.
	for i := range cells {
		if cells[i].Count != 0 {
			return false
		}
	}
	return true
}
