// Package iblt implements the invertible Bloom lookup table of Goodrich and
// Mitzenmacher (paper §2): a randomized table of cells holding a count, a
// key sum, and a value sum under k hash functions. Insertions and deletions
// touch exactly the k cells determined by the key — a property the paper
// exploits for data-oblivious compaction, because the touched locations are
// independent of the value and of how many items the table holds. The
// library's compactions do not use it: Theorem 6's butterfly undercuts
// Theorem 4's table at every geometry priced (docs/ARCHITECTURE.md, "Why
// not the paper's Theorem 4").
//
// Values are fixed-width vectors of 64-bit words (width 1 for plain
// key-value pairs, width 4·B for whole blocks in the external-memory
// algorithms), summed element-wise mod 2^64 so that deletion is exact
// subtraction.
package iblt

import (
	"oblivext/internal/rng"
)

// Cell is one table cell: the number of items mapped here, the sum of their
// keys, and the element-wise sum of their values.
type Cell struct {
	Count  int64
	KeySum uint64
	ValSum []uint64
}

// add folds (key, val) into the cell with the given sign (+1 insert,
// -1 delete).
func (c *Cell) add(key uint64, val []uint64, sign int64) {
	c.Count += sign
	if sign > 0 {
		c.KeySum += key
		for i, v := range val {
			c.ValSum[i] += v
		}
	} else {
		c.KeySum -= key
		for i, v := range val {
			c.ValSum[i] -= v
		}
	}
}

// Pure reports whether the cell holds exactly one item whose key hashes
// back to this cell — the recoverable state the peeler looks for. The
// hash-back check rejects "ghost" cells that can arise from deleting keys
// that were never inserted.
func (c *Cell) pure(h *rng.Hasher, self int) bool {
	if c.Count != 1 {
		return false
	}
	return h.Index(h.Subtable(self), c.KeySum) == self
}

// Entry is one recovered key-value pair.
type Entry struct {
	Key uint64
	Val []uint64
}

// Table is an in-memory invertible Bloom lookup table.
type Table struct {
	h     *rng.Hasher
	w     int
	cells []Cell
	n     int64 // net items inserted
	idx   []int // scratch for hash indices
}

// New returns a table of m cells under k hash functions (seeded), storing
// values of the given word width.
func New(m, k, valWidth int, seed uint64) *Table {
	t := &Table{h: rng.NewHasher(seed, k, m), w: valWidth}
	t.cells = make([]Cell, m)
	flat := make([]uint64, m*valWidth)
	for i := range t.cells {
		t.cells[i].ValSum = flat[i*valWidth : (i+1)*valWidth : (i+1)*valWidth]
	}
	t.idx = make([]int, 0, k)
	return t
}

// M returns the number of cells.
func (t *Table) M() int { return len(t.cells) }

// K returns the number of hash functions.
func (t *Table) K() int { return t.h.K() }

// Len returns the net number of items inserted (inserts minus deletes). The
// table keeps working as a sum sketch even when Len exceeds M; only Get and
// ListEntries need Len < M to succeed with good probability (Lemma 1).
func (t *Table) Len() int64 { return t.n }

// Hasher exposes the hash family (shared with external-memory layouts of
// the same table).
func (t *Table) Hasher() *rng.Hasher { return t.h }

// Cell returns a copy of cell i (ValSum is shared; callers must not modify).
func (t *Table) Cell(i int) Cell { return t.cells[i] }

// Insert adds the key-value pair to the table. It always succeeds; keys are
// assumed distinct across live items.
func (t *Table) Insert(key uint64, val []uint64) {
	t.checkVal(val)
	t.idx = t.h.Indices(t.idx[:0], key)
	for _, i := range t.idx {
		t.cells[i].add(key, val, 1)
	}
	t.n++
}

// Delete removes a key-value pair previously inserted.
func (t *Table) Delete(key uint64, val []uint64) {
	t.checkVal(val)
	t.idx = t.h.Indices(t.idx[:0], key)
	for _, i := range t.idx {
		t.cells[i].add(key, val, -1)
	}
	t.n--
}

// Get looks up the value for key. ok=false means the table cannot answer
// (which the paper allows with some probability); a definite absence (some
// cell has count 0) reports ok=true with found=false.
func (t *Table) Get(key uint64) (val []uint64, found, ok bool) {
	t.idx = t.h.Indices(t.idx[:0], key)
	for _, i := range t.idx {
		c := &t.cells[i]
		switch {
		case c.Count == 0 && c.KeySum == 0:
			return nil, false, true
		case c.Count == 1 && c.KeySum == key:
			out := make([]uint64, t.w)
			copy(out, c.ValSum)
			return out, true, true
		}
	}
	return nil, false, false
}

// ListEntries recovers and removes all stored pairs by peeling. It returns
// the recovered entries and whether the table fully emptied; a false result
// is the paper's "list-incomplete" condition (Lemma 1 bounds its
// probability when Len < M). The operation is destructive, as in the paper;
// copy the table first for a non-destructive listing.
func (t *Table) ListEntries() ([]Entry, bool) {
	var out []Entry
	ok := Peel(t.cells, t.h, func(key uint64, val []uint64) {
		out = append(out, Entry{Key: key, Val: val})
		t.n--
	})
	return out, ok
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New(t.M(), t.K(), t.w, 0)
	c.h = t.h
	for i := range t.cells {
		c.cells[i].Count = t.cells[i].Count
		c.cells[i].KeySum = t.cells[i].KeySum
		copy(c.cells[i].ValSum, t.cells[i].ValSum)
	}
	c.n = t.n
	return c
}

func (t *Table) checkVal(val []uint64) {
	if len(val) != t.w {
		panic("iblt: value width mismatch")
	}
}
