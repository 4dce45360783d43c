// Package extmem implements the paper's computational model (§1): Alice, a
// client with a private cache of M words, computes over data held by Bob, an
// honest-but-curious storage server that serves fixed-size blocks of B words
// and observes every block address Alice touches.
//
// The package provides block stores (in-memory, file-backed, plus the
// CryptStore decorator that makes any of them — and the sharded/network
// stores built on the same interface — hold only client-side-sealed
// ciphertext), an instrumented Disk that counts I/Os and records the
// adversary's view, arena allocation for the scratch arrays the algorithms
// need, and a Cache accountant that enforces — rather than assumes — the
// private-memory bound.
package extmem

// Flag bits carried by every element. Flags travel inside block contents, so
// the server never sees them (contents are encrypted in the paper's model).
const (
	// FlagOccupied marks a cell as holding a real item (vs. empty/dummy).
	FlagOccupied uint64 = 1 << 0
	// FlagMarked marks an item as "distinguished" for compaction/selection.
	FlagMarked uint64 = 1 << 1

	// colorShift is where the bucket color of §5's sorting algorithm lives.
	// The same bits double as the Aux field (a cell's origin during
	// butterfly routing) — the two uses never overlap in time.
	colorShift = 8
	colorMask  = uint64(0xffffff) << colorShift

	// destShift is where butterfly routing keeps a cell's destination.
	destShift = 32
	destMask  = uint64(0x7fffffff) << destShift
)

// Element is the unit of data: one "memory word" of the paper's model,
// supporting read, write, copy, compare, add and subtract. Key orders
// elements; Val is an opaque payload; Pos carries original positions,
// routing distance labels, or ranks depending on the algorithm; Flags holds
// occupancy/marking bits and the bucket color.
type Element struct {
	Key   uint64
	Val   uint64
	Pos   uint64
	Flags uint64
}

// ElementWords is the element footprint in 64-bit words; block size B and
// cache size M are measured in elements throughout the library.
const ElementWords = 4

// ElementBytes is the serialized size of an element.
const ElementBytes = 8 * ElementWords

// Occupied reports whether the element holds a real item.
func (e Element) Occupied() bool { return e.Flags&FlagOccupied != 0 }

// Marked reports whether the element is distinguished.
func (e Element) Marked() bool { return e.Flags&FlagMarked != 0 }

// Color returns the bucket color assigned by the sorting algorithm.
func (e Element) Color() int { return int((e.Flags & colorMask) >> colorShift) }

// SetColor stores a bucket color in the element's flags.
func (e *Element) SetColor(c int) {
	e.Flags = (e.Flags &^ colorMask) | (uint64(c) << colorShift & colorMask)
}

// Aux returns the auxiliary routing field (a cell's origin position during
// butterfly compaction). It shares bits with Color; the two uses are
// mutually exclusive in time.
func (e Element) Aux() int { return e.Color() }

// SetAux stores the auxiliary routing field.
func (e *Element) SetAux(v int) { e.SetColor(v) }

// CellDest returns the butterfly routing destination stored in the flags.
func (e Element) CellDest() int { return int((e.Flags & destMask) >> destShift) }

// SetCellDest stores a butterfly routing destination.
func (e *Element) SetCellDest(d int) {
	e.Flags = (e.Flags &^ destMask) | (uint64(d) << destShift & destMask)
}

// Less orders elements by (Key, Pos) so that ties are broken by original
// position; the paper's algorithms assume distinct keys can be arranged
// "by a number of methods" and this is ours. Unoccupied elements sort after
// all occupied ones, which implements the paper's "+infinity" padding.
func (e Element) Less(o Element) bool {
	eo, oo := e.Occupied(), o.Occupied()
	if eo != oo {
		return eo // occupied < empty
	}
	if e.Key != o.Key {
		return e.Key < o.Key
	}
	return e.Pos < o.Pos
}
