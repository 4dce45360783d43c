package extmem

import (
	"context"
	"fmt"
	"sync"
)

// BlockStore is Bob's storage: a flat array of fixed-size blocks addressed
// by index. The paper's model gives Alice one primitive toward Bob — move a
// batch of blocks at public addresses — and this interface is that
// primitive: one call is one interaction with the store, one network round
// trip when Bob is remote. A one-block access is a batch of one.
//
// Implementations must copy data on both reads and writes; callers own
// their buffers. They should detect contiguous address runs and serve them
// with a single bulk transfer.
//
// ctx affects only delivery, never semantics: a remote backend abandons the
// in-flight request (and stops retrying) when ctx is canceled, a local store
// may simply complete. A canceled call returns an error and the caller
// treats the interaction as failed, exactly as if the network had dropped
// it. Every decorator forwards ctx to its children, so the sharded fan-out
// can cancel sibling sub-batches once one shard has definitively failed —
// without that, a doomed fan-out runs every other request to its full
// timeout before the error can surface.
type BlockStore interface {
	// ReadBlocks copies blocks addrs[i] into dst[i*B:(i+1)*B] for every i
	// (len(dst) == len(addrs)*BlockSize()) in one interaction. Duplicate
	// addresses are allowed.
	ReadBlocks(ctx context.Context, addrs []int, dst []Element) error
	// WriteBlocks copies src[i*B:(i+1)*B] into blocks addrs[i] for every i
	// (len(src) == len(addrs)*BlockSize()) in one interaction. With
	// duplicate addresses the later slice wins.
	WriteBlocks(ctx context.Context, addrs []int, src []Element) error
	// NumBlocks returns the store capacity in blocks.
	NumBlocks() int
	// BlockSize returns B, the number of elements per block.
	BlockSize() int
	// Close releases any resources held by the store.
	Close() error
}

// ReadBlocksCtx is s.ReadBlocks(ctx, addrs, dst), kept as a function for
// the benchmark's layer probes; in-tree code calls the method.
func ReadBlocksCtx(ctx context.Context, s BlockStore, addrs []int, dst []Element) error {
	return s.ReadBlocks(ctx, addrs, dst)
}

// WriteBlocksCtx is s.WriteBlocks(ctx, addrs, src); see ReadBlocksCtx.
func WriteBlocksCtx(ctx context.Context, s BlockStore, addrs []int, src []Element) error {
	return s.WriteBlocks(ctx, addrs, src)
}

// runLen returns the length of the maximal run of consecutive ascending
// addresses at the head of addrs (0 only for an empty list): the unit bulk
// transfers serve with a single copy or system call.
func runLen(addrs []int) int {
	n := min(1, len(addrs))
	for n < len(addrs) && addrs[n] == addrs[n-1]+1 {
		n++
	}
	return n
}

// memSegElems is the size of a MemStore segment in elements (1 MiB): the
// unit in which the store commits memory, on the first write into it.
const memSegElems = 1 << 15

// MemStore is an in-memory BlockStore: the default substrate for tests and
// benchmarks, where only I/O counts and traces matter, and Bob's store in
// cmd/obstore and every netstore.Server tenant.
//
// The blocks live in a table of fixed-size segments, each holding
// max(1, memSegElems/B) whole blocks, allocated on the first write into
// them; the last segment of the capacity holds only the blocks below it.
// A block never written reads as zeros, so the store starts zeroed, and
// growing it extends the table: nothing is copied or zeroed. (A write past
// a short segment after a growth reallocates that one segment.) Close
// hands the segments to later stores' first writes, which clear them, so
// a process that opens a store per client or tenant reuses memory it has
// already touched instead of faulting in pages the runtime returned to
// the OS.
//
// Concurrent reads are safe. Writes and Close must be serialized with each
// other and with reads, since a write can allocate a segment.
type MemStore struct {
	b    int
	per  int // blocks per segment
	n    int // capacity in blocks
	segs [][]Element
}

// NewMemStore returns a zeroed in-memory store of n blocks of b elements.
func NewMemStore(n, b int) *MemStore {
	if n < 0 || b <= 0 {
		panic("extmem: invalid MemStore geometry")
	}
	s := &MemStore{b: b, per: max(1, memSegElems/b)}
	s.GrowTo(n)
	return s
}

// segRun returns the length of the run of consecutive ascending addresses
// at the head of addrs (non-empty) that lies in one segment, that
// segment's index, and the element offset of addrs[0] within it.
func (s *MemStore) segRun(addrs []int) (n, seg, off int) {
	a := addrs[0]
	seg, off = a/s.per, a%s.per
	lim := min(len(addrs), s.per-off)
	n = 1
	for n < lim && addrs[n] == a+n {
		n++
	}
	return n, seg, off * s.b
}

// ReadBlocks implements BlockStore; each consecutive run is a single copy
// per segment it crosses.
func (s *MemStore) ReadBlocks(_ context.Context, addrs []int, dst []Element) error {
	if err := s.checkVec(addrs, len(dst)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n, seg, off := s.segRun(addrs[i:])
		out := dst[i*s.b : (i+n)*s.b]
		d := s.segs[seg]
		clear(out[copy(out, d[min(off, len(d)):]):])
		i += n
	}
	return nil
}

// WriteBlocks implements BlockStore; each consecutive run is a single copy
// per segment it crosses, and the first write into a segment commits it.
func (s *MemStore) WriteBlocks(_ context.Context, addrs []int, src []Element) error {
	if err := s.checkVec(addrs, len(src)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n, seg, off := s.segRun(addrs[i:])
		d := s.segs[seg]
		if off+n*s.b > len(d) {
			d = s.commit(seg)
		}
		copy(d[off:], src[i*s.b:(i+n)*s.b])
		i += n
	}
	return nil
}

// commit allocates segment seg, or reallocates it if the capacity has grown
// past it, at the length the capacity gives it, and keeps its contents.
func (s *MemStore) commit(seg int) []Element {
	l := min(s.per, s.n-seg*s.per) * s.b
	var d []Element
	if l == s.per*s.b {
		d = newSeg(l)
	} else {
		d = make([]Element, l)
	}
	copy(d, s.segs[seg])
	s.segs[seg] = d
	return d
}

func (s *MemStore) checkVec(addrs []int, l int) error {
	if l != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", l, len(addrs), s.b)
	}
	for _, addr := range addrs {
		if addr < 0 || addr >= s.n {
			return fmt.Errorf("extmem: block address %d out of range [0,%d)", addr, s.n)
		}
	}
	return nil
}

// NumBlocks implements BlockStore.
func (s *MemStore) NumBlocks() int { return s.n }

// BlockSize implements BlockStore.
func (s *MemStore) BlockSize() int { return s.b }

// Close implements BlockStore. It hands the store's full segments to later
// stores (memFreeSegs at most, process-wide) and leaves it with no
// capacity, so a use after Close is an out-of-range error, never a read of
// another store's blocks.
func (s *MemStore) Close() error {
	segFree.Lock()
	for _, d := range s.segs {
		if cap(d) == memSegElems && len(segFree.segs) < memFreeSegs {
			segFree.segs = append(segFree.segs, (*[memSegElems]Element)(d[:memSegElems]))
		}
	}
	segFree.Unlock()
	s.segs, s.n = nil, 0
	return nil
}

// memFreeSegs bounds the segments closed stores keep from the collector
// for later stores: 32 MiB. Unlike a sync.Pool's, the list's contents
// survive collections, so a store opened after some have run (a client per
// sort, a tenant per session) still reuses memory the process has touched.
const memFreeSegs = 32

var segFree struct {
	sync.Mutex
	segs []*[memSegElems]Element
}

// newSeg returns a zeroed full segment of l elements, reusing a closed
// store's.
func newSeg(l int) []Element {
	if l > memSegElems {
		return make([]Element, l)
	}
	segFree.Lock()
	var p *[memSegElems]Element
	if k := len(segFree.segs); k > 0 {
		p, segFree.segs = segFree.segs[k-1], segFree.segs[:k-1]
	}
	segFree.Unlock()
	if p == nil {
		return new([memSegElems]Element)[:l]
	}
	clear(p[:l])
	return p[:l]
}

// Growable is implemented by stores that can extend their capacity; the
// Disk allocator grows such stores on demand.
type Growable interface {
	GrowTo(n int) error
}

// GrowTo implements Growable: it raises the capacity to at least n blocks
// and extends the segment table with unallocated segments.
func (s *MemStore) GrowTo(n int) error {
	if n > s.n {
		s.n = n
		if k := CeilDiv(n, s.per); k > len(s.segs) {
			segs := make([][]Element, k)
			copy(segs, s.segs)
			s.segs = segs
		}
	}
	return nil
}
