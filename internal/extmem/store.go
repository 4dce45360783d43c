package extmem

import (
	"context"
	"fmt"
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

// MemStore is an in-memory BlockStore: the default substrate for tests and
// benchmarks, where only I/O counts and traces matter.
type MemStore struct {
	b    int
	data []Element
}

// NewMemStore returns a zeroed in-memory store of n blocks of b elements.
func NewMemStore(n, b int) *MemStore {
	if n < 0 || b <= 0 {
		panic("extmem: invalid MemStore geometry")
	}
	return &MemStore{b: b, data: make([]Element, n*b)}
}

// ReadBlocks implements BlockStore; each consecutive run is a single copy.
func (s *MemStore) ReadBlocks(_ context.Context, addrs []int, dst []Element) error {
	if err := s.checkVec(addrs, len(dst)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n := runLen(addrs[i:])
		copy(dst[i*s.b:(i+n)*s.b], s.data[addrs[i]*s.b:(addrs[i]+n)*s.b])
		i += n
	}
	return nil
}

// WriteBlocks implements BlockStore; each consecutive run is a single copy.
func (s *MemStore) WriteBlocks(_ context.Context, addrs []int, src []Element) error {
	if err := s.checkVec(addrs, len(src)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n := runLen(addrs[i:])
		copy(s.data[addrs[i]*s.b:(addrs[i]+n)*s.b], src[i*s.b:(i+n)*s.b])
		i += n
	}
	return nil
}

func (s *MemStore) checkVec(addrs []int, l int) error {
	if l != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", l, len(addrs), s.b)
	}
	for _, addr := range addrs {
		if addr < 0 || (addr+1)*s.b > len(s.data) {
			return fmt.Errorf("extmem: block address %d out of range [0,%d)", addr, s.NumBlocks())
		}
	}
	return nil
}

// NumBlocks implements BlockStore.
func (s *MemStore) NumBlocks() int { return len(s.data) / s.b }

// BlockSize implements BlockStore.
func (s *MemStore) BlockSize() int { return s.b }

// Close implements BlockStore.
func (s *MemStore) Close() error { return nil }

// Growable is implemented by stores that can extend their capacity; the
// Disk allocator grows such stores on demand.
type Growable interface {
	GrowTo(n int) error
}

// Grow extends the store to hold at least n blocks.
func (s *MemStore) Grow(n int) {
	if need := n * s.b; need > len(s.data) {
		nd := make([]Element, need)
		copy(nd, s.data)
		s.data = nd
	}
}

// GrowTo implements Growable.
func (s *MemStore) GrowTo(n int) error {
	s.Grow(n)
	return nil
}
