package extmem

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// NetModel is the read side of a network cost model: cumulative round
// trips, blocks moved, and modeled delay. LatencyStore implements it for a
// single remote Bob; shard.ShardedStore implements it for many, where
// ModeledTime is the max-over-shards critical path of each fan-out rather
// than the sum of per-shard delays.
type NetModel interface {
	RoundTrips() int64
	BlocksMoved() int64
	ModeledTime() time.Duration
	ResetNetStats()
}

// LatencyStore wraps a BlockStore with a network cost model: Bob is remote,
// and every store interaction costs one round trip
// plus a per-block transfer charge. It is the concrete reason the library
// batches I/O: the paper's bounds count blocks, but in the outsourced
// setting of §1 the wall-clock cost is dominated by interactions, and a
// vectored call moves many blocks for a single RTT.
//
// The model can either merely account (the default: fast, deterministic,
// good for experiments) or actually sleep, for end-to-end demonstrations
// against a simulated WAN.
//
// Memory model: the counters are guarded by an internal mutex, so a
// LatencyStore may be charged from multiple goroutines — the sharded
// fan-out dispatches per-shard sub-batches concurrently, and the prefetching
// SeqReader issues reads from a background goroutine. Counter reads
// (RoundTrips/BlocksMoved/ModeledTime) taken while another goroutine is
// mid-call see a consistent snapshot, but attributing a delta to one call
// requires the caller to establish its own happens-before edge (the fan-out
// joins its goroutines before reading per-shard deltas).
type LatencyStore struct {
	inner    BlockStore
	rtt      time.Duration // charged once per interaction
	perBlock time.Duration // charged per block moved
	sleep    bool

	mu      sync.Mutex
	trips   int64
	blocks  int64
	modeled time.Duration
}

// LatencyOptions configures a LatencyStore.
type LatencyOptions struct {
	// RTT is the per-interaction round-trip delay (e.g. 20ms for a WAN).
	RTT time.Duration
	// PerBlock is the bandwidth component: extra delay per block moved.
	PerBlock time.Duration
	// Sleep makes every interaction really block for its modeled delay;
	// when false the delay is only accumulated in ModeledTime.
	Sleep bool
}

// NewLatencyStore wraps inner with the given cost model.
func NewLatencyStore(inner BlockStore, opts LatencyOptions) *LatencyStore {
	return &LatencyStore{inner: inner, rtt: opts.RTT, perBlock: opts.PerBlock, sleep: opts.Sleep}
}

// RoundTrips returns the number of store interactions so far.
func (s *LatencyStore) RoundTrips() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trips
}

// BlocksMoved returns the total number of blocks transferred.
func (s *LatencyStore) BlocksMoved() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks
}

// ModeledTime returns the accumulated network delay under the cost model
// (whether or not Sleep is set).
func (s *LatencyStore) ModeledTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modeled
}

// ResetNetStats zeroes the round-trip, block, and modeled-time counters.
func (s *LatencyStore) ResetNetStats() {
	s.mu.Lock()
	s.trips, s.blocks, s.modeled = 0, 0, 0
	s.mu.Unlock()
}

func (s *LatencyStore) charge(nBlocks int) {
	d := s.rtt + time.Duration(nBlocks)*s.perBlock
	s.mu.Lock()
	s.trips++
	s.blocks += int64(nBlocks)
	s.modeled += d
	s.mu.Unlock()
	if s.sleep && d > 0 {
		time.Sleep(d)
	}
}

// ReadBlocks implements BlockStore: one round trip moving len(addrs)
// blocks. The charge is taken up front (the interaction was issued), then
// the read is forwarded under ctx.
func (s *LatencyStore) ReadBlocks(ctx context.Context, addrs []int, dst []Element) error {
	s.charge(len(addrs))
	return s.inner.ReadBlocks(ctx, addrs, dst)
}

// WriteBlocks implements BlockStore, the write dual of ReadBlocks.
func (s *LatencyStore) WriteBlocks(ctx context.Context, addrs []int, src []Element) error {
	s.charge(len(addrs))
	return s.inner.WriteBlocks(ctx, addrs, src)
}

// NumBlocks implements BlockStore.
func (s *LatencyStore) NumBlocks() int { return s.inner.NumBlocks() }

// BlockSize implements BlockStore.
func (s *LatencyStore) BlockSize() int { return s.inner.BlockSize() }

// Close implements BlockStore.
func (s *LatencyStore) Close() error { return s.inner.Close() }

// GrowTo implements Growable when the inner store does. Growth is a control
// operation, not a data transfer; no network charge.
func (s *LatencyStore) GrowTo(n int) error {
	g, ok := s.inner.(Growable)
	if !ok {
		return fmt.Errorf("extmem: %T cannot grow", s.inner)
	}
	return g.GrowTo(n)
}
