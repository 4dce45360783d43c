// Package shard stripes one logical BlockStore across many child backends —
// the "many Bobs" deployment of the paper's outsourced-data model. A
// ShardedStore assigns logical block a to shard a mod K (round-robin, so the
// sequential runs every pass-structured algorithm emits spread evenly) and
// splits every vectored call into per-shard sub-batches dispatched
// concurrently, one goroutine per participating shard. Wall-clock cost per
// interaction is then the slowest shard's round trip, not the sum.
//
// Sharding happens entirely below the Disk layer, so it only partitions the
// per-block access sequence the algorithms emit; each shard observes the
// subsequence of the logical trace whose addresses are ≡ its index mod K,
// re-numbered to local addresses. Obliviousness is unchanged — K servers
// each see a data-independent projection of an already data-independent
// trace (shard_test pins this, and the bucket-oblivious-sort line of work
// makes the same observation for pass-structured access patterns).
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"oblivext/internal/extmem"
)

// Stats is one shard's cumulative view of the traffic it served: how many
// sub-batches it was handed (each one store interaction) and how many blocks
// they moved.
type Stats struct {
	RoundTrips  int64
	BlocksMoved int64
}

// ShardedStore implements extmem.BlockStore over K child stores. Like every
// BlockStore it is driven by a single caller (the Disk); the concurrency is
// internal, between the per-shard goroutines of one fan-out, and each child
// is touched by at most one goroutine at a time. Children may be any mix of
// stores.
type ShardedStore struct {
	shards []extmem.BlockStore
	k      int
	b      int

	stats []Stats // per shard; written only between fan-out joins

	// Per-call scratch, reused across fan-outs (single caller).
	subAddrs [][]int            // per-shard local addresses
	subPos   [][]int            // per-shard positions in the logical batch
	subBuf   [][]extmem.Element // per-shard transfer staging
	errs     []error            // per-shard error of this fan-out
}

// New builds a sharded store over the given children, which must all share
// one block size. One child is allowed (K=1 degenerates to a pass-through
// with fan-out accounting), zero is not.
func New(shards []extmem.BlockStore) (*ShardedStore, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: need at least one child store")
	}
	b := shards[0].BlockSize()
	for i, s := range shards {
		if s.BlockSize() != b {
			return nil, fmt.Errorf("shard: child %d block size %d != %d", i, s.BlockSize(), b)
		}
	}
	k := len(shards)
	return &ShardedStore{
		shards:   shards,
		k:        k,
		b:        b,
		stats:    make([]Stats, k),
		subAddrs: make([][]int, k),
		subPos:   make([][]int, k),
		subBuf:   make([][]extmem.Element, k),
		errs:     make([]error, k),
	}, nil
}

// NumShards returns K.
func (s *ShardedStore) NumShards() int { return s.k }

// shardOf maps a logical address to its owning shard and local address.
func (s *ShardedStore) shardOf(addr int) (shard, local int) { return addr % s.k, addr / s.k }

// ReadBlocks implements BlockStore: the batch is split by residue class into
// per-shard sub-batches fetched concurrently, then scattered back into dst
// in logical order.
func (s *ShardedStore) ReadBlocks(ctx context.Context, addrs []int, dst []extmem.Element) error {
	return s.fanOut(ctx, false, addrs, dst)
}

// WriteBlocks implements BlockStore: per-shard sub-batches are gathered from
// src and dispatched concurrently.
func (s *ShardedStore) WriteBlocks(ctx context.Context, addrs []int, src []extmem.Element) error {
	return s.fanOut(ctx, true, addrs, src)
}

// transfer moves shard sh's sub-batch of the logical batch (n blocks in
// data) in one child call, staging through the shard's scratch when the
// sub-batch is a proper subset.
func (s *ShardedStore) transfer(ctx context.Context, sh int, write bool, n int, data []extmem.Element) error {
	child, sub := s.shards[sh], s.subAddrs[sh]
	if len(sub) == n {
		// The whole batch lives on one shard (split preserves order, so
		// positions are 0..n-1): serve it from data with no staging copy.
		if write {
			return child.WriteBlocks(ctx, sub, data)
		}
		return child.ReadBlocks(ctx, sub, data)
	}
	buf := s.staging(sh)
	if write {
		for j, pos := range s.subPos[sh] {
			copy(buf[j*s.b:(j+1)*s.b], data[pos*s.b:(pos+1)*s.b])
		}
		return child.WriteBlocks(ctx, sub, buf)
	}
	if err := child.ReadBlocks(ctx, sub, buf); err != nil {
		return err
	}
	for j, pos := range s.subPos[sh] {
		copy(data[pos*s.b:(pos+1)*s.b], buf[j*s.b:(j+1)*s.b])
	}
	return nil
}

// split partitions the logical batch into per-shard (local address,
// batch position) lists in the reused scratch. A negative address has no
// owning shard; addresses past the end are the owning child's to reject.
func (s *ShardedStore) split(addrs []int) error {
	for sh := 0; sh < s.k; sh++ {
		s.subAddrs[sh] = s.subAddrs[sh][:0]
		s.subPos[sh] = s.subPos[sh][:0]
	}
	for pos, addr := range addrs {
		if addr < 0 {
			return fmt.Errorf("shard: block address %d out of range [0,%d)", addr, s.NumBlocks())
		}
		sh, local := s.shardOf(addr)
		s.subAddrs[sh] = append(s.subAddrs[sh], local)
		s.subPos[sh] = append(s.subPos[sh], pos)
	}
	return nil
}

// staging returns shard sh's transfer buffer sized for its current
// sub-batch, growing the reusable scratch on demand.
func (s *ShardedStore) staging(sh int) []extmem.Element {
	need := len(s.subAddrs[sh]) * s.b
	if cap(s.subBuf[sh]) < need {
		s.subBuf[sh] = make([]extmem.Element, need)
	}
	return s.subBuf[sh][:need]
}

// fanOut splits one logical batch, runs every shard with a non-empty
// sub-batch concurrently, joins, and counts each participant's sub-batch in
// its per-shard stats.
//
// With several participants the fan-out derives a cancelable child context
// and cancels it as soon as any shard returns an error: the interaction
// already cannot succeed, so the in-flight siblings — which may be remote
// calls with generous retry budgets — are told to stop rather than run to
// their full timeout, and a doomed interaction surfaces its error at the
// speed of the failing shard, not of the slowest surviving one. The
// reported error prefers the shard that actually failed over siblings that
// merely observed the cancellation.
func (s *ShardedStore) fanOut(ctx context.Context, write bool, addrs []int, data []extmem.Element) error {
	totalBlocks := len(addrs)
	if len(data) != totalBlocks*s.b {
		return fmt.Errorf("shard: buffer length %d != %d blocks of %d elements", len(data), totalBlocks, s.b)
	}
	if err := s.split(addrs); err != nil {
		return err
	}
	only := -1 // the single participating shard, or -1 if several
	parts := 0
	for sh := 0; sh < s.k; sh++ {
		s.errs[sh] = nil
		if len(s.subAddrs[sh]) > 0 {
			only = sh
			parts++
		}
	}
	if parts == 1 {
		// One shard, nothing to overlap: skip the goroutine machinery (a
		// one-block access always lands here and allocates nothing).
		s.errs[only] = s.transfer(ctx, only, write, totalBlocks, data)
	} else if parts > 1 {
		fanCtx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for sh := 0; sh < s.k; sh++ {
			if len(s.subAddrs[sh]) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				if s.errs[sh] = s.transfer(fanCtx, sh, write, totalBlocks, data); s.errs[sh] != nil {
					cancel()
				}
			}(sh)
		}
		wg.Wait()
		cancel()
	}
	var err error
	canceled := false
	for sh := 0; sh < s.k; sh++ {
		if len(s.subAddrs[sh]) == 0 {
			continue
		}
		s.stats[sh].RoundTrips++
		s.stats[sh].BlocksMoved += int64(len(s.subAddrs[sh]))
		if e := s.errs[sh]; e != nil {
			if errors.Is(e, context.Canceled) {
				// A sibling canceled by the fan-out is a symptom, not the
				// cause; keep it only if no shard reports a real failure.
				if err == nil && !canceled {
					err, canceled = fmt.Errorf("shard %d: %w", sh, e), true
				}
			} else if err == nil || canceled {
				err, canceled = fmt.Errorf("shard %d: %w", sh, e), false
			}
		}
	}
	return err
}

// NumBlocks implements BlockStore: the length of the contiguous logical
// prefix every shard can serve. Shard sh with capacity c serves logical
// addresses {a : a ≡ sh (mod K), a/K < c}, whose first miss is c·K+sh.
func (s *ShardedStore) NumBlocks() int {
	n := s.shards[0].NumBlocks() * s.k
	for sh := 1; sh < s.k; sh++ {
		if lim := s.shards[sh].NumBlocks()*s.k + sh; lim < n {
			n = lim
		}
	}
	return n
}

// BlockSize implements BlockStore.
func (s *ShardedStore) BlockSize() int { return s.b }

// Close implements BlockStore, closing every child and returning the first
// error.
func (s *ShardedStore) Close() error {
	var err error
	for _, sh := range s.shards {
		if e := sh.Close(); err == nil {
			err = e
		}
	}
	return err
}

// GrowTo implements extmem.Growable by growing every child to ceil(n/K)
// blocks; all children must be growable.
func (s *ShardedStore) GrowTo(n int) error {
	per := extmem.CeilDiv(n, s.k)
	for sh, st := range s.shards {
		g, ok := st.(extmem.Growable)
		if !ok {
			return fmt.Errorf("shard: child %d (%T) cannot grow", sh, st)
		}
		if err := g.GrowTo(per); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// ShardStats returns a copy of the per-shard counters.
func (s *ShardedStore) ShardStats() []Stats {
	out := make([]Stats, s.k)
	copy(out, s.stats)
	return out
}

// ResetStats zeroes the per-shard counters.
func (s *ShardedStore) ResetStats() {
	clear(s.stats)
}
