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
// sub-batches it was handed (each one store interaction, both parts of a
// Transfer together) and how many blocks they moved.
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
	w, r part    // the write and the read part, split by shard
	errs []error // per-shard error of this fan-out
}

// part is one part of a Transfer split by shard: per shard, the local
// addresses, their positions in the logical batch, and the staging its
// blocks pass through.
type part struct {
	addrs [][]int
	pos   [][]int
	buf   [][]extmem.Element
}

func newPart(k int) part {
	return part{make([][]int, k), make([][]int, k), make([][]extmem.Element, k)}
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
		shards: shards,
		k:      k,
		b:      b,
		stats:  make([]Stats, k),
		w:      newPart(k),
		r:      newPart(k),
		errs:   make([]error, k),
	}, nil
}

// NumShards returns K.
func (s *ShardedStore) NumShards() int { return s.k }

// shardOf maps a logical address to its owning shard and local address.
func (s *ShardedStore) shardOf(addr int) (shard, local int) { return addr % s.k, addr / s.k }

// Transfer implements BlockStore: both parts are split by residue class
// into per-shard sub-batches, every shard's write part is gathered from
// src before any shard starts, the shards run their parts concurrently,
// each as one child Transfer, and each shard's reads are scattered back
// into dst in logical order — so dst may alias src.
//
// With several participating shards the fan-out derives a cancelable child
// context and cancels it as soon as any shard returns an error: the
// interaction already cannot succeed, so the in-flight siblings — which
// may be remote calls with generous retry budgets — are told to stop
// rather than run to their full timeout, and a doomed interaction surfaces
// its error at the speed of the failing shard, not of the slowest
// surviving one. The reported error prefers the shard that actually failed
// over siblings that merely observed the cancellation.
func (s *ShardedStore) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	if len(src) != len(wAddrs)*s.b || len(dst) != len(rAddrs)*s.b {
		return fmt.Errorf("shard: buffer lengths %d and %d != %d and %d blocks of %d elements",
			len(src), len(dst), len(wAddrs), len(rAddrs), s.b)
	}
	if err := s.w.split(s, wAddrs); err != nil {
		return err
	}
	if err := s.r.split(s, rAddrs); err != nil {
		return err
	}
	only := -1 // the single participating shard, or -1 if several
	parts := 0
	for sh := 0; sh < s.k; sh++ {
		s.errs[sh] = nil
		if s.participates(sh) {
			only = sh
			parts++
		}
	}
	if parts == 1 {
		// The whole call lives on one shard (split preserves order, so
		// positions are 0..n-1), nothing to overlap: serve it from the
		// caller's buffers with no goroutine and no staging copy (a
		// one-block access always lands here and allocates nothing).
		s.errs[only] = s.shards[only].Transfer(ctx, s.w.addrs[only], src, s.r.addrs[only], dst)
	} else if parts > 0 {
		for sh := 0; sh < s.k; sh++ {
			s.w.gather(s, sh, src)
		}
		fanCtx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for sh := 0; sh < s.k; sh++ {
			if !s.participates(sh) {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				err := s.shards[sh].Transfer(fanCtx, s.w.addrs[sh], s.w.buf[sh], s.r.addrs[sh], s.r.staging(s, sh))
				if err == nil {
					s.r.scatter(s, sh, dst)
				}
				if s.errs[sh] = err; err != nil {
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
		if !s.participates(sh) {
			continue
		}
		s.stats[sh].RoundTrips++
		s.stats[sh].BlocksMoved += int64(len(s.w.addrs[sh]) + len(s.r.addrs[sh]))
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

// participates reports whether shard sh has a part in the current call.
func (s *ShardedStore) participates(sh int) bool {
	return len(s.w.addrs[sh]) > 0 || len(s.r.addrs[sh]) > 0
}

// split partitions one part of the logical batch into per-shard (local
// address, batch position) lists in the reused scratch. A negative address
// has no owning shard; addresses past the end are the owning child's to
// reject.
func (p *part) split(s *ShardedStore, addrs []int) error {
	for sh := 0; sh < s.k; sh++ {
		p.addrs[sh] = p.addrs[sh][:0]
		p.pos[sh] = p.pos[sh][:0]
	}
	for pos, addr := range addrs {
		if addr < 0 {
			return fmt.Errorf("shard: block address %d out of range [0,%d)", addr, s.NumBlocks())
		}
		sh, local := s.shardOf(addr)
		p.addrs[sh] = append(p.addrs[sh], local)
		p.pos[sh] = append(p.pos[sh], pos)
	}
	return nil
}

// staging returns shard sh's buffer for its current sub-batch of this
// part, growing the reusable scratch on demand.
func (p *part) staging(s *ShardedStore, sh int) []extmem.Element {
	need := len(p.addrs[sh]) * s.b
	if cap(p.buf[sh]) < need {
		p.buf[sh] = make([]extmem.Element, need)
	}
	p.buf[sh] = p.buf[sh][:need]
	return p.buf[sh]
}

// gather copies shard sh's blocks of this part out of data into its
// staging.
func (p *part) gather(s *ShardedStore, sh int, data []extmem.Element) {
	buf := p.staging(s, sh)
	for j, pos := range p.pos[sh] {
		copy(buf[j*s.b:(j+1)*s.b], data[pos*s.b:(pos+1)*s.b])
	}
}

// scatter copies shard sh's staged blocks of this part to their logical
// positions in data.
func (p *part) scatter(s *ShardedStore, sh int, data []extmem.Element) {
	for j, pos := range p.pos[sh] {
		copy(data[pos*s.b:(pos+1)*s.b], p.buf[sh][j*s.b:(j+1)*s.b])
	}
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
