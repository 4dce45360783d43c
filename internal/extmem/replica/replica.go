// Package replica makes one logical BlockStore out of R redundant children —
// the fault-tolerance layer of the outsourced-data deployment. Where
// shard.ShardedStore partitions the address space across many Bobs, a
// replica.Store gives every Bob a full copy: writes fan out to every live
// replica, reads are served by the healthiest one, and the loss of any R-1
// replicas costs availability of nothing.
//
// Obliviousness is preserved by construction. Each replica observes (a
// fault-determined subsequence of) the same per-block access trace the
// algorithms emit — replication duplicates the adversary's view, it does not
// widen it. Every routing decision this layer makes (which replica serves a
// read, which breaker opens, when a probe fires) is a function of the fault
// history and the public geometry alone, never of block contents or of the
// input being processed; the chaos tests replay identical fault schedules
// against different inputs and assert the decision logs and surviving
// journals are bit-identical.
//
// Health tracking is a per-replica circuit breaker: consecutive failures
// beyond a threshold open the breaker, and an open breaker is skipped (its
// missed writes are remembered as dirty blocks) until a cooldown expires and
// a half-open probe is allowed through. The cooldown is measured in group
// interactions, not wall time, so a replayed fault schedule drives the
// breaker through exactly the same transitions — determinism is what lets
// the tests assert failover leaks nothing.
//
// A replica that missed writes (breaker open, or the write itself failed) is
// dirty at those addresses: reads never route to a replica dirty at any
// requested address, and a later successful read repairs the dirty replicas
// by writing the freshly-read blocks back to them. This, not the crypto
// layer, is what prevents stale-but-authenticated data from being served:
// the sealing MAC binds ciphertext to an address but carries no freshness
// counter, so an old sealed block at the right address authenticates — see
// THREAT_MODEL.md.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"oblivext/internal/extmem"
)

// Breaker states.
const (
	stClosed = iota
	stOpen
	stHalfOpen
)

func stateName(st int) string {
	switch st {
	case stOpen:
		return "open"
	case stHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Options configures a Store.
type Options struct {
	// FailureThreshold is how many consecutive failures open a replica's
	// breaker (default 3). A failure while half-open reopens immediately.
	FailureThreshold int
	// Cooldown is how many group interactions an open breaker stays open
	// before a half-open probe may route traffic to it again (default 16).
	// Interactions, not wall time: replayed fault schedules must drive the
	// breaker deterministically.
	Cooldown int
}

// Stats is one replica's cumulative view of the traffic and faults it saw.
type Stats struct {
	RoundTrips  int64  // sub-batches dispatched to this replica
	BlocksMoved int64  // blocks those sub-batches carried
	Failures    int64  // failed sub-batches
	Failovers   int64  // read sub-batches rerouted away after a failure
	Repairs     int64  // read-repair writes applied to this replica
	Dirty       int    // addresses currently known stale on this replica
	State       string // breaker state at snapshot time
}

// health is one replica's breaker.
type health struct {
	state       int
	consecFails int
	openUntil   int64 // group interaction count at which a probe is allowed
}

// Store implements extmem.BlockStore over R replica children. Like every
// BlockStore it is driven by a single caller (the Disk); the concurrency is
// internal — write fan-outs and multi-replica read rounds, one goroutine per
// child. Every child is guarded by its own mutex, so a child never sees two
// calls at once, Close and GrowTo included.
type Store struct {
	children []extmem.BlockStore
	r        int
	b        int

	repMu []sync.Mutex // serializes all access to children[i]

	mu     sync.Mutex // guards everything below
	ops    int64      // logical interactions; the breaker's clock
	hp     []health
	dirty  []map[int]struct{} // per replica: addresses that missed writes
	stats  []Stats
	events []string // breaker/failover decision log, for replay checks

	failThresh int
	cooldown   int64

	calls []replicaCall // one round's child calls, reused (single caller)
}

// New builds a replicated store over the given children, which must all
// share one block size. A single child degenerates to a pass-through with
// breaker accounting; zero children is an error.
func New(children []extmem.BlockStore, opts Options) (*Store, error) {
	if len(children) == 0 {
		return nil, errors.New("replica: need at least one child store")
	}
	b := children[0].BlockSize()
	for i, c := range children {
		if c.BlockSize() != b {
			return nil, fmt.Errorf("replica: child %d block size %d != %d", i, c.BlockSize(), b)
		}
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 16
	}
	r := len(children)
	s := &Store{
		children:   children,
		r:          r,
		b:          b,
		repMu:      make([]sync.Mutex, r),
		hp:         make([]health, r),
		dirty:      make([]map[int]struct{}, r),
		stats:      make([]Stats, r),
		failThresh: opts.FailureThreshold,
		cooldown:   int64(opts.Cooldown),
	}
	for i := range s.dirty {
		s.dirty[i] = make(map[int]struct{})
	}
	return s, nil
}

// NumReplicas returns R.
func (s *Store) NumReplicas() int { return s.r }

// logf appends one line to the decision log (caller holds s.mu).
func (s *Store) logf(format string, args ...any) {
	s.events = append(s.events, fmt.Sprintf(format, args...))
}

// Events returns a copy of the decision log: one line per breaker
// transition, failover, and repair, each stamped with the interaction count
// it happened at. Two runs under the same fault schedule produce identical
// logs regardless of the data being processed — the replay tests diff them.
func (s *Store) Events() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.events...)
}

// ReplicaStats returns a snapshot of the per-replica counters.
func (s *Store) ReplicaStats() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stats, s.r)
	copy(out, s.stats)
	for i := range out {
		out[i].Dirty = len(s.dirty[i])
		out[i].State = stateName(s.hp[i].state)
	}
	return out
}

// available reports whether replica i may be routed traffic right now
// (caller holds s.mu): breaker closed, already half-open, or open with an
// expired cooldown (routing to it is the half-open probe).
func (s *Store) available(i int) bool {
	h := &s.hp[i]
	return h.state == stClosed || h.state == stHalfOpen ||
		(h.state == stOpen && s.ops >= h.openUntil)
}

// markProbing flips an open-with-expired-cooldown breaker to half-open when
// replica i is about to receive probe traffic (caller holds s.mu).
func (s *Store) markProbing(i int) {
	if h := &s.hp[i]; h.state == stOpen && s.ops >= h.openUntil {
		h.state = stHalfOpen
		s.logf("ops=%d replica=%d half-open probe", s.ops, i)
	}
}

// noteSuccess records a successful sub-batch on replica i (caller holds
// s.mu): any non-closed breaker closes.
func (s *Store) noteSuccess(i int) {
	h := &s.hp[i]
	h.consecFails = 0
	if h.state != stClosed {
		h.state = stClosed
		s.logf("ops=%d replica=%d closed", s.ops, i)
	}
}

// noteFailure records a failed sub-batch on replica i (caller holds s.mu):
// a half-open probe reopens immediately, a closed breaker opens once the
// consecutive-failure threshold is reached.
func (s *Store) noteFailure(i int) {
	h := &s.hp[i]
	h.consecFails++
	s.stats[i].Failures++
	if h.state == stHalfOpen || (h.state != stOpen && h.consecFails >= s.failThresh) {
		h.state = stOpen
		h.openUntil = s.ops + s.cooldown
		s.logf("ops=%d replica=%d open (fails=%d, retry at ops=%d)", s.ops, i, h.consecFails, h.openUntil)
	}
}

// markDirty remembers that replica i missed the current write at addrs
// (caller holds s.mu).
func (s *Store) markDirty(i int, addrs []int) {
	for _, a := range addrs {
		s.dirty[i][a] = struct{}{}
	}
}

// clearDirty forgets dirt on replica i at addrs after a successful write or
// repair (caller holds s.mu).
func (s *Store) clearDirty(i int, addrs []int) {
	for _, a := range addrs {
		delete(s.dirty[i], a)
	}
}

// cleanAt reports whether replica i holds current data at addr (caller
// holds s.mu).
func (s *Store) cleanAt(i, addr int) bool {
	_, stale := s.dirty[i][addr]
	return !stale
}

// tierOf ranks replica i as a read candidate (caller holds s.mu): closed
// breakers first, then half-open probes, then open ones (the desperation
// tier — a clean-but-suspect replica still beats no data at all). Lower is
// better; ties break toward the lower index.
func (s *Store) tierOf(i int) int {
	h := &s.hp[i]
	switch {
	case h.state == stClosed:
		return 0
	case h.state == stHalfOpen || (h.state == stOpen && s.ops >= h.openUntil):
		return 1
	default:
		return 2
	}
}

// call performs one child Transfer on replica i under its mutex.
func (s *Store) call(ctx context.Context, i int, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	s.repMu[i].Lock()
	defer s.repMu[i].Unlock()
	return s.children[i].Transfer(ctx, wAddrs, src, rAddrs, dst)
}

// assignment is one failover round's routing decision: per participating
// replica, the addresses it serves and their positions in the logical batch.
type assignment struct {
	rep   int
	addrs []int
	pos   []int
}

// assign routes each pending address to its best candidate replica (caller
// holds s.mu): the clean replica in the lowest tier, lowest index breaking
// ties, never a replica excluded by an earlier failure this interaction.
// An address with no candidate at all yields an error — every replica that
// holds current data for it has already failed.
func (s *Store) assign(addrs, pos []int, excluded []bool) ([]assignment, error) {
	perRep := make([]assignment, 0, 2)
	idx := make([]int, s.r)
	for i := range idx {
		idx[i] = -1
	}
	for j, a := range addrs {
		best, bestTier := -1, 3
		for i := 0; i < s.r; i++ {
			if excluded[i] || !s.cleanAt(i, a) {
				continue
			}
			if t := s.tierOf(i); t < bestTier {
				best, bestTier = i, t
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("replica: no live replica holds current data for block %d", a)
		}
		if idx[best] < 0 {
			idx[best] = len(perRep)
			perRep = append(perRep, assignment{rep: best})
		}
		g := &perRep[idx[best]]
		g.addrs = append(g.addrs, a)
		g.pos = append(g.pos, pos[j])
	}
	for i := range perRep {
		s.markProbing(perRep[i].rep)
	}
	return perRep, nil
}

// replicaCall is one child interaction of a round: replica rep's copy of
// the write part, when it carries one (write), and the read group g it was
// assigned, when it has one (-1 for none), whose blocks land in buf.
type replicaCall struct {
	rep   int
	write bool
	g     int
	w, r  []int
	src   []extmem.Element
	buf   []extmem.Element
	err   error
}

// Transfer implements BlockStore. The write part fans out to every replica
// whose breaker admits traffic; replicas skipped or failed are marked dirty
// at the written addresses (a later read must not be served stale data
// from them), and the write succeeds as long as at least one replica took
// it. Each read address is served by the healthiest replica holding current
// data for it, the write part counted; each replica gets its copy of the
// write part and its share of the reads in one child interaction. A failed
// call marks the replica, excludes it for the rest of the interaction, and
// reroutes its reads to the next candidate (failover), read-only. After a
// successful read, any live replica known dirty at the addresses just read
// is repaired in place with the freshly-read blocks. Reads land in staging
// whenever more than one child runs at once, so dst may alias src.
func (s *Store) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	if len(src) != len(wAddrs)*s.b || len(dst) != len(rAddrs)*s.b {
		return fmt.Errorf("replica: buffer lengths %d and %d != %d and %d blocks of %d elements",
			len(src), len(dst), len(wAddrs), len(rAddrs), s.b)
	}
	s.mu.Lock()
	s.ops++
	var targets []bool // replicas the write part goes to; nil without one
	if len(wAddrs) > 0 {
		targets = make([]bool, s.r)
		for i := 0; i < s.r; i++ {
			if s.available(i) {
				targets[i] = true
				s.markProbing(i)
			} else {
				s.markDirty(i, wAddrs)
			}
		}
	}
	s.mu.Unlock()

	pending, pos := rAddrs, make([]int, len(rAddrs))
	for i := range pos {
		pos[i] = i
	}
	var excluded []bool // replicas a failed call excluded from the reads
	if len(rAddrs) > 0 {
		excluded = make([]bool, s.r)
	}
	for first := true; len(pending) > 0 || targets != nil; first = false {
		var groups []assignment
		if len(pending) > 0 {
			s.mu.Lock()
			var err error
			groups, err = s.assign(pending, pos, excluded)
			s.mu.Unlock()
			if err != nil {
				return err
			}
		}
		calls := s.round(ctx, targets, wAddrs, src, groups, first, dst)

		// Fold outcomes in replica-index order (calls are built that way):
		// health updates must not depend on goroutine scheduling.
		var nextPending, nextPos []int
		okWrites := 0
		var firstErr error
		s.mu.Lock()
		for _, c := range calls {
			i := c.rep
			s.stats[i].RoundTrips++
			if c.write {
				s.stats[i].BlocksMoved += int64(len(wAddrs))
			}
			if c.g >= 0 {
				s.stats[i].BlocksMoved += int64(len(groups[c.g].addrs))
			}
			if c.err == nil {
				s.noteSuccess(i)
				if c.write {
					// This replica now holds the newest data at wAddrs,
					// whatever it missed before.
					okWrites++
					s.clearDirty(i, wAddrs)
				}
				continue
			}
			s.noteFailure(i)
			if c.write {
				s.markDirty(i, wAddrs)
				s.logf("ops=%d replica=%d write failed (%d blocks dirty)", s.ops, i, len(s.dirty[i]))
				if firstErr == nil {
					firstErr = fmt.Errorf("replica %d: %w", i, c.err)
				}
			}
			if c.g >= 0 {
				g := groups[c.g]
				s.stats[i].Failovers++
				s.logf("ops=%d replica=%d read failover (%d blocks)", s.ops, i, len(g.addrs))
				excluded[i] = true
				nextPending = append(nextPending, g.addrs...)
				nextPos = append(nextPos, g.pos...)
			}
		}
		s.mu.Unlock()
		if targets != nil && okWrites == 0 {
			if firstErr == nil {
				firstErr = errors.New("replica: no replica admitted the write")
			}
			return firstErr
		}
		targets = nil // failover rounds read only
		pending, pos = nextPending, nextPos
	}

	if len(rAddrs) > 0 {
		s.repair(ctx, rAddrs, dst)
	}
	return nil
}

// round runs one round of a Transfer: a call per replica that is a write
// target or was assigned a read group, concurrently when there are several,
// and scatters every successful call's reads into dst. A lone call in the
// first round, which holds every read in dst's order, reads straight into
// dst; every other read lands in its own buffer first, so no child fills
// dst while another still reads src, and a failover round's reads, in the
// order their failed groups left them, reach their own positions. The
// calls live in the Store's scratch until the next round.
func (s *Store) round(ctx context.Context, targets []bool, wAddrs []int, src []extmem.Element, groups []assignment, first bool, dst []extmem.Element) []replicaCall {
	calls := s.calls[:0]
	for i := 0; i < s.r; i++ {
		c := replicaCall{rep: i, write: targets != nil && targets[i], g: -1}
		if c.write {
			c.w, c.src = wAddrs, src
		}
		for gi := range groups {
			if groups[gi].rep == i {
				c.g, c.r = gi, groups[gi].addrs
			}
		}
		if c.write || c.g >= 0 {
			calls = append(calls, c)
		}
	}
	s.calls = calls
	direct := first && len(calls) == 1
	for ci := range calls {
		if c := &calls[ci]; direct {
			c.buf = dst
		} else if len(c.r) > 0 {
			c.buf = make([]extmem.Element, len(c.r)*s.b)
		}
	}
	if len(calls) == 1 {
		c := &calls[0]
		c.err = s.call(ctx, c.rep, c.w, c.src, c.r, c.buf)
	} else {
		var wg sync.WaitGroup
		for ci := range calls {
			wg.Add(1)
			go func(c *replicaCall) {
				defer wg.Done()
				c.err = s.call(ctx, c.rep, c.w, c.src, c.r, c.buf)
			}(&calls[ci])
		}
		wg.Wait()
	}
	for _, c := range calls {
		if c.err == nil && c.g >= 0 && !direct {
			s.scatterInto(dst, c.buf, groups[c.g].pos)
		}
	}
	return calls
}

// scatterInto copies sub-batch blocks back to their logical positions.
func (s *Store) scatterInto(dst, buf []extmem.Element, pos []int) {
	for j, p := range pos {
		copy(dst[p*s.b:(p+1)*s.b], buf[j*s.b:(j+1)*s.b])
	}
}

// repair writes freshly-read blocks back to live replicas known dirty at
// those addresses — synchronous read-repair, in replica-index order so the
// decision log is deterministic. Repair failures feed the breaker like any
// other write failure; the dirt stays recorded.
func (s *Store) repair(ctx context.Context, addrs []int, data []extmem.Element) {
	for i := 0; i < s.r; i++ {
		s.mu.Lock()
		if !s.available(i) || len(s.dirty[i]) == 0 {
			s.mu.Unlock()
			continue
		}
		var raddrs []int
		var rpos []int
		for j, a := range addrs {
			if !s.cleanAt(i, a) {
				raddrs = append(raddrs, a)
				rpos = append(rpos, j)
			}
		}
		if len(raddrs) == 0 {
			s.mu.Unlock()
			continue
		}
		s.markProbing(i)
		s.mu.Unlock()

		buf := make([]extmem.Element, len(raddrs)*s.b)
		for j, p := range rpos {
			copy(buf[j*s.b:(j+1)*s.b], data[p*s.b:(p+1)*s.b])
		}
		err := s.call(ctx, i, raddrs, buf, nil, nil)

		s.mu.Lock()
		s.stats[i].RoundTrips++
		s.stats[i].BlocksMoved += int64(len(raddrs))
		if err == nil {
			s.noteSuccess(i)
			s.clearDirty(i, raddrs)
			s.stats[i].Repairs++
			s.logf("ops=%d replica=%d repaired %d blocks (%d still dirty)", s.ops, i, len(raddrs), len(s.dirty[i]))
		} else {
			s.noteFailure(i)
		}
		s.mu.Unlock()
	}
}

// NumBlocks implements BlockStore: the group's serving capacity is the best
// replica's, not the worst's — a replica that failed to grow is behind, and
// reads routed to addresses it lacks fail over like any other fault.
func (s *Store) NumBlocks() int {
	n := 0
	for _, c := range s.children {
		if m := c.NumBlocks(); m > n {
			n = m
		}
	}
	return n
}

// BlockSize implements BlockStore.
func (s *Store) BlockSize() int { return s.b }

// Close implements BlockStore, closing every child and returning the first
// error.
func (s *Store) Close() error {
	var err error
	for i := range s.children {
		s.repMu[i].Lock()
		e := s.children[i].Close()
		s.repMu[i].Unlock()
		if err == nil {
			err = e
		}
	}
	return err
}

// GrowTo implements extmem.Growable: every child is asked to grow, and the
// group grows as long as at least one succeeded. A replica that failed to
// grow takes breaker failures through the ordinary write path when traffic
// reaches addresses it lacks.
func (s *Store) GrowTo(n int) error {
	ok := 0
	var firstErr error
	for i, c := range s.children {
		g, isG := c.(extmem.Growable)
		if !isG {
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d: %T cannot grow", i, c)
			}
			continue
		}
		s.repMu[i].Lock()
		err := g.GrowTo(n)
		s.repMu[i].Unlock()
		if err == nil {
			ok++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if ok == 0 {
		return firstErr
	}
	return nil
}

// ResetStats zeroes the per-replica traffic counters. Health, dirt, fault
// counters and the decision log survive — a stats reset must not close
// breakers or forget missed writes.
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.stats {
		s.stats[i].RoundTrips, s.stats[i].BlocksMoved = 0, 0
	}
}
