// Package chaos is a deterministic fault injector for the storage fleet: a
// scripted schedule of failures (kill, stall, error, drop, partition) keyed
// not to wall-clock time but to per-target interaction counters, so the same
// schedule replayed against the same workload triggers at exactly the same
// points in the access sequence — every time, on any machine.
//
// Determinism is the whole point. The headline robustness claim is that
// obliviousness survives failures: under any fault schedule the algorithms
// still return correct results, every surviving Bob's journal remains
// input-independent, and the client's failover decisions are a function of
// the fault events and the public geometry alone. Those are replay
// assertions — run the schedule twice, diff the journals, the decision logs,
// the traces — and replay assertions need an injector with no hidden
// randomness and no timing dependence.
//
// Two injectors share one schedule format: Transport wraps an
// http.RoundTripper and breaks netstore traffic at the wire (what a real
// fleet failure looks like to the client), and Store wraps a BlockStore for
// in-process tests below the HTTP layer.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"oblivext/internal/extmem"
)

// Kind is a fault class.
type Kind int

const (
	// Kill makes the target refuse everything — data plane and control
	// plane — from the trigger point onward, permanently: a crashed server.
	Kill Kind = iota
	// Stall delays matching interactions by Event.Stall before serving them
	// normally: a slow disk or congested link. Stalls change timing only,
	// never outcomes, so they are safe in replay assertions that compare
	// traces (not durations).
	Stall
	// Err503 answers matching interactions with 503 Service Unavailable
	// (Transport) or a transient error (Store): an overloaded or draining
	// server. Clients retry these.
	Err503
	// Err500 answers matching interactions with 500 Internal Server Error:
	// a server-side fault. Clients retry these too.
	Err500
	// Drop loses matching interactions on the wire (a transport error with
	// no response): a lost packet or reset connection.
	Drop
	// Partition refuses connections for the event's window, then heals: the
	// target is unreachable but not dead.
	Partition
)

func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Stall:
		return "stall"
	case Err503:
		return "err503"
	case Err500:
		return "err500"
	case Drop:
		return "drop"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. At and For are measured in the target's own
// data-plane interactions (0-based): the event is live for interactions
// numbered [At, At+For), with For defaulting to 1. Kill ignores For — death
// is permanent.
type Event struct {
	// Target selects the victim: the URL host ("127.0.0.1:8441") for a
	// Transport, an arbitrary label (or empty, matching everything) for a
	// Store.
	Target string
	// At is the 0-based data-plane interaction that triggers the event.
	At int64
	// For is the window length in interactions (default 1).
	For int64
	// Kind is what happens.
	Kind Kind
	// Stall is the added delay for Stall events.
	Stall time.Duration
}

func (e Event) window() (lo, hi int64) {
	n := e.For
	if n <= 0 {
		n = 1
	}
	return e.At, e.At + n
}

// Schedule is a fault script. Events for the same target may overlap; the
// first matching event in schedule order wins an interaction (Kill always
// wins once triggered).
type Schedule []Event

// injector is the shared core: per-target interaction counters, kill latches,
// and the decision log.
type injector struct {
	mu       sync.Mutex
	schedule Schedule
	count    map[string]int64
	dead     map[string]bool
	log      []string
}

func newInjector(schedule Schedule) *injector {
	return &injector{
		schedule: append(Schedule(nil), schedule...),
		count:    make(map[string]int64),
		dead:     make(map[string]bool),
	}
}

// next advances target's interaction counter and returns the fault to apply
// to this interaction, if any. Every injected fault is appended to the
// decision log as "target#n kind".
func (inj *injector) next(target string) (Event, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := inj.count[target]
	inj.count[target] = n + 1
	if inj.dead[target] {
		return Event{Target: target, Kind: Kill}, true
	}
	for _, e := range inj.schedule {
		if e.Target != "" && e.Target != target {
			continue
		}
		if e.Kind == Kill {
			if n >= e.At {
				inj.dead[target] = true
				inj.log = append(inj.log, fmt.Sprintf("%s#%d kill", target, n))
				return e, true
			}
			continue
		}
		if lo, hi := e.window(); n >= lo && n < hi {
			inj.log = append(inj.log, fmt.Sprintf("%s#%d %s", target, n, e.Kind))
			return e, true
		}
	}
	return Event{}, false
}

// AddEvent appends an event to the live schedule. Used by tests that must
// arm a fault only after setup traffic (upload, grow) has passed — the
// interaction counters keep running; the new event simply starts matching.
func (inj *injector) AddEvent(e Event) {
	inj.mu.Lock()
	inj.schedule = append(inj.schedule, e)
	inj.mu.Unlock()
}

// Decisions returns the injected-fault log: one "target#n kind" line per
// fault applied, in injection order for each target. Replaying a schedule
// against the same workload must reproduce this log exactly; the replay
// tests diff it. Lines are sorted (per-target order is preserved; the
// interleaving across targets is concurrent fan-out scheduling, which is
// not part of the determinism claim).
func (inj *injector) Decisions() []string {
	inj.mu.Lock()
	out := append([]string(nil), inj.log...)
	inj.mu.Unlock()
	sort.Strings(out)
	return out
}

// Interactions returns how many data-plane interactions target has seen —
// what an Event.At for a future fault on that target is measured against.
func (inj *injector) Interactions(target string) int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.count[target]
}

// Transport is an http.RoundTripper that injects scheduled faults into
// netstore traffic, keyed per host. Only data-plane requests (the /v1/io
// endpoint) advance a host's interaction counter — control traffic
// (geometry, traces, metrics) passes through unfaulted so tests can audit a
// fleet mid-chaos — but a killed host refuses everything, as a crashed
// process would.
type Transport struct {
	*injector
	base http.RoundTripper
}

// NewTransport wraps base (nil = http.DefaultTransport) with the schedule.
func NewTransport(base http.RoundTripper, schedule Schedule) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{injector: newInjector(schedule), base: base}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if !strings.HasPrefix(req.URL.Path, "/v1/io") {
		// Control plane: unfaulted unless the host is already dead.
		t.mu.Lock()
		dead := t.dead[host]
		t.mu.Unlock()
		if dead {
			return nil, fmt.Errorf("chaos: %s is dead", host)
		}
		return t.base.RoundTrip(req)
	}
	e, hit := t.next(host)
	if !hit {
		return t.base.RoundTrip(req)
	}
	switch e.Kind {
	case Kill:
		return nil, fmt.Errorf("chaos: %s is dead", host)
	case Stall:
		if err := stall(req.Context(), e.Stall); err != nil {
			return nil, err
		}
		return t.base.RoundTrip(req)
	case Err503:
		return synthesize(req, http.StatusServiceUnavailable, "chaos: injected 503"), nil
	case Err500:
		return synthesize(req, http.StatusInternalServerError, "chaos: injected 500"), nil
	case Drop, Partition:
		return nil, fmt.Errorf("chaos: dropped request to %s", host)
	default:
		return t.base.RoundTrip(req)
	}
}

// stall waits out d, or returns ctx's error if ctx is canceled first.
func stall(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// synthesize builds an error response without touching the network, the way
// a proxy or the server itself would have answered.
func synthesize(req *http.Request, status int, msg string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader([]byte(msg + "\n"))),
		Request:    req,
	}
}

// Store is a BlockStore decorator that injects scheduled faults below the
// HTTP layer, for in-process tests. Every call advances the interaction
// counter; injected faults surface as errors (Kill, Drop,
// Partition, Err500, Err503 — all indistinguishable to a BlockStore caller)
// or added latency (Stall).
type Store struct {
	*injector
	inner  extmem.BlockStore
	target string
}

// NewStore wraps inner with the schedule, under the given target label
// (events with an empty Target match any label).
func NewStore(inner extmem.BlockStore, target string, schedule Schedule) *Store {
	return &Store{injector: newInjector(schedule), inner: inner, target: target}
}

// fault applies the next scheduled event, returning a non-nil error when the
// interaction must fail. A Stall ends early, with ctx's error, when ctx is
// canceled: a stalled child of a doomed fan-out is abandoned like a remote
// one would be.
func (s *Store) fault(ctx context.Context) error {
	e, hit := s.next(s.target)
	if !hit {
		return nil
	}
	switch e.Kind {
	case Stall:
		return stall(ctx, e.Stall)
	default:
		return fmt.Errorf("chaos: injected %s on %s", e.Kind, s.target)
	}
}

// Transfer implements BlockStore: one interaction, so one scheduled event,
// whichever parts it carries.
func (s *Store) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	if err := s.fault(ctx); err != nil {
		return err
	}
	return s.inner.Transfer(ctx, wAddrs, src, rAddrs, dst)
}

// NumBlocks implements BlockStore.
func (s *Store) NumBlocks() int { return s.inner.NumBlocks() }

// BlockSize implements BlockStore.
func (s *Store) BlockSize() int { return s.inner.BlockSize() }

// Close implements BlockStore.
func (s *Store) Close() error { return s.inner.Close() }

// GrowTo implements extmem.Growable when the inner store does. Growth is
// control traffic: unfaulted unless the store is dead.
func (s *Store) GrowTo(n int) error {
	s.mu.Lock()
	dead := s.dead[s.target]
	s.mu.Unlock()
	if dead {
		return fmt.Errorf("chaos: %s is dead", s.target)
	}
	g, ok := s.inner.(extmem.Growable)
	if !ok {
		return fmt.Errorf("chaos: %T cannot grow", s.inner)
	}
	return g.GrowTo(n)
}
