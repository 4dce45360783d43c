// Package obs is the observability layer: hierarchical phase spans with
// per-span I/O deltas, Chrome trace-event export, and a live obliviousness
// auditor that compares each span's access-trace fingerprint against a
// recorded golden one.
//
// The package is deliberately near the leaves: it imports the standard
// library and internal/trace, whose FNV-1a fold fingerprints share with the
// Disk's trace recorder. extmem threads a Collector through the Disk and
// Env, and every stratum above — core passes, sorter engine rounds, ORAM
// accesses and rebuilds, emsort runs — opens spans around its phases. A nil *Collector is the disabled
// state: every method is nil-receiver safe and free, so instrumented code
// pays one pointer check when observability is off.
//
// Concurrency: a Collector is not internally synchronized. It relies on the
// same discipline as the Disk's I/O counters — spans are started and ended,
// and every Access is made, by the single goroutine driving the algorithms.
package obs

import (
	"fmt"
	"time"

	"oblivext/internal/trace"
)

// Counters is the one definition of measured I/O: the Disk's counters, with
// the crypto byte counters folded in, and what a Collector diffs around each
// span. Field-for-field the public oblivext.IOStats mirrors it, so the two
// convert as whole structs and a counter added here cannot be silently
// dropped there (TestIOStatsFullCopy pins the mirror).
type Counters struct {
	Reads       int64
	Writes      int64
	RoundTrips  int64
	BytesSealed int64
	BytesOpened int64
}

// Sub returns the component-wise difference c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Reads:       c.Reads - o.Reads,
		Writes:      c.Writes - o.Writes,
		RoundTrips:  c.RoundTrips - o.RoundTrips,
		BytesSealed: c.BytesSealed - o.BytesSealed,
		BytesOpened: c.BytesOpened - o.BytesOpened,
	}
}

// Add returns the component-wise sum c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Reads:       c.Reads + o.Reads,
		Writes:      c.Writes + o.Writes,
		RoundTrips:  c.RoundTrips + o.RoundTrips,
		BytesSealed: c.BytesSealed + o.BytesSealed,
		BytesOpened: c.BytesOpened + o.BytesOpened,
	}
}

// Total returns reads plus writes — the block-I/O quantity the paper's
// bounds are stated in.
func (c Counters) Total() int64 { return c.Reads + c.Writes }

// Cost returns what the counters measured in the terms a predictor prices:
// block I/Os and round trips.
func (c Counters) Cost() Cost { return Cost{IOs: c.Total(), RoundTrips: c.RoundTrips} }

// Cost is the predicted price of an operation: the block I/Os the paper's
// bounds count and the round trips they are batched into. A field of -1 is
// no prediction.
type Cost struct {
	IOs        int64
	RoundTrips int64
}

// Add returns the field-wise sum c + o.
func (c Cost) Add(o Cost) Cost { return Cost{c.IOs + o.IOs, c.RoundTrips + o.RoundTrips} }

// Attr is one key=value annotation on a span (engine name, problem size,
// pass index — public quantities only; attrs end up in exported traces).
type Attr struct {
	Key, Value string
}

// AuditMode selects how a span's access trace is folded into its audit
// fingerprint.
type AuditMode byte

const (
	// AuditOff leaves the span unaudited (the default).
	AuditOff AuditMode = iota
	// AuditExact fingerprints the full normalized trace — the (kind,
	// address) sequence. Sound for spans whose trace is a deterministic
	// function of public geometry and the seed (every sorter engine, the
	// ORAM rebuilds under a deterministic rebuild sort): replaying the same
	// operation must replay the same fingerprint.
	AuditExact
	// AuditShape fingerprints only the kind sequence (R/W, in order),
	// discarding addresses. This is the normalization for spans that
	// legitimately contain PRF-fresh addresses — the ORAM's probe phase,
	// whose bucket indices differ per access while everything else about
	// the trace (how many reads per level, the one grouped write-back) is
	// fixed by the geometry.
	AuditShape
)

// Span is one phase of an algorithm: a named node in the span tree carrying
// wall time and the I/O counter deltas that occurred between its Start and
// End, its own children, and optionally a predicted I/O cost and an audit
// fingerprint.
type Span struct {
	Name  string
	Attrs []Attr
	// Start is the span's wall-clock start; Dur its wall duration.
	Start time.Time
	Dur   time.Duration
	// IO is the total counter delta over the span — self plus children.
	IO Counters
	// Predicted carries a predictor's price of the span; -1 in a field
	// means no prediction.
	Predicted Cost
	Children  []*Span

	startIO   Counters
	auditKey  string
	auditMode AuditMode
	fpLen     int64
	fpHash    uint64
}

// SetAttr appends a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{key, value})
}

// SetAttrInt appends an integer annotation.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{key, fmt.Sprintf("%d", value)})
}

// SetPredicted attaches a predictor's price of the span (a field of -1
// leaves that quantity unpredicted).
func (s *Span) SetPredicted(c Cost) {
	if s == nil {
		return
	}
	s.Predicted = c
}

// Audit marks the span for exact-trace auditing under the given key: at
// End, the collector hands the span's (kind, address) fingerprint to the
// attached Auditor. The key must name the operation and every public input
// that determines the trace — op, engine, n, B, M, placement, seed class.
func (s *Span) Audit(key string) {
	if s == nil {
		return
	}
	s.auditKey, s.auditMode = key, AuditExact
}

// AuditShape marks the span for shape-only auditing (kind sequence,
// addresses discarded) — the normalization for spans containing PRF-fresh
// addresses, like the ORAM probe phase.
func (s *Span) AuditShape(key string) {
	if s == nil {
		return
	}
	s.auditKey, s.auditMode = key, AuditShape
}

// Fingerprint returns the span's accumulated trace fingerprint.
func (s *Span) Fingerprint() Fingerprint {
	if s == nil {
		return Fingerprint{}
	}
	return Fingerprint{Len: s.fpLen, Hash: s.fpHash}
}

// Self returns the span's own counter delta: IO minus the children's
// totals. By construction IO == Self() + sum of children's IO, which the
// attribution tests pin.
func (s *Span) Self() Counters {
	out := s.IO
	for _, ch := range s.Children {
		out = out.Sub(ch.IO)
	}
	return out
}

// Collector accumulates a span tree. Zero overhead when nil; one counter
// snapshot per span boundary and one hash fold per block access per open
// span when enabled.
type Collector struct {
	snapshot func() Counters
	roots    []*Span
	stack    []*Span
	auditor  *Auditor
}

// NewCollector returns a collector that reads counter snapshots from the
// given function (typically the Disk's Stats, crypto counters folded in).
func NewCollector(snapshot func() Counters) *Collector {
	if snapshot == nil {
		snapshot = func() Counters { return Counters{} }
	}
	return &Collector{snapshot: snapshot}
}

// Enabled reports whether the collector is live (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// SetAuditor attaches an auditor; every subsequently ended span with an
// audit key reports its fingerprint to it.
func (c *Collector) SetAuditor(a *Auditor) {
	if c == nil {
		return
	}
	c.auditor = a
}

// Auditor returns the attached auditor, if any.
func (c *Collector) Auditor() *Auditor {
	if c == nil {
		return nil
	}
	return c.auditor
}

// Start opens a span as a child of the innermost open span (or as a new
// root) and returns it. Nil-safe: a nil collector returns a nil span, which
// every Span method accepts.
func (c *Collector) Start(name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{
		Name:      name,
		Start:     time.Now(),
		Predicted: Cost{-1, -1},
		startIO:   c.snapshot(),
		fpHash:    trace.FNVOffset,
	}
	if n := len(c.stack); n > 0 {
		c.stack[n-1].Children = append(c.stack[n-1].Children, s)
	} else {
		c.roots = append(c.roots, s)
	}
	c.stack = append(c.stack, s)
	return s
}

// End closes the span, computing its wall duration and counter delta, and
// reports its fingerprint to the auditor when the span was marked for
// auditing. Spans must end in LIFO order; End(nil) is a no-op.
func (c *Collector) End(s *Span) {
	if c == nil || s == nil {
		return
	}
	n := len(c.stack)
	if n == 0 || c.stack[n-1] != s {
		panic(fmt.Sprintf("obs: End(%q) out of order", s.Name))
	}
	c.stack = c.stack[:n-1]
	s.Dur = time.Since(s.Start)
	s.IO = c.snapshot().Sub(s.startIO)
	if s.auditKey != "" && c.auditor != nil {
		c.auditor.Observe(s.auditKey, s.Fingerprint())
	}
}

// Access folds one block access into the fingerprint of every open span.
// The Disk calls this once per block moved; kind is 'R' or 'W'.
func (c *Collector) Access(kind byte, addr int64) {
	if c == nil {
		return
	}
	for _, s := range c.stack {
		if s.auditMode == AuditShape {
			s.fpHash = trace.FoldKind(s.fpHash, trace.Kind(kind))
		} else {
			s.fpHash = trace.Fold(s.fpHash, trace.Kind(kind), addr)
		}
		s.fpLen++
	}
}

// Roots returns the finished top-level spans (open spans are included once
// ended).
func (c *Collector) Roots() []*Span {
	if c == nil {
		return nil
	}
	return c.roots
}

// Depth returns how many spans are currently open.
func (c *Collector) Depth() int {
	if c == nil {
		return 0
	}
	return len(c.stack)
}

// Reset drops all finished spans. It panics if a span is still open — a
// reset mid-span would corrupt the tree's delta arithmetic, exactly like
// resetting the I/O counters mid-span would.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	if len(c.stack) > 0 {
		panic(fmt.Sprintf("obs: Reset with %d open span(s), innermost %q", len(c.stack), c.stack[len(c.stack)-1].Name))
	}
	c.roots = nil
}
