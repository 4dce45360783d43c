package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced pass records spans at the three boundaries reachable from
// outside the library: a public-API call (layer "op"), one HTTP round trip
// through Config.HTTPTransport ("wire"), and one request through
// netstore.Server.Handler() ("server"). Spans live in memory until the run
// ends; the untraced pass installs none of this.

// spanHeader carries a wire span's id to the server so the handler span can
// name its parent. The library never reads it.
const spanHeader = "X-Bench-Span"

// ioPath is the data-plane endpoint; the server's own request and byte
// counters cover only this path.
const ioPath = "/v1/io"

type span struct {
	ID     int64
	Parent int64 // 0 for op spans
	Layer  string
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	// BytesIn and BytesOut are the request and response body bytes a server
	// span saw; IOs is the block I/O an op span issued; Failed marks a wire
	// attempt that ended in a transport error or a 5xx (what a retry follows).
	BytesIn, BytesOut int64
	IOs               int64
	Failed            bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	epoch time.Time
	next  atomic.Int64
	cur   atomic.Int64 // the open op span: one caller at a time in a traced pass

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// op runs f inside an op span; ios, when non-nil, reads the caller's block
// I/O counter so the span carries the delta. A nil tracer just runs f.
func (t *tracer) op(name string, ios func() int64, f func() error) error {
	if t == nil {
		return f()
	}
	s := span{ID: t.next.Add(1), Layer: "op", Name: name}
	if ios != nil {
		s.IOs = -ios()
	}
	t.cur.Store(s.ID)
	s.Start = time.Since(t.epoch)
	err := f()
	s.End = time.Since(t.epoch)
	t.cur.Store(0)
	if ios != nil {
		s.IOs += ios()
	}
	s.Failed = err != nil
	t.add(s)
	return err
}

// transport wraps base so every request becomes a wire span, closed when the
// response body is drained or closed.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, base: base}
}

type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	s := span{ID: t.next.Add(1), Parent: t.cur.Load(), Layer: "wire", Name: req.URL.Path}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	s.Start = time.Since(t.epoch)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.End, s.Failed = time.Since(t.epoch), true
		t.add(s)
		return nil, err
	}
	s.Failed = resp.StatusCode >= 500
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = time.Since(t.epoch)
		t.add(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// handler wraps a server's handler so every request carrying spanHeader
// becomes a server span with its body byte counts.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		s := span{ID: t.next.Add(1), Parent: parent, Layer: "server", Name: r.URL.Path}
		s.Start = time.Since(t.epoch)
		h.ServeHTTP(cw, r)
		s.End = time.Since(t.epoch)
		s.BytesIn, s.BytesOut = body.n, cw.n
		t.add(s)
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// interval arithmetic: children of one span overlap under the shard and
// replica fan-out, so time is attributed over interval unions, never sums.

type interval struct{ lo, hi time.Duration }

func (s span) interval() interval { return interval{s.Start, s.End} }

// unionLen is the total length covered by the intervals.
func unionLen(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is the parent's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		clipped = append(clipped, interval{max(c.lo, parent.lo), min(c.hi, parent.hi)})
	}
	return parent.hi - parent.lo - unionLen(clipped)
}

// opTrace is one op span with everything it caused, and where its time went.
type opTrace struct {
	span
	wire   []span
	server []span
	// clientSelf + wireSelf + serverBusy account for the op's duration:
	// time no request was in flight, time one was in flight with no handler
	// running, and time a handler was running.
	clientSelf, wireSelf, serverBusy time.Duration
}

// ioWire returns the op's data-plane requests.
func (o opTrace) ioWire() []span { return withName(o.wire, ioPath) }

func withName(ss []span, name string) []span {
	var out []span
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// identityError is how far the three shares are from summing to the op's
// duration, as a share of it. It is zero exactly when every wire span lies
// inside its op and every server span inside some wire span; spans that
// stick out (a handler returning after its client already read the
// response) make it positive.
func (o opTrace) identityError() float64 {
	if o.dur() <= 0 {
		return 0
	}
	sum := o.clientSelf + o.wireSelf + o.serverBusy
	return float64((sum - o.dur()).Abs()) / float64(o.dur())
}

func attribute(op span, wire, server []span) opTrace {
	o := opTrace{span: op, wire: wire, server: server}
	var w, s, both []interval
	for _, x := range wire {
		w = append(w, x.interval())
	}
	for _, x := range server {
		s = append(s, x.interval())
	}
	both = append(append(both, w...), s...)
	o.clientSelf = selfTime(op.interval(), w)
	o.serverBusy = unionLen(s)
	o.wireSelf = unionLen(both) - o.serverBusy
	return o
}

// ops groups the recorded spans by the op that caused them, in start order.
// Wire spans issued outside any op (set-up traffic) are dropped.
func (t *tracer) ops() []opTrace {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	wireOf := map[int64][]span{}   // op id -> wire spans
	serverOf := map[int64][]span{} // wire id -> server spans
	for _, s := range spans {
		switch s.Layer {
		case "wire":
			wireOf[s.Parent] = append(wireOf[s.Parent], s)
		case "server":
			serverOf[s.Parent] = append(serverOf[s.Parent], s)
		}
	}
	var out []opTrace
	for _, s := range spans {
		if s.Layer != "op" {
			continue
		}
		var server []span
		for _, w := range wireOf[s.ID] {
			server = append(server, serverOf[w.ID]...)
		}
		out = append(out, attribute(s, wireOf[s.ID], server))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto,
// chrome://tracing): one row per layer, with each span's id, parent and the
// op id that every span of one request shares.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tid := map[string]int{"op": 1, "wire": 2, "server": 3}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []event
	emit := func(s span, op int64) {
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()),
			Pid: 1, Tid: tid[s.Layer], Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": op}})
	}
	for _, o := range t.ops() {
		emit(o.span, o.ID)
		for _, s := range o.wire {
			emit(s, o.ID)
		}
		for _, s := range o.server {
			emit(s, o.ID)
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
