package netstore

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"oblivext/internal/extmem"
)

// fakeClock replaces Client.sleep to capture backoff delays instead of
// waiting them out, so the jitter policy is pinned exactly, deterministically,
// and instantly.
type fakeClock struct {
	delays []time.Duration
	onWait func(d time.Duration) error // nil = record and return
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	if f.onWait != nil {
		return f.onWait(d)
	}
	return ctx.Err()
}

// seqJitter replaces Client.jitter with a scripted sequence of draws.
func seqJitter(vals ...float64) func() float64 {
	i := 0
	return func() float64 {
		v := vals[i%len(vals)]
		i++
		return v
	}
}

// TestBackoffFullJitter pins the retry-delay policy with a fake clock: the
// delay before retry r is jitter·min(Backoff·2^(r-1), 1s) + 1ns — uniform
// over the exponentially-doubling cap, never zero, never lockstep. Three
// scripted jitter draws must surface as exactly three scripted delays.
func TestBackoffFullJitter(t *testing.T) {
	_, c, _ := startFlaky(t, 8, 4, Options{Backoff: 10 * time.Millisecond, MaxAttempts: 4},
		func(call int) faultAction {
			if call < 3 {
				return refuse
			}
			return pass
		})
	clock := &fakeClock{}
	c.sleep = clock.sleep
	c.jitter = seqJitter(0.5, 0.3, 0.99)

	buf := make([]extmem.Element, c.BlockSize())
	if err := extmem.WriteBlocksCtx(bg, c, []int{0}, buf); err != nil {
		t.Fatalf("write after retries: %v", err)
	}
	want := []time.Duration{
		time.Duration(0.5*float64(10*time.Millisecond)) + 1,  // cap 10ms
		time.Duration(0.3*float64(20*time.Millisecond)) + 1,  // cap 20ms
		time.Duration(0.99*float64(40*time.Millisecond)) + 1, // cap 40ms
	}
	if len(clock.delays) != len(want) {
		t.Fatalf("got %d backoff waits %v, want %d", len(clock.delays), clock.delays, len(want))
	}
	for i := range want {
		if clock.delays[i] != want[i] {
			t.Errorf("retry %d waited %v, want %v", i+1, clock.delays[i], want[i])
		}
	}
	// The jittered delays must not collapse into lockstep: every draw
	// produced a distinct wait even though the fault was identical.
	if clock.delays[0] == clock.delays[1] || clock.delays[1] == clock.delays[2] {
		t.Errorf("jitter produced lockstep delays: %v", clock.delays)
	}
}

// TestRetryDelayBounds pins the policy's edges directly: saturation at the
// 1s cap for large attempt counts, strict positivity at jitter 0, and the
// Retry-After hint overriding (and being capped) when present.
func TestRetryDelayBounds(t *testing.T) {
	c := &Client{backoff: 10 * time.Millisecond}
	c.jitter = func() float64 { return 1.0 }
	if d := c.retryDelay(30, 0); d != maxBackoff+1 {
		t.Errorf("attempt 30: %v, want saturation at %v", d, maxBackoff+1)
	}
	c.jitter = func() float64 { return 0 }
	for attempt := 1; attempt <= 5; attempt++ {
		if d := c.retryDelay(attempt, 0); d <= 0 {
			t.Errorf("attempt %d: non-positive delay %v", attempt, d)
		}
	}
	if d := c.retryDelay(1, 3*time.Second); d != 3*time.Second {
		t.Errorf("hint 3s: %v, want the hint verbatim", d)
	}
	if d := c.retryDelay(1, time.Minute); d != maxRetryAfter {
		t.Errorf("hint 1m: %v, want cap %v", d, maxRetryAfter)
	}
}

// TestDrainRetryAfter drives the two-phase graceful-restart contract: while
// the server drains, data-plane requests bounce with 503 plus Retry-After,
// and the client waits the server's hint (not its own jittered guess) before
// replaying; once the drain ends the replay lands, the result is correct,
// and the journal holds the access exactly once. The restart was absorbed by
// the retry path — no failover, no error surfaced to the caller.
func TestDrainRetryAfter(t *testing.T) {
	srv, c, _ := startFlaky(t, 8, 4, Options{MaxAttempts: 4}, func(int) faultAction { return pass })
	const drainFor = 1200 * time.Millisecond
	srv.BeginDrain(drainFor)
	if !srv.Draining() {
		t.Fatal("server should report draining")
	}
	clock := &fakeClock{onWait: func(time.Duration) error {
		srv.EndDrain() // the "restart" completes while the client waits
		return nil
	}}
	c.sleep = clock.sleep
	c.jitter = seqJitter(0.5)

	src := make([]extmem.Element, c.BlockSize())
	src[0] = extmem.Element{Key: 7, Flags: extmem.FlagOccupied}
	if err := extmem.WriteBlocksCtx(bg, c, []int{3}, src); err != nil {
		t.Fatalf("write through drain: %v", err)
	}
	if len(clock.delays) != 1 || clock.delays[0] != drainFor {
		t.Fatalf("client waited %v, want exactly the server's Retry-After hint [%v]", clock.delays, drainFor)
	}
	if st := c.NetStats(); st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
	sum := srv.TraceSummary()
	if sum.Len != 1 {
		t.Errorf("journal holds %d accesses, want 1 (the refused attempt must not be journaled)", sum.Len)
	}
	dst := make([]extmem.Element, c.BlockSize())
	if err := extmem.ReadBlocksCtx(bg, c, []int{3}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 7 {
		t.Errorf("read back key %d, want 7", dst[0].Key)
	}
}

// TestReadyzTwoPhases distinguishes readiness from liveness across a drain:
// /healthz stays 200 throughout (the process is up), while /readyz flips to
// 503 with both Retry-After headers during the drain and recovers after.
func TestReadyzTwoPhases(t *testing.T) {
	srv, c, _ := startFlaky(t, 8, 4, Options{}, func(int) faultAction { return pass })
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(c.base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(readyzPath); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %s, want 200", resp.Status)
	}
	srv.BeginDrain(2 * time.Second)
	if resp := get(healthzPath); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain: %s, want 200 (liveness is not readiness)", resp.Status)
	}
	resp := get(readyzPath)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if ms := resp.Header.Get(retryAfterMSHeader); ms != "2000" {
		t.Errorf("%s = %q, want \"2000\"", retryAfterMSHeader, ms)
	}
	srv.EndDrain()
	if resp := get(readyzPath); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after drain: %s, want 200", resp.Status)
	}
}

// failingWriter fails every journal write after the first n.
type failingWriter struct {
	okLeft int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.okLeft > 0 {
		w.okLeft--
		return len(p), nil
	}
	return 0, io.ErrClosedPipe
}

// TestReadyzJournalFailureLatches pins that a journal write failure makes
// the server permanently not-ready: it can still serve liveness, but an
// unauditable server must stop reporting ready even though its store works.
func TestReadyzJournalFailureLatches(t *testing.T) {
	srv := NewServer(extmem.NewMemStore(8, 4), ServerOptions{Journal: &failingWriter{okLeft: 1}})
	h := srv.Handler()
	do := func(path string) int {
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		rec := newRecorder()
		h.ServeHTTP(rec, req)
		return rec.code
	}
	if code := do(readyzPath); code != http.StatusOK {
		t.Fatalf("/readyz fresh: %d, want 200", code)
	}
	// First write journals fine, second one's journal write fails.
	buf := make([]extmem.Element, 4)
	if err := writeVia(h, 0, buf); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := writeVia(h, 1, buf); err == nil {
		t.Fatal("second write should fail: its journal write failed")
	}
	if code := do(readyzPath); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after journal failure: %d, want 503 (latched)", code)
	}
	if code := do(healthzPath); code != http.StatusOK {
		t.Errorf("/healthz after journal failure: %d, want 200", code)
	}
}

// writeVia performs one write batch directly against a handler.
func writeVia(h http.Handler, addr int, src []extmem.Element) error {
	body, payload := encodeRequest(nil, uint64(1000+addr), "", []int{addr}, nil, len(src)*extmem.ElementBytes)
	extmem.EncodeElements(payload, src)
	req, _ := http.NewRequest(http.MethodPost, ioPath, strings.NewReader(string(body)))
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// recorder is a minimal ResponseWriter for driving handlers in-process.
type recorder struct {
	code   int
	header http.Header
}

func newRecorder() *recorder                    { return &recorder{code: http.StatusOK, header: make(http.Header)} }
func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return len(p), nil }

// TestCtxCancelStopsRetrying pins the context propagation path: a canceled
// context abandons the retry loop mid-backoff instead of burning the full
// attempt budget against a target that no longer matters (the sharded
// fan-out cancels doomed siblings through exactly this).
func TestCtxCancelStopsRetrying(t *testing.T) {
	_, c, rt := startFlaky(t, 8, 4, Options{MaxAttempts: 10}, func(int) faultAction { return refuse })
	ctx, cancel := context.WithCancel(context.Background())
	clock := &fakeClock{onWait: func(time.Duration) error {
		cancel() // the sibling failed while we were backing off
		return ctx.Err()
	}}
	c.sleep = clock.sleep
	c.jitter = seqJitter(0.5)

	buf := make([]extmem.Element, c.BlockSize())
	err := extmem.ReadBlocksCtx(ctx, c, []int{0}, buf)
	if err == nil {
		t.Fatal("read should fail once its context is canceled")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error %q should name the cancellation", err)
	}
	if n := rt.callCount(); n != 1 {
		t.Errorf("made %d attempts, want 1 — cancellation must stop the retry loop", n)
	}
}
