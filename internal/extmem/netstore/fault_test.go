package netstore

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivext/internal/extmem"
)

// faultAction is what the flaky transport does to one HTTP attempt.
type faultAction int

const (
	pass faultAction = iota
	// refuse fails the attempt without contacting the server (a connection
	// that never got through).
	refuse
	// dropResponse lets the server execute the request, then loses the
	// response on the way back — the nasty case, where a replay reaches a
	// server that already did the work.
	dropResponse
	// serve500 synthesizes a 500 without contacting the server.
	serve500
	// stall sleeps past the client's per-attempt deadline.
	stall
	// abandon fails the attempt without contacting the server but keeps
	// its request body open, as a transport that is still reading a body
	// after RoundTrip returned; the test reads and closes it (held).
	abandon
)

// flakyRT injects faults into the data plane. plan decides per attempt;
// control-plane requests (info/grow/trace) pass through untouched so tests
// can always audit the server.
type flakyRT struct {
	inner http.RoundTripper
	mu    sync.Mutex
	calls int
	plan  func(call int) faultAction
	held  []io.ReadCloser // abandoned attempts' request bodies, in order
}

func (f *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, ioPath) {
		return f.inner.RoundTrip(req)
	}
	f.mu.Lock()
	call := f.calls
	f.calls++
	action := f.plan(call)
	f.mu.Unlock()
	switch action {
	case refuse:
		return nil, errors.New("flaky: connection refused")
	case dropResponse:
		resp, err := f.inner.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, errors.New("flaky: response lost in transit")
	case serve500:
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Status:     "500 Internal Server Error",
			Body:       io.NopCloser(strings.NewReader("flaky: injected server error")),
			Header:     make(http.Header),
			Request:    req,
		}, nil
	case abandon:
		f.mu.Lock()
		f.held = append(f.held, req.Body)
		f.mu.Unlock()
		return nil, errors.New("flaky: attempt abandoned")
	case stall:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("flaky: stall outlived the test")
		}
	default:
		return f.inner.RoundTrip(req)
	}
}

func (f *flakyRT) heldBody(i int) io.ReadCloser {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.held[i]
}

func (f *flakyRT) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// startFlaky spins up a server and dials it through the fault-injecting
// transport.
func startFlaky(t *testing.T, blocks, b int, opts Options, plan func(call int) faultAction) (*Server, *Client, *flakyRT) {
	t.Helper()
	srv := NewServer(extmem.NewMemStore(blocks, b), ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rt := &flakyRT{inner: http.DefaultTransport, plan: plan}
	opts.Transport = rt
	c, err := Dial(ts.URL, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, rt
}

// runWorkload performs a fixed batch sequence — a write, a request with
// both parts (a write of block 1 and a read of blocks 2 and 1, one seeing
// the other) and a read — and returns the data read back, so faulty and
// clean runs can be compared op for op.
func runWorkload(t *testing.T, c *Client) []extmem.Element {
	t.Helper()
	b := c.BlockSize()
	src := make([]extmem.Element, 3*b)
	for i := range src {
		src[i] = extmem.Element{Key: uint64(i), Val: uint64(i * i), Flags: extmem.FlagOccupied}
	}
	if err := extmem.WriteBlocksCtx(bg, c, []int{0, 2, 5}, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]extmem.Element, 6*b)
	if err := c.Transfer(bg, []int{1}, src[:b], []int{2, 1}, dst[:2*b]); err != nil {
		t.Fatal(err)
	}
	if err := extmem.ReadBlocksCtx(bg, c, []int{5, 1, 0, 2}, dst[2*b:]); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestFaultRetriesReturnCorrectData drives every failure mode the transport
// can produce — refused connections, lost responses, injected 500s, stalls
// past the deadline — failing the first attempt of every request, and checks
// the replays return exactly what a clean run returns.
func TestFaultRetriesReturnCorrectData(t *testing.T) {
	modes := []struct {
		name   string
		action faultAction
		opts   Options
	}{
		{"refuse", refuse, Options{Backoff: time.Millisecond}},
		{"drop-response", dropResponse, Options{Backoff: time.Millisecond}},
		{"server-500", serve500, Options{Backoff: time.Millisecond}},
		{"stall-timeout", stall, Options{Backoff: time.Millisecond, Timeout: 50 * time.Millisecond}},
	}
	_, clean, _ := startFlaky(t, 8, 4, Options{}, func(int) faultAction { return pass })
	want := runWorkload(t, clean)

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			attempt := 0
			_, c, _ := startFlaky(t, 8, 4, m.opts, func(call int) faultAction {
				attempt++
				if attempt%2 == 1 { // first attempt of each logical request fails
					return m.action
				}
				return pass
			})
			got := runWorkload(t, c)
			if !equalElems(got, want) {
				t.Fatalf("data corrupted under %s faults", m.name)
			}
			st := c.NetStats()
			if st.Retries == 0 {
				t.Fatal("no retries recorded despite injected faults")
			}
			if st.Requests != 3 { // logical interactions unchanged by retries
				t.Fatalf("%d logical requests, want 3", st.Requests)
			}
		})
	}
}

// TestFaultTraceUnchanged is the obliviousness angle of fault tolerance: the
// server-side journal after a faulty run — including responses lost *after*
// the server executed the request — is bit-identical to a clean run's.
// Replays carry the request id of the original, so the journal suppresses
// them instead of recording phantom accesses.
func TestFaultTraceUnchanged(t *testing.T) {
	cleanSrv, clean, _ := startFlaky(t, 8, 4, Options{}, func(int) faultAction { return pass })
	runWorkload(t, clean)
	want := cleanSrv.TraceSummary()

	// Drop the response of every first attempt: the server executes each
	// request twice, but must journal it once.
	attempt := 0
	faultySrv, faulty, _ := startFlaky(t, 8, 4, Options{Backoff: time.Millisecond}, func(int) faultAction {
		attempt++
		if attempt%2 == 1 {
			return dropResponse
		}
		return pass
	})
	runWorkload(t, faulty)
	got := faultySrv.TraceSummary()
	if !got.Equal(want) {
		t.Fatalf("journal changed under replay: %v, want %v", got, want)
	}
	st, err := faulty.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replays != 3 { // all three data requests were executed twice
		t.Fatalf("server saw %d replays, want 3", st.Replays)
	}
	if st.Requests != 6 {
		t.Fatalf("server executed %d requests, want 6", st.Requests)
	}
}

// TestFaultRetryBudget pins the budget: MaxAttempts attempts on the wire,
// then a hard error naming the cause.
func TestFaultRetryBudget(t *testing.T) {
	_, c, rt := startFlaky(t, 8, 4, Options{MaxAttempts: 3, Backoff: time.Millisecond},
		func(int) faultAction { return serve500 })
	err := extmem.ReadBlocksCtx(bg, c, []int{0}, make([]extmem.Element, 4))
	if err == nil {
		t.Fatal("exhausted retries did not error")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error does not name budget and cause: %v", err)
	}
	if rt.callCount() != 3 {
		t.Fatalf("%d attempts on the wire, budget was 3", rt.callCount())
	}
	st := c.NetStats()
	if st.Requests != 0 {
		t.Fatalf("failed interaction counted as completed: %+v", st)
	}
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("attempt accounting %+v, want Attempts=3 Retries=2", st)
	}
}

// TestFaultPermanentErrorNoRetry: 4xx means the request itself is wrong;
// replaying it would waste the budget on a lost cause.
func TestFaultPermanentErrorNoRetry(t *testing.T) {
	_, c, rt := startFlaky(t, 8, 4, Options{Backoff: time.Millisecond},
		func(int) faultAction { return pass })
	if err := extmem.ReadBlocksCtx(bg, c, []int{999}, make([]extmem.Element, 4)); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if rt.callCount() != 1 {
		t.Fatalf("permanent error retried: %d attempts", rt.callCount())
	}
}
