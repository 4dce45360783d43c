package netstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// bg is the context the tests drive stores under when cancellation is not
// the subject.
var bg = context.Background()

// start spins up an in-process obstore over a MemStore and dials it.
func start(t *testing.T, blocks, b int, opts ServerOptions) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := NewServer(extmem.NewMemStore(blocks, b), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL, Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, ts, c
}

func blockOf(b int, v uint64) []extmem.Element {
	out := make([]extmem.Element, b)
	for i := range out {
		out[i] = extmem.Element{Key: v, Val: uint64(i), Pos: v ^ uint64(i), Flags: extmem.FlagOccupied}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	const b = 4
	_, _, c := start(t, 16, b, ServerOptions{})
	if c.NumBlocks() != 16 || c.BlockSize() != b {
		t.Fatalf("geometry %d/%d", c.NumBlocks(), c.BlockSize())
	}

	// A batch of one.
	if err := extmem.WriteBlocksCtx(bg, c, []int{3}, blockOf(b, 42)); err != nil {
		t.Fatal(err)
	}
	got := make([]extmem.Element, b)
	if err := extmem.ReadBlocksCtx(bg, c, []int{3}, got); err != nil {
		t.Fatal(err)
	}
	if want := blockOf(b, 42); !equalElems(got, want) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}

	// Vectored, non-contiguous, with a duplicate address (later write wins).
	addrs := []int{7, 1, 7, 10}
	src := make([]extmem.Element, 0, len(addrs)*b)
	for i := range addrs {
		src = append(src, blockOf(b, uint64(100+i))...)
	}
	if err := extmem.WriteBlocksCtx(bg, c, addrs, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]extmem.Element, len(addrs)*b)
	if err := extmem.ReadBlocksCtx(bg, c, addrs, dst); err != nil {
		t.Fatal(err)
	}
	if !equalElems(dst[0*b:1*b], blockOf(b, 102)) { // block 7: the later slice won
		t.Fatalf("duplicate-address write: got %+v", dst[0*b:1*b])
	}
	if !equalElems(dst[1*b:2*b], blockOf(b, 101)) || !equalElems(dst[3*b:4*b], blockOf(b, 103)) {
		t.Fatal("vectored read returned wrong blocks")
	}

	// An unwritten block reads back zeroed.
	if err := extmem.ReadBlocksCtx(bg, c, []int{0}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, make([]extmem.Element, b)) {
		t.Fatalf("unwritten block not zero: %+v", got)
	}
}

func TestGrow(t *testing.T) {
	_, _, c := start(t, 4, 4, ServerOptions{})
	if err := c.GrowTo(32); err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d after grow", c.NumBlocks())
	}
	if err := extmem.WriteBlocksCtx(bg, c, []int{31}, blockOf(4, 9)); err != nil {
		t.Fatalf("write to grown region: %v", err)
	}
	// Shrinking is a no-op, not an error.
	if err := c.GrowTo(8); err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 32 {
		t.Fatalf("GrowTo shrank the store to %d", c.NumBlocks())
	}
}

func TestErrors(t *testing.T) {
	_, ts, c := start(t, 8, 4, ServerOptions{})

	dst := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, c, []int{99}, dst); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := extmem.ReadBlocksCtx(bg, c, []int{0}, make([]extmem.Element, 3)); err == nil {
		t.Fatal("bad buffer length accepted")
	}

	// A malformed body is rejected with a 4xx the client does not retry.
	resp, err := http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader([]byte("garbage-request")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed request: status %d", resp.StatusCode)
	}

	// Block-size mismatch at dial time is refused by the caller's check;
	// here the protocol-level mismatch: a write framed for the wrong B.
	body, _ := encodeRequest(nil, 1, "", []int{0}, nil, 8) // payload too short for B=4
	resp, err = http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misframed write: status %d", resp.StatusCode)
	}
}

func TestJournalAndTraceEndpoint(t *testing.T) {
	var journal bytes.Buffer
	srv, ts, c := start(t, 8, 2, ServerOptions{TraceKeep: 16, Journal: &journal})

	if err := extmem.WriteBlocksCtx(bg, c, []int{2, 5}, make([]extmem.Element, 4)); err != nil {
		t.Fatal(err)
	}
	if err := extmem.ReadBlocksCtx(bg, c, []int{2}, make([]extmem.Element, 2)); err != nil {
		t.Fatal(err)
	}

	// The journal file holds the per-block sequence in execution order.
	if got, want := journal.String(), "W 2\nW 5\nR 2\n"; got != want {
		t.Fatalf("journal %q, want %q", got, want)
	}
	// The in-memory recorder agrees with an independently built one.
	ref := trace.NewRecorder(16)
	ref.Record(trace.Write, 2)
	ref.Record(trace.Write, 5)
	ref.Record(trace.Read, 2)
	if got, want := srv.TraceSummary(), ref.Summarize(); !got.Equal(want) {
		t.Fatalf("server trace %v, want %v", got, want)
	}

	// The HTTP trace endpoint serves the same fingerprint.
	st, err := c.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Two requests (one write batch, one read) carried the three accesses.
	if st.Len != 3 || st.Hash != ref.Hash() || st.Requests != 2 || st.Replays != 0 {
		t.Fatalf("endpoint trace %+v, want len=3 requests=2 hash=%016x", st, ref.Hash())
	}

	// Reset clears the fingerprint; subsequent ops journal afresh.
	if err := c.ResetServerTrace(); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.FetchServerTrace(); st.Len != 0 {
		t.Fatalf("trace length %d after reset", st.Len)
	}

	// Raw JSON shape: hash is a hex string (uint64s don't survive JSON
	// numbers), so auditors in any language can parse it.
	resp, err := http.Get(ts.URL + tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	if _, ok := tj["hash"].(string); !ok {
		t.Fatalf("trace hash not a string: %v", tj["hash"])
	}
}

func TestDiskIntegration(t *testing.T) {
	// The client drops under the instrumented Disk unchanged: vectored
	// calls become one request each, and the server's journal equals the
	// Disk's recorded logical trace.
	srv, _, c := start(t, 64, 4, ServerOptions{})
	d := extmem.NewDisk(c)
	rec := trace.NewRecorder(0)
	d.SetRecorder(rec)

	a := d.Alloc(8)
	buf := make([]extmem.Element, 4*4)
	a.WriteRange(0, 4, buf)
	a.ReadRange(2, 6, buf)
	a.ReadMany([]int{7, 0, 3}, buf[:3*4])

	if got, want := srv.TraceSummary(), rec.Summarize(); !got.Equal(want) {
		t.Fatalf("server journal %v != client logical trace %v", got, want)
	}
	st := c.NetStats()
	if st.Requests != 3 { // one request per vectored Disk call
		t.Fatalf("%d requests for 3 vectored calls", st.Requests)
	}
	if ds := d.Stats(); ds.RoundTrips != st.Requests {
		t.Fatalf("Disk round trips %d != wire requests %d", ds.RoundTrips, st.Requests)
	}
	if st.BlocksMoved != 11 || st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Total <= 0 || st.Min <= 0 || st.Max < st.Min {
		t.Fatalf("measured times not populated: %+v", st)
	}
}

func TestReplayedWriteDoesNotClobberNewerData(t *testing.T) {
	// A write duplicate the client abandoned (timeout) can arrive late —
	// possibly after a NEWER write to the same block. The server must
	// acknowledge it from the dedup window without re-applying the stale
	// payload.
	srv, ts, c := start(t, 4, 2, ServerOptions{})
	mkWrite := func(seq uint64, blk []extmem.Element) []byte {
		body, payload := encodeRequest(nil, seq, "", []int{0}, nil, 2*extmem.ElementBytes)
		extmem.EncodeElements(payload, blk)
		return body
	}
	post := func(body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	old, newer := blockOf(2, 1), blockOf(2, 2)
	stale := mkWrite(100, old)
	post(stale)               // original delivery of the old write
	post(mkWrite(101, newer)) // a newer write to the same block
	post(stale)               // the old write's late duplicate
	got := make([]extmem.Element, 2)
	if err := extmem.ReadBlocksCtx(bg, c, []int{0}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, newer) {
		t.Fatalf("stale replay rolled back newer data: %+v", got)
	}
	st, err := c.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Journal: the two distinct writes plus our read; the replay was
	// acknowledged but neither journaled nor re-executed.
	if st.Len != 3 || st.Replays != 1 {
		t.Fatalf("trace %+v, want len=3 replays=1", st)
	}
	if got := srv.TraceSummary(); got.Len != 3 {
		t.Fatalf("journal holds %d accesses, want 3", got.Len)
	}
}

// TestReplayedTransferRereadsWithoutRewriting: a request with both parts
// whose response was lost is replayed. The server re-runs its read part —
// which sees a newer write made in between — does not apply its write part
// again, journals the pair once, W before R, and counts both parts of
// every request it served in /metrics.
func TestReplayedTransferRereadsWithoutRewriting(t *testing.T) {
	var journal strings.Builder
	srv, ts, c := start(t, 4, 2, ServerOptions{Journal: &journal})
	post := func(body []byte) []extmem.Element {
		t.Helper()
		resp, err := http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		out := make([]extmem.Element, len(raw)/extmem.ElementBytes)
		extmem.DecodeElements(out, raw)
		return out
	}
	old, newer, other := blockOf(2, 1), blockOf(2, 2), blockOf(2, 3)
	if err := extmem.WriteBlocksCtx(bg, c, []int{3}, other); err != nil {
		t.Fatal(err)
	}
	journal.Reset()
	srv.ResetTrace()
	pair, payload := encodeRequest(nil, 200, "", []int{0}, []int{0, 3}, 2*extmem.ElementBytes)
	extmem.EncodeElements(payload, old)
	write, payload := encodeRequest(nil, 201, "", []int{0}, nil, 2*extmem.ElementBytes)
	extmem.EncodeElements(payload, newer)
	if got := post(pair); !equalElems(got, append(slices.Clone(old), other...)) {
		t.Fatalf("the pair read %+v, want its own write, then block 3", got)
	}
	post(write)
	if got := post(pair); !equalElems(got, append(slices.Clone(newer), other...)) {
		t.Fatalf("the pair's replay read %+v: it re-applied its write, or did not re-read", got)
	}
	got := make([]extmem.Element, 2)
	if err := extmem.ReadBlocksCtx(bg, c, []int{0}, got); err != nil || !equalElems(got, newer) {
		t.Fatalf("block 0 holds %+v (%v) after the replay, want the newer write", got, err)
	}
	if want := "W 0\nR 0\nR 3\nW 0\nR 0\n"; journal.String() != want {
		t.Fatalf("journal %q, want %q: the pair once, the newer write, our read", journal.String(), want)
	}
	m := srv.MetricsSnapshot()
	if m.Replays != 1 || m.WriteBlocks != 4 || m.ReadBlocks != 5 {
		t.Fatalf("metrics count %d replays, %d blocks written and %d read; want 1, 4 (the replay's write part included) and 5",
			m.Replays, m.WriteBlocks, m.ReadBlocks)
	}
}

func TestTwoClientsJournalIndependently(t *testing.T) {
	// Successive (or concurrent) client processes against one long-lived
	// server must not collide in the replay-suppression window: request ids
	// start at a per-client random nonce, so a second client's traffic is
	// journaled in full rather than suppressed as "replays" of the first's.
	srv, ts, c1 := start(t, 8, 2, ServerOptions{})
	blk := make([]extmem.Element, 2)
	for i := 0; i < 5; i++ {
		if err := extmem.WriteBlocksCtx(bg, c1, []int{i}, blk); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := Dial(ts.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 5; i++ {
		if err := extmem.ReadBlocksCtx(bg, c2, []int{i}, blk); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c2.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != 10 || st.Replays != 0 {
		t.Fatalf("second client's accesses suppressed: %+v, want len=10 replays=0", st)
	}
	if got := srv.TraceSummary(); got.Len != 10 {
		t.Fatalf("journal holds %d accesses, want 10", got.Len)
	}
}

func TestDialRejectsBadServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"numBlocks":-1,"blockSize":0}`)
	}))
	defer ts.Close()
	if _, err := Dial(ts.URL, Options{}); err == nil {
		t.Fatal("dial accepted bad geometry")
	}
}

func equalElems(a, b []extmem.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransportTuning pins the connection-pool contract: NewTransport
// raises the per-host idle pool to the requested fan-out width (never below
// the default), keeps keep-alives enabled, and a default-dialed client
// actually reuses connections — a steady stream of requests to one server
// must not open one connection per request.
func TestTransportTuning(t *testing.T) {
	tr := NewTransport(16)
	if tr.MaxIdleConnsPerHost != 16 {
		t.Fatalf("MaxIdleConnsPerHost = %d, want 16", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < 64 {
		t.Fatalf("MaxIdleConns = %d, want >= 4x per-host", tr.MaxIdleConns)
	}
	if tr.DisableKeepAlives {
		t.Fatal("keep-alives disabled")
	}
	if low := NewTransport(1); low.MaxIdleConnsPerHost < 4 {
		t.Fatalf("per-host pool %d below the default floor", low.MaxIdleConnsPerHost)
	}
	// The benchmark's largest frame — a cache-wide batch of M/B = 4096/8
	// sealed blocks, under the longest namespace, with room for the HTTP
	// headers — leaves in one flush of the write buffer.
	const blocks, sealedB = 4096 / 8, 8 + extmem.CryptOverheadElements
	if frame := headerLen + MaxNamespaceLen + blocks*(8+sealedB*extmem.ElementBytes) + 1<<10; tr.WriteBufferSize < frame {
		t.Fatalf("WriteBufferSize = %d, below the benchmark's largest request (%d bytes)", tr.WriteBufferSize, frame)
	}

	srv := NewServer(extmem.NewMemStore(64, 4), ServerOptions{})
	ts := httptest.NewUnstartedServer(srv.Handler())
	var mu sync.Mutex
	conns := map[string]bool{}
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns[c.RemoteAddr().String()] = true
			mu.Unlock()
		}
	}
	ts.Start()
	defer ts.Close()
	c, err := Dial(ts.URL, Options{MaxIdleConnsPerHost: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]extmem.Element, 4)
	for i := 0; i < 50; i++ {
		if err := extmem.WriteBlocksCtx(bg, c, []int{i % 64}, buf); err != nil {
			t.Fatal(err)
		}
		if err := extmem.ReadBlocksCtx(bg, c, []int{i % 64}, buf); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// One warm connection serves the serial drumbeat; allow slack for the
	// dial-time control request, but 100 sequential requests must not cost
	// anywhere near 100 dials.
	if len(conns) > 4 {
		t.Fatalf("%d connections opened for 100 sequential requests — keep-alive reuse is broken", len(conns))
	}
}

// TestBearerAuth pins the token gate: with ServerOptions.AuthToken set,
// every endpoint — data plane, control plane, and the trace/journal
// surface — requires the matching bearer token; the wrong or missing token
// is a permanent 401 (no retries burned), and an authorized client works
// end to end.
func TestBearerAuth(t *testing.T) {
	const b, token = 4, "unit-test-token"
	srv := NewServer(extmem.NewMemStore(16, b), ServerOptions{AuthToken: token})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// No token: dial (control plane) is rejected without retries.
	if _, err := Dial(ts.URL, Options{MaxAttempts: 1}); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless dial: %v", err)
	}
	// Wrong token: same.
	if _, err := Dial(ts.URL, Options{MaxAttempts: 1, AuthToken: "nope"}); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong-token dial: %v", err)
	}
	// Right token: the full surface works.
	c, err := Dial(ts.URL, Options{AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	in := blockOf(b, 9)
	if err := extmem.WriteBlocksCtx(bg, c, []int{3}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]extmem.Element, b)
	if err := extmem.ReadBlocksCtx(bg, c, []int{3}, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("authorized round trip mismatch at %d", i)
		}
	}
	if err := c.GrowTo(32); err != nil {
		t.Fatalf("authorized grow: %v", err)
	}
	st, err := c.FetchServerTrace()
	if err != nil || st.Len == 0 {
		t.Fatalf("authorized trace fetch: %v, %+v", err, st)
	}
	// An unauthorized caller cannot even read the journal fingerprint.
	resp, err := ts.Client().Get(ts.URL + tracePath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless trace fetch: %v", resp.Status)
	}
}
