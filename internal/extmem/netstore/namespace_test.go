package netstore

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oblivext/internal/extmem"
)

// startNS spins up a multi-tenant in-process obstore: the default tenant on
// a MemStore, further namespaces from a MemStore factory, and one journal
// buffer per namespace (returned map, keyed by name; the default tenant's
// is under "").
func startNS(t *testing.T, blocks, b int) (*Server, *httptest.Server, map[string]*bytes.Buffer) {
	t.Helper()
	journals := map[string]*bytes.Buffer{"": {}}
	var mu sync.Mutex
	srv := NewServer(extmem.NewMemStore(blocks, b), ServerOptions{
		TraceKeep: 64,
		Journal:   journals[""],
		StoreFactory: func(ns string) (extmem.BlockStore, error) {
			return extmem.NewMemStore(blocks, b), nil
		},
		JournalFactory: func(ns string) (io.Writer, error) {
			mu.Lock()
			defer mu.Unlock()
			buf := &bytes.Buffer{}
			journals[ns] = buf
			return buf, nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts, journals
}

func dialNS(t *testing.T, url, ns string) *Client {
	t.Helper()
	c, err := Dial(url, Options{Namespace: ns})
	if err != nil {
		t.Fatalf("dial ns %q: %v", ns, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNamespaceIsolation(t *testing.T) {
	srv, ts, journals := startNS(t, 16, 4)
	ca := dialNS(t, ts.URL, "alice")
	cb := dialNS(t, ts.URL, "bob")
	cd := dialNS(t, ts.URL, "") // default tenant

	// Each namespace is its own address space: a write in one is invisible
	// in the others.
	if err := extmem.WriteBlocksCtx(bg, ca, []int{3}, blockOf(4, 7)); err != nil {
		t.Fatal(err)
	}
	got := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, cb, []int{3}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, make([]extmem.Element, 4)) {
		t.Fatalf("bob sees alice's block: %+v", got)
	}
	if err := extmem.ReadBlocksCtx(bg, cd, []int{3}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, make([]extmem.Element, 4)) {
		t.Fatalf("default tenant sees alice's block: %+v", got)
	}
	if err := extmem.ReadBlocksCtx(bg, ca, []int{3}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, blockOf(4, 7)) {
		t.Fatalf("alice lost her own block: %+v", got)
	}

	// Per-namespace journals: alice's journal holds exactly alice's
	// accesses, bob's exactly bob's, and the default tenant saw only its
	// own read.
	if got, want := journals["alice"].String(), "W 3\nR 3\n"; got != want {
		t.Fatalf("alice journal %q, want %q", got, want)
	}
	if got, want := journals["bob"].String(), "R 3\n"; got != want {
		t.Fatalf("bob journal %q, want %q", got, want)
	}
	if got, want := journals[""].String(), "R 3\n"; got != want {
		t.Fatalf("default journal %q, want %q", got, want)
	}

	// Per-namespace trace fingerprints over the wire.
	sta, err := ca.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	stb, err := cb.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	if sta.Len != 2 || stb.Len != 1 {
		t.Fatalf("trace lens alice=%d bob=%d, want 2/1", sta.Len, stb.Len)
	}
	if srv.TraceSummaryNS("alice").Len != 2 || srv.TraceSummaryNS("bob").Len != 1 || srv.TraceSummary().Len != 1 {
		t.Fatal("in-process per-namespace summaries disagree with the endpoint")
	}

	// Resetting one namespace's trace leaves the others' standing.
	if err := ca.ResetServerTrace(); err != nil {
		t.Fatal(err)
	}
	if srv.TraceSummaryNS("alice").Len != 0 || srv.TraceSummaryNS("bob").Len != 1 {
		t.Fatal("trace reset leaked across namespaces")
	}

	// The tenant listing names all three, default included.
	resp, err := http.Get(ts.URL + namespacesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nsj namespacesJSON
	if err := json.NewDecoder(resp.Body).Decode(&nsj); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range nsj.Namespaces {
		names[row.Name] = true
	}
	if !names[""] || !names["alice"] || !names["bob"] || len(nsj.Namespaces) != 3 {
		t.Fatalf("namespace listing %+v", nsj.Namespaces)
	}
}

func TestNamespaceReplayWindowScoped(t *testing.T) {
	// The replay key is (namespace, seq): the same request id arriving in
	// two namespaces is two distinct requests — both executed, both
	// journaled — while a true retransmission within one namespace is
	// suppressed. Without the scoping, concurrent sessions whose random id
	// streams collide would silently drop each other's journal entries.
	_, ts, journals := startNS(t, 8, 2)
	post := func(ns string, seq uint64) (replay bool) {
		t.Helper()
		body, payload := encodeRequest(nil, seq, ns, []int{1}, nil, 2*extmem.ElementBytes)
		extmem.EncodeElements(payload, blockOf(2, seq))
		resp, err := http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get(replayHeader) == "1"
	}
	if post("alice", 42) {
		t.Fatal("first delivery flagged as replay")
	}
	if post("bob", 42) {
		t.Fatal("same id in a different namespace suppressed as a replay")
	}
	if !post("alice", 42) {
		t.Fatal("true retransmission not recognized within its namespace")
	}
	if a, b := journals["alice"].String(), journals["bob"].String(); a != "W 1\n" || b != "W 1\n" {
		t.Fatalf("journals alice=%q bob=%q, want one entry each", a, b)
	}
}

func TestNamespaceGrowScoped(t *testing.T) {
	_, ts, _ := startNS(t, 4, 4)
	ca := dialNS(t, ts.URL, "alice")
	cb := dialNS(t, ts.URL, "bob")
	if err := ca.GrowTo(32); err != nil {
		t.Fatal(err)
	}
	if ca.NumBlocks() != 32 {
		t.Fatalf("alice NumBlocks = %d after grow", ca.NumBlocks())
	}
	// Bob's geometry is untouched — on his tenant, block 31 is still out of
	// range.
	if err := extmem.ReadBlocksCtx(bg, cb, []int{31}, make([]extmem.Element, 4)); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("grow leaked into bob's namespace: %v", err)
	}
	if err := extmem.WriteBlocksCtx(bg, ca, []int{31}, blockOf(4, 1)); err != nil {
		t.Fatalf("alice's grown region unusable: %v", err)
	}
}

func TestNamespaceRejection(t *testing.T) {
	// Client-side: an invalid namespace never reaches the wire.
	if _, err := Dial("http://127.0.0.1:1", Options{Namespace: "no/slashes"}); err == nil || !strings.Contains(err.Error(), "invalid namespace") {
		t.Fatalf("bad namespace accepted by Dial: %v", err)
	}

	// A single-tenant server (no factory) rejects unknown namespaces with a
	// permanent 404 — no retry burn, no silent tenant creation.
	_, ts, c := start(t, 8, 4, ServerOptions{})
	cn, err := Dial(ts.URL+"", Options{Namespace: "ghost"})
	if err == nil {
		cn.Close()
		t.Fatal("dial into a namespace of a single-tenant server succeeded")
	}
	if !strings.Contains(err.Error(), "single-tenant") {
		t.Fatalf("unexpected error: %v", err)
	}
	_ = c

	// A malformed frame (bad namespace bytes) is a 400.
	body, _ := encodeRequest(nil, 1, "ok", nil, []int{0}, 0)
	body[nsLenOff+1], body[nsLenOff+2] = '/', '/' // corrupt the namespace in place
	resp, err := http.Post(ts.URL+ioPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt namespace: status %d", resp.StatusCode)
	}

	// The tenant cap: a multi-tenant server refuses namespaces beyond
	// MaxNamespaces with a permanent 400.
	srv := NewServer(extmem.NewMemStore(8, 4), ServerOptions{
		MaxNamespaces: 2, // the default tenant occupies one slot
		StoreFactory: func(ns string) (extmem.BlockStore, error) {
			return extmem.NewMemStore(8, 4), nil
		},
	})
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	defer srv.Close()
	if _, err := Dial(ts2.URL, Options{Namespace: "first"}); err != nil {
		t.Fatalf("first namespace rejected: %v", err)
	}
	if _, err := Dial(ts2.URL, Options{Namespace: "second"}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("namespace beyond the cap accepted: %v", err)
	}
}

func TestMultiplexedWire(t *testing.T) {
	// Two namespaced clients sharing the process-wide multiplexed transport
	// against an h2c-enabled server: every request travels as HTTP/2, and
	// both sessions' streams ride one TCP connection (one remote address
	// seen server-side) instead of one keep-alive pool each.
	srv := NewServer(extmem.NewMemStore(16, 4), ServerOptions{
		StoreFactory: func(ns string) (extmem.BlockStore, error) {
			return extmem.NewMemStore(16, 4), nil
		},
	})
	defer srv.Close()
	var mu sync.Mutex
	protos := map[string]int{}
	conns := map[string]bool{}
	inner := srv.Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		protos[r.Proto]++
		conns[r.RemoteAddr] = true
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	ConfigureMuxServer(ts.Config)
	ts.Start()
	defer ts.Close()

	ca, err := Dial(ts.URL, Options{Namespace: "alice", Transport: SharedTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(ts.URL, Options{Namespace: "bob", Transport: SharedTransport()})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	for i := 0; i < 4; i++ {
		if err := extmem.WriteBlocksCtx(bg, ca, []int{i}, blockOf(4, uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := extmem.WriteBlocksCtx(bg, cb, []int{i}, blockOf(4, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, ca, []int{2}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, blockOf(4, 2)) {
		t.Fatalf("alice read back %+v over the multiplexed wire", got)
	}
	if err := extmem.ReadBlocksCtx(bg, cb, []int{2}, got); err != nil {
		t.Fatal(err)
	}
	if !equalElems(got, blockOf(4, 102)) {
		t.Fatalf("bob read back %+v over the multiplexed wire", got)
	}

	mu.Lock()
	defer mu.Unlock()
	for proto, n := range protos {
		if proto != "HTTP/2.0" {
			t.Fatalf("%d requests traveled as %s, want HTTP/2.0 only (protos: %v)", n, proto, protos)
		}
	}
	if len(conns) != 1 {
		t.Fatalf("%d TCP connections for 2 multiplexed sessions, want 1 (%v)", len(conns), conns)
	}
}
