package kvservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/obsort"
)

// nsFleet spins up a k-server multi-tenant, h2c-capable obstore fleet — the
// deployment cmd/oramkv points at.
func nsFleet(t *testing.T, k int) []string {
	t.Helper()
	urls := make([]string, k)
	for i := range urls {
		srv := netstore.NewServer(extmem.NewMemStore(4096, 8), netstore.ServerOptions{
			StoreFactory: func(ns string) (extmem.BlockStore, error) {
				return extmem.NewMemStore(4096, 8), nil
			},
		})
		ts := httptest.NewUnstartedServer(srv.Handler())
		netstore.ConfigureMuxServer(ts.Config)
		ts.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// TestServiceSoak hammers the full service stack — HTTP front end, one ORAM
// session per namespace, a shared 2-shard multi-tenant obstore fleet on a
// multiplexed wire — with 32 concurrent clients doing mixed Get/Put for a
// fixed op budget. Run under -race in CI (service-soak job, GOMAXPROCS 1
// and 4). Asserts: zero errors, read-your-writes per client, per-session
// stats summing exactly to fleet totals, and audit-clean traces in every
// namespace. It runs once on each arm of the 64-slot ORAM: the scan at a
// cache of 64 blocks, and the hierarchy at one of 512, with enough ops that
// each namespace flushes its 64-entry buffer.
func TestServiceSoak(t *testing.T) {
	for _, tc := range []struct {
		arm        string
		cacheWords int
		ops        int // each client's default op budget
	}{{"scan", 512, 6}, {"hierarchy", 4096, 17}} {
		t.Run(tc.arm, func(t *testing.T) { serviceSoak(t, tc.arm, tc.cacheWords, tc.ops) })
	}
}

func serviceSoak(t *testing.T, arm string, cacheWords, opsPerClient int) {
	const (
		clients     = 32
		namespaces  = 8                           // 4 clients share each namespace
		slotsPerCli = 64 / (clients / namespaces) // exclusive slots per client
	)
	// The CI soak job raises the op budget via SOAK_OPS.
	if s := os.Getenv("SOAK_OPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("bad SOAK_OPS %q", s)
		}
		opsPerClient = n
	}
	urls := nsFleet(t, 2)
	svc, err := New(Options{
		Base: oblivext.Config{
			BlockSize: 8, CacheWords: cacheWords, Seed: 5,
			NumShards: len(urls), ShardURLs: urls, Multiplex: true,
		},
		Slots: 64,
		Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	front := httptest.NewServer(svc.Handler())
	defer front.Close()

	var wg sync.WaitGroup
	var errCount, getCount, putCount atomic.Int64
	fail := func(format string, args ...any) {
		errCount.Add(1)
		t.Errorf(format, args...)
	}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns := fmt.Sprintf("tenant%d", g%namespaces)
			base := (g / namespaces) * slotsPerCli
			want := map[int]string{} // this client's read-your-writes oracle
			for i := 0; i < opsPerClient; i++ {
				slot := base + (g*7+i*3)%slotsPerCli
				kvURL := fmt.Sprintf("%s/v1/kv/%s/%d", front.URL, ns, slot)
				if i%2 == 0 {
					value := fmt.Sprintf("g%d-i%d", g, i)
					req, _ := http.NewRequest(http.MethodPut, kvURL, strings.NewReader(value))
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						fail("client %d put: %v", g, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail("client %d put: status %d: %s", g, resp.StatusCode, body)
						return
					}
					want[slot] = value
					putCount.Add(1)
				} else {
					resp, err := http.Get(kvURL)
					if err != nil {
						fail("client %d get: %v", g, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail("client %d get: status %d: %s", g, resp.StatusCode, body)
						return
					}
					if got := string(body); got != want[slot] {
						fail("client %d slot %d: read %q, want %q (lost write or cross-tenant bleed)", g, slot, got, want[slot])
						return
					}
					getCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := errCount.Load(); n != 0 {
		t.Fatalf("%d errors during soak", n)
	}

	// Per-session stats sum exactly to the fleet totals, and both agree
	// with what the clients themselves counted.
	st := svc.StatsSnapshot()
	if len(st.Sessions) != namespaces {
		t.Fatalf("%d sessions, want %d", len(st.Sessions), namespaces)
	}
	var gets, puts, errs, violations int64
	for _, row := range st.Sessions {
		gets += row.Gets
		puts += row.Puts
		errs += row.Errors
		violations += row.AuditViolations
		if row.Gets == 0 || row.Puts == 0 {
			t.Errorf("session %q idle: %+v (work not spread across namespaces?)", row.Namespace, row)
		}
	}
	if gets != st.Gets || puts != st.Puts || errs != st.Errors {
		t.Errorf("per-session sums (g=%d p=%d e=%d) != fleet totals (g=%d p=%d e=%d)",
			gets, puts, errs, st.Gets, st.Puts, st.Errors)
	}
	if st.Gets != getCount.Load() || st.Puts != putCount.Load() || st.Errors != 0 {
		t.Errorf("fleet totals (g=%d p=%d e=%d) != client-side counts (g=%d p=%d)",
			st.Gets, st.Puts, st.Errors, getCount.Load(), putCount.Load())
	}
	// Audit-clean: every namespace's live auditor saw only golden traces.
	if violations != 0 {
		t.Errorf("%d audit violations across sessions", violations)
	}

	// Each session's ORAM is the arm the subtest names: the scan audits its
	// access scans alone; the hierarchy never scans, and once a namespace has
	// made a buffer's 64 accesses it has audited a flush beside its build.
	flushed := clients/namespaces*opsPerClient >= 64
	for _, row := range st.Sessions {
		var scans, rebuilds int
		for _, key := range auditKeys(t, svc, row.Namespace) {
			switch {
			case strings.HasPrefix(key, "oram/scan/"):
				scans++
			case strings.HasPrefix(key, "oram/rebuild/"):
				rebuilds++
			}
		}
		switch {
		case arm == "scan" && (scans == 0 || rebuilds != 0),
			arm == "hierarchy" && (scans != 0 || rebuilds == 0 || flushed && rebuilds < 2):
			t.Errorf("session %q audited %d scan and %d rebuild shapes: not the %s", row.Namespace, scans, rebuilds, arm)
		}
	}

	// The metrics endpoint agrees on the session count.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("oramkv_sessions %d", namespaces); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// auditKeys returns the keys a session's learning auditor holds a golden
// fingerprint for: one per shape of audited span its ORAM has run.
func auditKeys(t *testing.T, svc *Service, ns string) []string {
	t.Helper()
	svc.mu.Lock()
	se := svc.sessions[ns]
	svc.mu.Unlock()
	se.mu.Lock()
	defer se.mu.Unlock()
	var buf bytes.Buffer
	if err := se.auditor.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Golden map[string]json.RawMessage `json:"golden"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(f.Golden))
	for k := range f.Golden {
		keys = append(keys, k)
	}
	return keys
}

func TestPackValueRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "attack at dawn", strings.Repeat("x", 56), "nul\x00bytes\x00ok"} {
		if got := UnpackValue(PackValue(s, 8)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	// A corrupt length cannot read past the block.
	words := PackValue("hi", 8)
	words[0] = 1 << 40
	if got := UnpackValue(words); len(got) > 56 {
		t.Errorf("corrupt length decoded %d bytes", len(got))
	}
	if UnpackValue(nil) != "" {
		t.Error("nil block should decode empty")
	}
}

func TestServiceValidation(t *testing.T) {
	svc, err := New(Options{Base: oblivext.Config{BlockSize: 8, CacheWords: 512, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Get("bad/ns", 0); err == nil || !strings.Contains(err.Error(), "invalid namespace") {
		t.Errorf("bad namespace accepted: %v", err)
	}
	if _, err := svc.Get("ok", 99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad slot accepted: %v", err)
	}
	if err := svc.Put("ok", 0, strings.Repeat("x", svc.ValueBytes()+1)); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("oversized value accepted: %v", err)
	}
	if err := svc.Put("ok", 0, strings.Repeat("y", svc.ValueBytes())); err != nil {
		t.Errorf("max-size value rejected: %v", err)
	}

	// The accounting contract: pre-session refusals count as Rejected, every
	// Error is charged to a session row, so rows always sum to Errors — even
	// with failures in the mix.
	st := svc.StatsSnapshot()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1 (the invalid-namespace Get)", st.Rejected)
	}
	var rowErrs int64
	for _, row := range st.Sessions {
		rowErrs += row.Errors
	}
	if st.Errors != 2 || rowErrs != st.Errors {
		t.Errorf("Errors = %d (rows sum %d), want 2 == sum (bad slot + oversized value)", st.Errors, rowErrs)
	}
}

// TestServiceRejectsUnknownSorter: New refuses a Base.Sorter that
// oblivext.New would refuse, so a misconfigured oramkv exits at start-up
// instead of answering 500 to every session's first request; every name
// obsort.EngineNames lists, and the empty default, are accepted.
func TestServiceRejectsUnknownSorter(t *testing.T) {
	for _, name := range []string{"bucket", "quicksort"} {
		if _, err := New(Options{Base: oblivext.Config{Sorter: name}}); err == nil || !strings.Contains(err.Error(), "unknown Base.Sorter") {
			t.Errorf("Sorter %q: err = %v, want an unknown-sorter error", name, err)
		}
	}
	for _, name := range append(obsort.EngineNames(), "") {
		svc, err := New(Options{Base: oblivext.Config{Sorter: name}})
		if err != nil {
			t.Errorf("Sorter %q: %v", name, err)
			continue
		}
		svc.Close()
	}
}

// TestStatusOf: an HTTP status follows what an error is, not what it says —
// the caller's four mistakes are 400s and a 413, and a backend fault is a
// 500 even when its text reads like one of them.
func TestStatusOf(t *testing.T) {
	svc, err := New(Options{Base: oblivext.Config{BlockSize: 8, CacheWords: 512, Seed: 1}, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	get := func(ns string, slot int) error { _, err := svc.Get(ns, slot); return err }
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"invalid namespace", get("bad/ns", 0), http.StatusBadRequest},
		{"slot out of range", get("ok", 99), http.StatusBadRequest},
		{"session limit", get("second", 0), http.StatusBadRequest},
		{"oversized value", svc.Put("ok", 0, strings.Repeat("x", svc.ValueBytes()+1)), http.StatusRequestEntityTooLarge},
		{"backend fault", fmt.Errorf("extmem: array read index 9 out of range [0,8)"), http.StatusInternalServerError},
	} {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if got := statusOf(tc.err); got != tc.want {
			t.Errorf("%s: %q is a %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestServiceInitFailureAccounting(t *testing.T) {
	// A session whose construction fails (unreachable backend) must charge
	// its own row, not just the fleet total — found live when a block-size
	// mismatch left /v1/stats showing fleet errors with all-zero rows.
	svc, err := New(Options{Base: oblivext.Config{
		BlockSize: 8, CacheWords: 512, Seed: 1,
		URL: "http://127.0.0.1:1", NetRetries: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Get("ghost", 0); err == nil {
		t.Fatal("Get against an unreachable backend succeeded")
	}
	if err := svc.Put("ghost", 0, "x"); err == nil {
		t.Fatal("Put against an unreachable backend succeeded")
	}
	st := svc.StatsSnapshot()
	if len(st.Sessions) != 1 || st.Sessions[0].Namespace != "ghost" {
		t.Fatalf("sessions %+v, want the one failed row", st.Sessions)
	}
	if st.Errors != 2 || st.Sessions[0].Errors != 2 || st.Rejected != 0 {
		t.Fatalf("errors fleet=%d row=%d rejected=%d, want 2/2/0", st.Errors, st.Sessions[0].Errors, st.Rejected)
	}
}

func TestServiceDrain(t *testing.T) {
	svc, err := New(Options{Base: oblivext.Config{BlockSize: 8, CacheWords: 512, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	front := httptest.NewServer(svc.Handler())
	defer front.Close()

	if err := svc.Put("alice", 1, "before"); err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	resp, err := http.Get(front.URL + "/v1/kv/alice/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining GET: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d", resp.StatusCode)
	}
	// Liveness and stats stay up through a drain.
	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz: status %d", resp.StatusCode)
	}
	if !svc.StatsSnapshot().Draining {
		t.Fatal("stats don't report draining")
	}
}
