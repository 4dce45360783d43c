package netstore

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"oblivext/internal/extmem"
)

// TestReplayHitsCounted: a lost response forces a retry that the server
// answers from its replay window; the client sees the X-Obstore-Replay
// stamp and counts it, with ReplayHits <= Retries.
func TestReplayHitsCounted(t *testing.T) {
	// First data-plane attempt: the server executes but the response is
	// lost. The retry is a replay hit. A later attempt is refused before
	// reaching the server: that retry executes fresh — a retry with no
	// replay, exercising the <= gap.
	srv, c, _ := startFlaky(t, 16, 4, Options{}, func(call int) faultAction {
		switch call {
		case 0:
			return dropResponse
		case 3:
			return refuse
		default:
			return pass
		}
	})
	runWorkload(t, c)
	st := c.NetStats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if st.ReplayHits != 1 {
		t.Fatalf("replay hits = %d, want 1 (one lost response, one refused connection)", st.ReplayHits)
	}
	if st.ReplayHits > st.Retries {
		t.Fatalf("replay hits %d exceed retries %d", st.ReplayHits, st.Retries)
	}
	if st.Attempts != st.Requests+st.Retries {
		t.Fatalf("attempts %d != requests %d + retries %d", st.Attempts, st.Requests, st.Retries)
	}
	m := srv.MetricsSnapshot()
	if m.Replays != st.ReplayHits {
		t.Fatalf("server replays %d != client replay hits %d", m.Replays, st.ReplayHits)
	}
}

// TestMetricsAgreeWithClient runs a clean workload and checks the server's
// lifetime telemetry against the client's measured wire stats, both through
// MetricsSnapshot and the scraped /metrics text.
func TestMetricsAgreeWithClient(t *testing.T) {
	srv, ts, c := start(t, 16, 4, ServerOptions{})
	runWorkload(t, c)
	st := c.NetStats()
	m := srv.MetricsSnapshot()
	if m.Requests-m.Replays != st.Requests {
		t.Fatalf("server executed %d (- %d replays) != client %d requests", m.Requests, m.Replays, st.Requests)
	}
	if m.ReadBlocks+m.WriteBlocks != st.BlocksMoved {
		t.Fatalf("server blocks %d+%d != client %d", m.ReadBlocks, m.WriteBlocks, st.BlocksMoved)
	}
	if m.ReadBlocks != 6 || m.WriteBlocks != 4 { // runWorkload: 3+1 written, 2+4 read
		t.Fatalf("block split %d/%d, want 6/4", m.ReadBlocks, m.WriteBlocks)
	}
	if m.Latency.Count() != m.Requests {
		t.Fatalf("latency count %d != requests %d", m.Latency.Count(), m.Requests)
	}
	if m.BytesIn <= 0 || m.BytesOut <= 0 || m.AuthFailures != 0 {
		t.Fatalf("byte/auth counters: %+v", m)
	}

	resp, err := http.Get(ts.URL + metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		fmt.Sprintf("obstore_requests_total %d", m.Requests),
		fmt.Sprintf("obstore_read_blocks_total %d", m.ReadBlocks),
		fmt.Sprintf("obstore_write_blocks_total %d", m.WriteBlocks),
		"obstore_journal_len",
		"obstore_request_latency_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, out)
		}
	}

	resp, err = http.Get(ts.URL + healthzPath)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

// TestMetricsBehindAuth: with an auth token set, /metrics requires the
// bearer token like every data endpoint (counters leak access volume),
// while /healthz stays open for liveness probes; failed auth is itself
// counted.
func TestMetricsBehindAuth(t *testing.T) {
	srv, ts, _ := startAuthed(t, "s3cret")

	get := func(path, token string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get(healthzPath, ""); code != http.StatusOK {
		t.Fatalf("/healthz without token: %d", code)
	}
	if code := get(metricsPath, ""); code != http.StatusUnauthorized {
		t.Fatalf("/metrics without token: %d", code)
	}
	if code := get(metricsPath, "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("/metrics with a wrong token: %d", code)
	}
	if code := get(metricsPath, "s3cret"); code != http.StatusOK {
		t.Fatalf("/metrics with the token: %d", code)
	}
	if m := srv.MetricsSnapshot(); m.AuthFailures != 2 {
		t.Fatalf("auth failures = %d, want 2", m.AuthFailures)
	}
}

// startAuthed spins up a token-protected server without dialing a client.
func startAuthed(t *testing.T, token string) (*Server, *httptest.Server, string) {
	t.Helper()
	srv := NewServer(extmem.NewMemStore(8, 4), ServerOptions{AuthToken: token})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, ts.URL
}
