package netstore

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"crypto/tls"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// Options configures a Client.
type Options struct {
	// Timeout bounds each HTTP attempt (default 10s). An attempt that blows
	// the deadline is abandoned and, budget permitting, replayed.
	Timeout time.Duration
	// MaxAttempts bounds how many times one logical request may hit the wire
	// (default 4: the first attempt plus three retries). Must be >= 1 when
	// set; 0 selects the default.
	MaxAttempts int
	// Backoff caps the delay before the first retry (default 10ms). The cap
	// doubles per further retry up to one second, and every actual delay is
	// drawn uniformly from (0, cap] — full jitter. Without the jitter, the
	// clients of a K-shard fan-out that all hit the same transient fault
	// back off in lockstep and re-arrive as a synchronized retry storm; the
	// spread de-correlates them. A server-supplied Retry-After (e.g. a 503
	// during graceful drain) overrides the jittered delay for that retry.
	Backoff time.Duration
	// MaxIdleConnsPerHost sizes the keep-alive pool of the client's default
	// transport (0 selects 4). A batched ORAM access is a drumbeat of
	// small sequential requests — one per probed level plus the grouped
	// write-back — so connection reuse, not parallelism, is what keeps the
	// per-request cost at one RTT instead of one RTT plus a dial. Size it
	// to the fan-out width when several shard clients share one Transport
	// (oblivext.New does): all K sub-batches of a vectored call are in
	// flight at once and, when shard URLs point at one host, land on the
	// same per-host pool. Ignored when Transport is set.
	MaxIdleConnsPerHost int
	// Transport overrides the HTTP transport (default: NewTransport, a
	// keep-alive transport with an explicit idle pool). The
	// fault-injection tests use this to drop, delay, and corrupt
	// responses.
	Transport http.RoundTripper
	// TLS, when non-nil, configures the default transport's TLS client
	// settings (root CAs for a self-signed obstore certificate, or
	// InsecureSkipVerify for smoke tests). Ignored when Transport is set —
	// an explicit Transport carries its own TLS config.
	TLS *tls.Config
	// AuthToken, when non-empty, is sent as "Authorization: Bearer <token>"
	// on every request. It must match the server's -auth-token; a mismatch
	// is a permanent 401, not a retried fault.
	AuthToken string
	// Namespace selects the tenant this client's traffic belongs to on a
	// multi-tenant (service-mode) server: its own block address space, its
	// own journal and trace fingerprint, its own replay-suppression window.
	// Data-plane requests carry it inline; control-plane requests pass it as
	// the ?ns= query parameter. Empty — the default — selects the default
	// tenant. Must satisfy ValidNamespace.
	Namespace string
}

const (
	defaultTimeout        = 10 * time.Second
	defaultMaxAttempts    = 4
	defaultBackoff        = 10 * time.Millisecond
	maxBackoff            = time.Second
	maxRetryAfter         = 10 * time.Second // cap on a server-supplied Retry-After
	defaultMaxIdlePerHost = 4
)

// writeBufferSize is each connection's send buffer: room for a whole
// cache-wide batch at the geometries this store is benchmarked at (512
// sealed blocks of 8 elements, 168 KB with its header). A request that fits
// leaves in one flush. A longer one fills the buffer, flushes, and sends the
// rest through net/http's generic copy, which allocates a buffer of up to
// 32 KiB per request and writes in pieces of that size.
const writeBufferSize = 256 << 10

// NewTransport returns the transport a Client uses when Options.Transport
// is nil: http.DefaultTransport's dialer and TLS settings with keep-alives
// on and an explicit idle pool, so steady request streams (the batched
// ORAM access pattern above all) reuse connections instead of re-dialing,
// and a send buffer that holds a whole request (writeBufferSize).
// A request over that 256 KiB still works, but its body past the buffer
// goes through net/http's generic copy and pays its 32 KiB buffer.
// perHost sizes the per-host idle pool; values below the default of 4 are
// raised to it.
func NewTransport(perHost int) *http.Transport {
	if perHost < defaultMaxIdlePerHost {
		perHost = defaultMaxIdlePerHost
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = perHost
	if t.MaxIdleConns < 4*perHost {
		t.MaxIdleConns = 4 * perHost
	}
	t.WriteBufferSize = writeBufferSize
	return t
}

// Stats is the measured network cost of the traffic a Client has issued:
// real wall-clock waits.
type Stats struct {
	// Requests counts completed logical interactions (= round trips the Disk
	// layer charged; retries of one request do not add to it).
	Requests int64
	// Attempts counts HTTP requests put on the wire, including retries.
	Attempts int64
	// Retries = Attempts - (first attempts); nonzero only when the transport
	// misbehaved.
	Retries int64
	// ReplayHits counts responses the server answered from its replay-
	// suppression window instead of executing (it stamps those with an
	// X-Obstore-Replay header): a retransmission of ours whose first
	// execution's response was lost. ReplayHits <= Retries on a correct
	// server; the gap is retries whose first attempt never executed at all.
	ReplayHits int64
	// BlocksMoved counts blocks transferred in completed interactions.
	BlocksMoved int64
	// Total is the wall-clock time spent waiting on interactions, summed —
	// for one interaction this spans first attempt through final response,
	// including backoff. With the sharded fan-out, per-shard clients wait
	// concurrently, so wall time is below the sum of their Totals.
	Total time.Duration
	// Min and Max are the fastest and slowest completed interactions.
	Min, Max time.Duration
	// Hist buckets every completed interaction's wall-clock wait, for
	// percentile summaries (Hist.P50/P95/P99).
	Hist obs.LatencyHistogram
}

// Client is an extmem.BlockStore served by a remote obstore server over
// HTTP. Like every BlockStore it is driven by one caller at a time (the
// Disk, or one shard goroutine of a fan-out); the internal mutex only guards
// the counters, which concurrent observers may read.
type Client struct {
	base        string
	hc          *http.Client
	b           int
	blockBytes  int
	timeout     time.Duration
	maxAttempts int
	backoff     time.Duration
	authToken   string
	ns          string // tenant namespace; "" = default tenant

	// sleep and jitter are injectable for the fake-clock backoff tests:
	// sleep waits for d or until ctx is canceled, jitter draws uniformly
	// from [0, 1) to spread the backoff delay (full jitter).
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64

	// Wire buffers, reused from one data-plane request to the next (a Client
	// serves one caller at a time): body holds the latest request frame,
	// resp receives a read's response.
	body *wireBody
	resp []byte

	mu    sync.Mutex
	n     int // capacity in blocks; grows via GrowTo
	seq   uint64
	stats Stats
}

// wireBody is a request frame's storage. The transport may still be
// sending it after RoundTrip returns, as on an attempt abandoned to its
// deadline, so the storage is reused only once every send of it has
// finished. The frame goes to net/http as a plain *bytes.Reader: for any
// other body type net/http flushes the headers in a packet of their own,
// which made a one-block loopback round trip about 15 % slower on a 2-CPU
// Linux container. httptrace's
// WroteRequest, which net/http calls once it has written and closed a
// body, marks each send finished.
type wireBody struct {
	buf     []byte
	sending atomic.Int64 // sends handed to the transport and not yet finished
}

// reader returns a fresh reader over the frame, counted as one send.
func (b *wireBody) reader() *bytes.Reader {
	b.sending.Add(1)
	return bytes.NewReader(b.buf)
}

// Dial connects to an obstore server at baseURL (e.g. "http://host:9220"),
// fetches its geometry, and returns a ready BlockStore.
func Dial(baseURL string, opts Options) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = defaultMaxAttempts
	}
	if opts.MaxAttempts < 1 {
		return nil, fmt.Errorf("netstore: MaxAttempts must be >= 1, got %d", opts.MaxAttempts)
	}
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
	if !ValidNamespace(opts.Namespace) {
		return nil, fmt.Errorf("netstore: invalid namespace %q (want 1..%d chars of [a-zA-Z0-9._-])",
			opts.Namespace, MaxNamespaceLen)
	}
	transport := opts.Transport
	if transport == nil {
		t := NewTransport(opts.MaxIdleConnsPerHost)
		if opts.TLS != nil {
			t.TLSClientConfig = opts.TLS
		}
		transport = t
	}
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{Transport: transport},
		timeout:     opts.Timeout,
		maxAttempts: opts.MaxAttempts,
		backoff:     opts.Backoff,
		authToken:   opts.AuthToken,
		ns:          opts.Namespace,
		sleep:       sleepCtx,
		jitter:      rand.Float64,
	}
	// Request ids start at a random point so that successive client
	// processes against one long-lived server cannot collide inside its
	// replay-suppression window (a collision would silently drop journal
	// entries — the audit log must not depend on who dialed first).
	var nonce [8]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("netstore: request-id nonce: %w", err)
	}
	c.seq = binary.LittleEndian.Uint64(nonce[:])
	var info infoJSON
	if err := c.getJSON(infoPath, &info); err != nil {
		return nil, fmt.Errorf("netstore: dial %s: %w", baseURL, err)
	}
	if info.BlockSize <= 0 || info.NumBlocks < 0 {
		return nil, fmt.Errorf("netstore: dial %s: bad geometry %+v", baseURL, info)
	}
	c.b = info.BlockSize
	c.blockBytes = info.BlockSize * extmem.ElementBytes
	c.n = info.NumBlocks
	return c, nil
}

// Transfer implements BlockStore: both parts travel as one request, so the
// Disk's one-RoundTrip-per-call accounting matches what the wire actually
// carries. The write part's elements are encoded straight into the request
// frame before it is sent, and the read part is decoded into dst from the
// response, so dst may alias src. A canceled ctx abandons the in-flight
// attempt and stops retrying — the sharded fan-out cancels doomed siblings
// through this.
func (c *Client) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	if len(src) != len(wAddrs)*c.b || len(dst) != len(rAddrs)*c.b {
		return fmt.Errorf("netstore: buffer lengths %d and %d != %d and %d blocks of %d elements",
			len(src), len(dst), len(wAddrs), len(rAddrs), c.b)
	}
	resp, err := c.doIO(ctx, wAddrs, src, rAddrs)
	if err != nil {
		return err
	}
	extmem.DecodeElements(dst, resp)
	return nil
}

// MaxBatchBlocks returns how many blocks one request can carry under the
// protocol's wire cap, written or read; callers driving this store
// (oblivext.New) cap the Disk layer's interactions, both parts counted, to
// it so a request can never be rejected for size. Splitting a batch only
// regroups round trips — the per-block trace is unchanged.
func (c *Client) MaxBatchBlocks() int {
	return (maxBatchWire - headerLen - MaxNamespaceLen) / (8 + c.blockBytes)
}

// doIO sends one data-plane request, replaying it on transient failures
// (transport errors, timeouts, 5xx, short bodies) within the attempt budget,
// and returns the blocks read, valid until the Client's next request.
// Every attempt carries the same request id, so the server can recognize a
// replay of a request whose response was lost and keep its journal free of
// duplicates.
func (c *Client) doIO(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int) ([]byte, error) {
	blocks := len(wAddrs) + len(rAddrs)
	payloadLen, respLen := len(wAddrs)*c.blockBytes, len(rAddrs)*c.blockBytes
	// Check the wire cap before materializing the body: rejection must not
	// cost a giant allocation. MaxBatchBlocks budgets for the longest
	// namespace.
	if headerLen+len(c.ns)+8*blocks+payloadLen > maxBatchWire {
		return nil, fmt.Errorf("netstore: transfer of %d writes and %d reads exceeds the %d-byte wire cap (%d blocks max at B=%d)",
			len(wAddrs), len(rAddrs), maxBatchWire, c.MaxBatchBlocks(), c.b)
	}
	if err := ctx.Err(); err != nil {
		// Already canceled: nothing goes on the wire, no request id is spent.
		return nil, fmt.Errorf("netstore: transfer of %d writes and %d reads: %w", len(wAddrs), len(rAddrs), err)
	}
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	if c.body == nil || c.body.sending.Load() != 0 {
		// A stale attempt's transport may still be sending the last frame:
		// leave it that storage and take fresh.
		c.body = new(wireBody)
	}
	body := c.body
	var payload []byte
	body.buf, payload = encodeRequest(body.buf, seq, c.ns, wAddrs, rAddrs, payloadLen)
	extmem.EncodeElements(payload, src)
	start := time.Now()
	var data []byte
	err := c.withRetry(ctx,
		func() { // per-retry accounting, data plane only
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		},
		func() (bool, time.Duration, error) {
			c.mu.Lock()
			c.stats.Attempts++
			c.mu.Unlock()
			var retryable, replayed bool
			var retryAfter time.Duration
			var err error
			data, replayed, retryable, retryAfter, err = c.attempt(ctx, body, respLen)
			if err == nil && replayed {
				c.mu.Lock()
				c.stats.ReplayHits++
				c.mu.Unlock()
			}
			return retryable, retryAfter, err
		})
	if err != nil {
		return nil, fmt.Errorf("netstore: transfer of %d writes and %d reads: %w", len(wAddrs), len(rAddrs), err)
	}
	c.account(blocks, time.Since(start))
	return data, nil
}

// withRetry runs f until it succeeds, fails permanently, exhausts the
// attempt budget, or ctx is canceled. The delay before retry r is drawn
// uniformly from (0, min(Backoff·2^(r-1), 1s)] — full jitter, so K clients
// tripped by the same fault don't re-arrive in lockstep — unless the server
// supplied a Retry-After (f's duration result), which overrides the jittered
// delay for that one retry: the server knows how long its drain lasts, and
// honoring it keeps restarts inside the retry path instead of tripping
// failover. onRetry, when non-nil, runs before each replay. Both the data
// and control planes share this one policy.
func (c *Client) withRetry(ctx context.Context, onRetry func(), f func() (retryable bool, retryAfter time.Duration, err error)) error {
	var lastErr error
	var hint time.Duration // server-supplied Retry-After from the last failure
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			if onRetry != nil {
				onRetry()
			}
			if err := c.sleep(ctx, c.retryDelay(attempt, hint)); err != nil {
				return fmt.Errorf("canceled while backing off: %w", err)
			}
		}
		retryable, retryAfter, err := f()
		if err == nil {
			return nil
		}
		lastErr, hint = err, retryAfter
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			// The caller canceled (a fan-out sibling failed): don't
			// burn the remaining budget on a request nobody wants.
			return fmt.Errorf("canceled after %d attempts: %w", attempt+1, lastErr)
		}
	}
	return fmt.Errorf("failed after %d attempts: %w", c.maxAttempts, lastErr)
}

// retryDelay computes the wait before the attempt-th attempt (1-based
// retries): full jitter over an exponentially-doubling cap, or the server's
// Retry-After hint verbatim (capped) when one was supplied.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return min(hint, maxRetryAfter)
	}
	d := maxBackoff // large attempt counts saturate (the shift would overflow)
	if attempt <= 16 {
		if shifted := c.backoff << (attempt - 1); shifted > 0 && shifted < maxBackoff {
			d = shifted
		}
	}
	// Full jitter: uniform in (0, d]. The +1 keeps the delay strictly
	// positive so a retry can never busy-spin.
	return time.Duration(c.jitter()*float64(d)) + 1
}

// sleepCtx is the default Client.sleep: wait d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt performs one HTTP exchange under ctx. replayed reports whether the
// server answered from its replay-suppression window (the X-Obstore-Replay
// header); retryable reports whether a failure is transient (worth
// replaying); retryAfter carries the server's Retry-After hint on a 503
// (e.g. a graceful drain), zero otherwise. data is the Client's response
// buffer, valid until its next request.
func (c *Client) attempt(ctx context.Context, body *wireBody, respLen int) (data []byte, replayed, retryable bool, retryAfter time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { body.sending.Add(-1) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+ioPath, body.reader())
	if err != nil {
		body.sending.Add(-1) // never handed to the transport
		return nil, false, false, 0, err
	}
	// A resend (HTTP/2 replays a request its connection lost) is one more
	// send of the same frame.
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body.reader()), nil }
	req.Header.Set("Content-Type", "application/octet-stream")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, true, 0, err // transport/deadline failure: replay
	}
	defer resp.Body.Close()
	replayed = resp.Header.Get(replayHeader) == "1"
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Prefer the millisecond-precision variant; the standard header
			// only resolves whole seconds.
			if v, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get(retryAfterMSHeader))); perr == nil && v >= 0 {
				retryAfter = time.Duration(v) * time.Millisecond
			} else if secs, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && secs >= 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, replayed, resp.StatusCode >= 500, retryAfter, err
	}
	// A body of the wrong length is not a transient fault — it means the
	// server's geometry disagrees with ours (e.g. restarted with a different
	// -b). Burning the budget on it only delays the diagnosis.
	if resp.ContentLength >= 0 && resp.ContentLength != int64(respLen) {
		return nil, replayed, false, 0, fmt.Errorf("response body %d bytes, want %d (server geometry changed?)", resp.ContentLength, respLen)
	}
	// One spare byte past respLen shows a longer body of undeclared length.
	c.resp = slices.Grow(c.resp[:0], respLen+1)[:respLen+1]
	data = c.resp[:respLen]
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, replayed, true, 0, err // connection died mid-body: replay
	}
	if n, _ := io.ReadFull(resp.Body, c.resp[respLen:]); n > 0 {
		return nil, replayed, false, 0, fmt.Errorf("response body over %d bytes (server geometry changed?)", respLen)
	}
	return data, replayed, false, 0, nil
}

// authorize attaches the bearer token, when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.authToken)
	}
}

// account folds one completed interaction into the measured stats.
func (c *Client) account(blocks int, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	c.stats.BlocksMoved += int64(blocks)
	c.stats.Total += elapsed
	c.stats.Hist.Observe(elapsed)
	if c.stats.Min == 0 || elapsed < c.stats.Min {
		c.stats.Min = elapsed
	}
	if elapsed > c.stats.Max {
		c.stats.Max = elapsed
	}
}

// getJSON fetches a control-plane endpoint with the same retry policy as the
// data plane.
func (c *Client) getJSON(path string, out any) error {
	return c.controlJSON(http.MethodGet, path, nil, out)
}

// controlJSON performs one control-plane exchange (geometry, growth) under
// the shared retry policy; control requests are idempotent like the data
// plane. The client's namespace rides along as the ?ns= query parameter, so
// every control operation is scoped to the same tenant the data plane
// targets.
func (c *Client) controlJSON(method, path string, body []byte, out any) error {
	if c.ns != "" {
		path += "?" + nsParam + "=" + c.ns // ValidNamespace ⊂ URL-safe chars
	}
	return c.withRetry(context.Background(), nil, func() (bool, time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return false, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.authorize(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return true, 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return true, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode >= 500, 0,
				fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		if out == nil {
			return false, 0, nil
		}
		return false, 0, json.Unmarshal(raw, out)
	})
}

// GrowTo implements extmem.Growable: the server extends its store (growth is
// a control operation, not a data transfer — no journal entry, matching the
// Disk's allocation-is-free accounting).
func (c *Client) GrowTo(n int) error {
	c.mu.Lock()
	have := c.n
	c.mu.Unlock()
	if n <= have {
		return nil
	}
	body, err := json.Marshal(growJSON{NumBlocks: n})
	if err != nil {
		return err
	}
	var info infoJSON
	if err := c.controlJSON(http.MethodPost, growPath, body, &info); err != nil {
		return fmt.Errorf("netstore: grow to %d blocks: %w", n, err)
	}
	c.mu.Lock()
	if info.NumBlocks > c.n {
		c.n = info.NumBlocks
	}
	c.mu.Unlock()
	return nil
}

// ServerTrace is the server-side journal fingerprint as fetched over HTTP:
// the length and hash of the per-block access sequence the server observed,
// plus its raw request count and how many retransmissions it suppressed.
type ServerTrace struct {
	Len      int64
	Hash     uint64
	Requests int64
	Replays  int64
}

// FetchServerTrace retrieves the server's journal fingerprint — the
// adversary's own record of Alice's accesses, independent of any client-side
// bookkeeping.
func (c *Client) FetchServerTrace() (ServerTrace, error) {
	var tj traceJSON
	if err := c.getJSON(tracePath, &tj); err != nil {
		return ServerTrace{}, fmt.Errorf("netstore: fetch trace: %w", err)
	}
	var hash uint64
	if _, err := fmt.Sscanf(tj.Hash, "%x", &hash); err != nil {
		return ServerTrace{}, fmt.Errorf("netstore: bad trace hash %q: %w", tj.Hash, err)
	}
	return ServerTrace{Len: tj.Len, Hash: hash, Requests: tj.Requests, Replays: tj.Replays}, nil
}

// ResetServerTrace clears the server-side journal recorder, so a fingerprint
// can cover exactly one phase (e.g. Sort alone, excluding the upload).
func (c *Client) ResetServerTrace() error {
	if err := c.controlJSON(http.MethodPost, traceResetPath, nil, nil); err != nil {
		return fmt.Errorf("netstore: reset trace: %w", err)
	}
	return nil
}

// NumBlocks implements BlockStore (the capacity learned at Dial, advanced by
// GrowTo).
func (c *Client) NumBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// BlockSize implements BlockStore.
func (c *Client) BlockSize() int { return c.b }

// Close implements BlockStore: the server outlives its clients; only idle
// connections are released.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// NetStats returns the measured network counters.
func (c *Client) NetStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the measured network counters.
func (c *Client) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}
