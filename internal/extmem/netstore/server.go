package netstore

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// TraceKeep is how many journal ops the in-memory recorder retains
	// verbatim (the running hash and count always cover the full journal).
	TraceKeep int
	// Journal, when non-nil, receives one line per observed block access
	// ("R 42\n" / "W 7\n") on the default tenant — the durable audit record
	// of the adversary's view. A journal write failure fails the request: an
	// unauditable access is not silently served.
	Journal io.Writer
	// DedupWindow is how many recent request ids each tenant remembers for
	// replay suppression (default 4096). The window is per namespace — the
	// replay key is (namespace, seq) — so concurrent sessions in different
	// namespaces can never suppress each other's journal entries. A client
	// has at most a handful of requests in flight, so the default window
	// exceeds any realistic replay distance by orders of magnitude. If an id
	// IS evicted before a stale duplicate arrives, that duplicate is treated
	// as new: it is journaled again and — for writes — re-executed, which can
	// roll back a newer write to the same blocks. Do not shrink the window
	// below the number of requests a client can have outstanding between a
	// send and its last retry.
	DedupWindow int
	// AuthToken, when non-empty, requires every request (data and control
	// plane, the trace endpoints included) to carry a matching
	// "Authorization: Bearer <token>" header; anything else is rejected
	// with 401 before it can touch the store or the journal. The check is
	// constant-time over digests. The token authenticates the caller to
	// Bob — it is a transport credential shared out of band, not part of
	// Alice's encryption key.
	AuthToken string
	// StoreFactory, when non-nil, turns the server multi-tenant: the first
	// request naming a namespace the server has not seen gets a fresh store
	// from StoreFactory(ns), and from then on that namespace is its own
	// isolated tenant — its own block address space, its own journal and
	// /v1/trace fingerprint, its own replay-suppression window. The factory
	// must return stores with the server's block size. Without a factory,
	// requests naming a non-default namespace are rejected with 404.
	StoreFactory func(ns string) (extmem.BlockStore, error)
	// JournalFactory, when non-nil, supplies the durable journal writer for
	// each namespace StoreFactory creates (the default tenant keeps using
	// Journal). Closing the writers is the caller's business; the server
	// only ever writes.
	JournalFactory func(ns string) (io.Writer, error)
	// MaxNamespaces caps how many tenants a multi-tenant server will create
	// (default 1024). Requests naming further namespaces are rejected with
	// 400 — a hard bound on the per-tenant memory an unauthenticated client
	// could otherwise allocate.
	MaxNamespaces int
}

// tenant is one namespace's slice of the server: its own store, journal,
// trace recorder, replay-suppression window, and scratch buffers, all behind
// its own mutex so different sessions' requests serve in parallel. Nothing
// here is shared across namespaces — that is the isolation the cross-session
// adversary tests pin.
type tenant struct {
	mu       sync.Mutex
	ns       string
	store    extmem.BlockStore
	rec      *trace.Recorder
	journal  io.Writer
	requests int64
	replays  int64
	seen     map[uint64]struct{}
	ring     []uint64 // eviction order for seen
	ringNext int
	elems    []extmem.Element
	jbuf     []byte // one batch's journal lines, written as a unit
}

// Server is Bob as an actual process: it owns one block store per namespace
// (memory- or file-backed), serves the batched binary protocol, and journals
// the per-block access sequence each tenant observes — the adversary's view,
// recorded by the adversary. Handlers are safe for concurrent use; requests
// within one namespace serialize on that tenant's mutex (so each journal's
// order is the order its requests were executed in), while requests for
// different namespaces execute in parallel.
type Server struct {
	b           int
	blockBytes  int
	keep        int
	dedupWindow int
	factory     func(ns string) (extmem.BlockStore, error)
	journalFor  func(ns string) (io.Writer, error)
	maxNS       int
	authDigest  [32]byte // sha256 of the bearer token; zero when auth is off
	authOn      bool

	// idle is the data-plane frame storage the last served request left
	// behind, or nil; see takeFrame.
	idle atomic.Pointer[frameBuf]

	mu      sync.Mutex
	tenants map[string]*tenant
	order   []string // tenant creation order, for Namespaces()
	// Lifetime telemetry for /metrics, aggregated over tenants. Unlike each
	// tenant's requests/replays these are never reset by ResetTrace:
	// Prometheus counters must be monotonic, and a client comparing its own
	// measured totals against the server's needs figures that survive
	// mid-run trace resets.
	reqTotal    int64
	replayTotal int64
	readBlocks  int64
	writeBlocks int64
	bytesIn     int64
	bytesOut    int64
	authFails   int64
	hist        obs.LatencyHistogram
	// Readiness state: draining refuses new data-plane work with 503 +
	// Retry-After so clients absorb a graceful restart through their retry
	// path; journalErr latches a journal write failure on any tenant (the
	// server can no longer produce an auditable record, so it must stop
	// reporting ready).
	draining   bool
	drainRetry time.Duration
	journalErr error
}

// NewServer wraps a block store — the default tenant's — in a protocol
// server. With ServerOptions.StoreFactory set the server is multi-tenant:
// further namespaces materialize on first use.
func NewServer(store extmem.BlockStore, opts ServerOptions) *Server {
	if opts.DedupWindow <= 0 {
		opts.DedupWindow = 4096
	}
	if opts.MaxNamespaces <= 0 {
		opts.MaxNamespaces = 1024
	}
	s := &Server{
		b:           store.BlockSize(),
		blockBytes:  store.BlockSize() * extmem.ElementBytes,
		keep:        opts.TraceKeep,
		dedupWindow: opts.DedupWindow,
		factory:     opts.StoreFactory,
		journalFor:  opts.JournalFactory,
		maxNS:       opts.MaxNamespaces,
		tenants:     make(map[string]*tenant),
	}
	if opts.AuthToken != "" {
		s.authDigest = sha256.Sum256([]byte(opts.AuthToken))
		s.authOn = true
	}
	s.addTenant("", store, opts.Journal)
	return s
}

// addTenant installs a namespace's state; the caller must hold s.mu (or, at
// construction, be the only goroutine).
func (s *Server) addTenant(ns string, store extmem.BlockStore, journal io.Writer) *tenant {
	t := &tenant{
		ns:      ns,
		store:   store,
		rec:     trace.NewRecorder(s.keep),
		journal: journal,
		seen:    make(map[uint64]struct{}, s.dedupWindow),
		ring:    make([]uint64, s.dedupWindow),
	}
	s.tenants[ns] = t
	s.order = append(s.order, ns)
	return t
}

// tenantFor resolves a namespace to its tenant, creating it through the
// store factory on first use. The error status is permanent (4xx) for
// unknown or excess namespaces, 500 for a factory failure.
func (s *Server) tenantFor(ns string) (*tenant, int, error) {
	if !ValidNamespace(ns) {
		return nil, http.StatusBadRequest, fmt.Errorf("netstore: invalid namespace %q", ns)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[ns]; ok {
		return t, http.StatusOK, nil
	}
	if s.factory == nil {
		return nil, http.StatusNotFound, fmt.Errorf("netstore: unknown namespace %q (server is single-tenant)", ns)
	}
	if len(s.tenants) >= s.maxNS {
		return nil, http.StatusBadRequest, fmt.Errorf("netstore: namespace limit %d reached", s.maxNS)
	}
	store, err := s.factory(ns)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("netstore: namespace %q: %w", ns, err)
	}
	if store.BlockSize() != s.b {
		store.Close()
		return nil, http.StatusInternalServerError,
			fmt.Errorf("netstore: namespace %q: factory store block size %d != %d", ns, store.BlockSize(), s.b)
	}
	var journal io.Writer
	if s.journalFor != nil {
		journal, err = s.journalFor(ns)
		if err != nil {
			store.Close()
			return nil, http.StatusInternalServerError, fmt.Errorf("netstore: namespace %q journal: %w", ns, err)
		}
	}
	return s.addTenant(ns, store, journal), http.StatusOK, nil
}

// BeginDrain puts the server into graceful drain: every subsequent
// data-plane and grow request is refused with 503 and a Retry-After of
// retryAfter (both the standard seconds header and the millisecond-precision
// variant), and /readyz flips to 503 so load balancers stop routing here.
// In-flight requests finish normally. The point of the 503 contract is that
// a restarting server is a *transient* fault: the client's retry path —
// which honors Retry-After — absorbs it, rather than the replica layer's
// failover marking the server unhealthy and dirtying its blocks. Trace and
// metrics endpoints stay live so a drained server can still be audited.
func (s *Server) BeginDrain(retryAfter time.Duration) {
	s.mu.Lock()
	s.draining, s.drainRetry = true, retryAfter
	s.mu.Unlock()
}

// EndDrain cancels a drain (a rollback of the restart, or a test bringing
// the server back): the server resumes accepting data-plane work.
func (s *Server) EndDrain() {
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
}

// Draining reports whether the server is refusing new data-plane work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Handler returns the HTTP handler serving the protocol. With an AuthToken
// configured every endpoint — /metrics included, since counters leak the
// access volume — sits behind the bearer-token check. /healthz and /readyz
// alone stay open: they reveal only liveness/readiness, and load balancers
// probe them without credentials.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ioPath, s.handleIO)
	mux.HandleFunc("GET "+infoPath, s.handleInfo)
	mux.HandleFunc("POST "+growPath, s.handleGrow)
	mux.HandleFunc("GET "+tracePath, s.handleTrace)
	mux.HandleFunc("POST "+traceResetPath, s.handleTraceReset)
	mux.HandleFunc("GET "+namespacesPath, s.handleNamespaces)
	mux.HandleFunc("GET "+metricsPath, s.handleMetrics)
	var h http.Handler = mux
	if s.authOn {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || !s.tokenOK(token) {
				s.mu.Lock()
				s.authFails++
				s.mu.Unlock()
				http.Error(w, "netstore: missing or invalid bearer token", http.StatusUnauthorized)
				return
			}
			mux.ServeHTTP(w, r)
		})
	}
	outer := http.NewServeMux()
	outer.HandleFunc("GET "+healthzPath, s.handleHealthz)
	outer.HandleFunc("GET "+readyzPath, s.handleReadyz)
	outer.Handle("/", h)
	return outer
}

// tokenOK compares the presented token against the configured one in
// constant time (over fixed-length digests, so the comparison leaks neither
// contents nor length).
func (s *Server) tokenOK(token string) bool {
	d := sha256.Sum256([]byte(token))
	return subtle.ConstantTimeCompare(d[:], s.authDigest[:]) == 1
}

// TraceSummary returns the default tenant's in-memory journal fingerprint
// (for in-process tests; remote auditors use the tracePath endpoint).
func (s *Server) TraceSummary() trace.Summary { return s.TraceSummaryNS("") }

// TraceSummaryNS returns one namespace's journal fingerprint. An unknown
// namespace reports a zero summary — it has observed nothing.
func (s *Server) TraceSummaryNS(ns string) trace.Summary {
	t := s.lookup(ns)
	if t == nil {
		return trace.Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec.Summarize()
}

// lookup returns the tenant for ns without creating it, or nil.
func (s *Server) lookup(ns string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[ns]
}

// ResetTrace clears the default tenant's journal recorder and request
// counters (the replay-suppression window survives: ids keep increasing
// across phases).
func (s *Server) ResetTrace() { s.ResetTraceNS("") }

// ResetTraceNS clears one namespace's journal recorder and request counters.
func (s *Server) ResetTraceNS(ns string) {
	t := s.lookup(ns)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec = trace.NewRecorder(s.keep)
	t.requests, t.replays = 0, 0
}

// Namespaces returns the names of every tenant the server holds, in
// creation order; the default tenant is "".
func (s *Server) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Close closes every tenant's underlying store.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, ns := range s.order {
		if err := s.tenants[ns].store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Server) handleIO(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if s.refuseIfDraining(w) {
		return
	}
	// The frame's storage is reused, and goes back only once a served
	// request's response is written: the write part's payload has been
	// decoded into the tenant's scratch by then, and the read part's
	// response is encoded over the frame after its addresses are decoded
	// and its payload applied. A rejected request's storage, whatever a
	// forged header grew it to, goes to the GC.
	f := s.takeFrame()
	body, err := readFrame(r.Body, r.ContentLength, s.blockBytes, f.buf)
	f.buf = body
	if err != nil {
		http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
		return
	}
	q, err := decodeRequest(body, s.blockBytes, f.addrs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.addrs = q.addrs
	t, status, err := s.tenantFor(q.ns)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	// All shared state is touched inside serveIO's locks; the socket writes
	// below happen after they are released, so one stalled client connection
	// cannot wedge the whole server behind a mutex.
	wire, replay, status, msg := s.serveIO(t, q, int64(len(body)), started, f.buf)
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	if replay {
		w.Header().Set(replayHeader, "1")
	}
	if q.nw == len(q.addrs) {
		w.WriteHeader(http.StatusOK) // nothing read: an empty body
	} else {
		f.buf = wire
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(wire)))
		w.Write(wire)
	}
	s.idle.Store(f)
}

// frameBuf is one data-plane request's wire storage, reused across
// requests: the frame lands in buf, its addresses in addrs, and the
// response is encoded over buf.
type frameBuf struct {
	buf   []byte
	addrs []int
}

// takeFrame returns the idle frame storage, or fresh storage when another
// request holds it. A Server keeps one idle frame: on the benchmark's
// sort_enc_http (a client per loopback shard) and kv_mix_http (two KV
// sessions over two replicas) no server ever had a second data-plane
// request in flight, so a second slot would never be taken. A concurrent
// request allocates as every request did before frames were reused. The
// idle frame carried a request the server served, so it is no larger than
// a batch some tenant's scratch already holds.
func (s *Server) takeFrame() *frameBuf {
	if f := s.idle.Swap(nil); f != nil {
		return f
	}
	return new(frameBuf)
}

// readFrame reads one ioPath request body into buf's storage and returns
// it, grown as needed, with any error. The frame announces its own length,
// so readFrame reads the header first, rejects a declared Content-Length
// (declared >= 0) that disagrees with it before taking any room for the
// rest, and then grows buf only as bytes arrive: neither a declared length
// nor a forged count makes it allocate much more than has arrived. A body
// of unknown length (declared < 0: chunked, or HTTP/2 without a length) is
// read the same way and must end where its frame does.
func readFrame(r io.Reader, declared int64, blockBytes int, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], headerLen+MaxNamespaceLen)[:headerLen]
	if n, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], fmt.Errorf("netstore: request truncated at %d bytes", n)
	}
	if nsLen := int(buf[nsLenOff]); nsLen <= MaxNamespaceLen {
		buf = buf[:headerLen+nsLen]
		if n, err := io.ReadFull(r, buf[headerLen:]); err != nil {
			return buf[:0], fmt.Errorf("netstore: request truncated at %d bytes (namespace of %d)", headerLen+n, nsLen)
		}
	}
	_, _, _, want, err := frameLen(buf, blockBytes)
	if err != nil {
		return buf[:0], err
	}
	if declared >= 0 && declared != want {
		return buf[:0], fmt.Errorf("netstore: Content-Length %d, but the frame's header announces %d bytes", declared, want)
	}
	for int64(len(buf)) < want {
		if len(buf) == cap(buf) {
			// Room for at most as much again as has arrived (and at least
			// 4 KiB, so a fresh buffer does not crawl up from the header's
			// size): what the frame costs stays within 4× what arrived.
			grown := make([]byte, len(buf), min(int(want), len(buf)+max(len(buf), 4<<10)))
			buf = grown[:copy(grown, buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), int(want))])
		buf = buf[:len(buf)+n]
		if err == io.EOF && int64(len(buf)) < want {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return buf[:0], fmt.Errorf("netstore: request truncated at %d of %d bytes: %w", len(buf), want, err)
		}
	}
	if declared < 0 {
		var probe [1]byte
		if n, _ := io.ReadFull(r, probe[:]); n > 0 {
			return buf[:0], fmt.Errorf("netstore: request longer than its frame's %d bytes", want)
		}
	}
	return buf, nil
}

// serveIO executes one decoded data-plane request under its tenant's mutex
// — the write part, then the read part — and returns the blocks read
// (encoded into out's storage), whether the request was answered from the
// replay window, and an error status + message. bodyBytes and started feed
// the telemetry counters.
func (s *Server) serveIO(t *tenant, q request, bodyBytes int64, started time.Time, out []byte) (wire []byte, replay bool, status int, msg string) {
	t.mu.Lock()
	replay = t.isReplay(q.seq)

	// Address validation is the client's responsibility gone wrong (400,
	// permanent); anything the store itself then fails on is the server's
	// problem (500, and the client's retry budget applies — a transient
	// disk fault must not abort a Sort built to survive transient faults).
	numBlocks := t.store.NumBlocks()
	for _, a := range q.addrs {
		if a >= numBlocks {
			t.mu.Unlock()
			return nil, replay, http.StatusBadRequest,
				fmt.Sprintf("netstore: block address %d out of range [0,%d)", a, numBlocks)
		}
	}
	wAddrs, rAddrs := q.wAddrs(), q.rAddrs()
	elems := t.scratchElems(len(q.addrs), s.b)
	welems, relems := elems[:len(wAddrs)*s.b], elems[len(wAddrs)*s.b:]
	if replay {
		// A replay's write part is acknowledged without touching the
		// store: its first execution already landed, and re-applying a
		// stale duplicate (e.g. one abandoned to a timeout, arriving after
		// a *newer* write to the same blocks) would roll that newer data
		// back. Its read part re-executes — the data is needed again and
		// reads are pure.
		wAddrs, welems = nil, nil
	} else {
		extmem.DecodeElements(welems, q.payload)
	}
	// The store runs under context.Background(), not the request's context:
	// a decoded request executes and is journaled to completion even if the
	// client hangs up, so the journal never holds half an interaction.
	if err := t.store.Transfer(context.Background(), wAddrs, welems, rAddrs, relems); err != nil {
		t.mu.Unlock()
		return nil, replay, http.StatusInternalServerError, err.Error()
	}
	if !replay {
		if err := t.record(wAddrs, rAddrs); err != nil {
			// The access executed but could not be journaled: fail the
			// request WITHOUT marking the id as seen, so the client's
			// replay gets journaled rather than suppressed as a phantom
			// "replay" of a request the audit log never recorded — and
			// latch the failure for /readyz: a server that cannot journal
			// cannot produce an auditable record.
			t.mu.Unlock()
			s.mu.Lock()
			s.journalErr = err
			s.mu.Unlock()
			return nil, replay, http.StatusInternalServerError, fmt.Sprintf("journal: %v", err)
		}
		t.remember(q.seq)
	}
	// Counters advance only for requests actually served.
	t.requests++
	if replay {
		t.replays++
	}
	// The request's own reused buffer, not the tenant's scratch: the
	// response outlives the lock (it is written to the socket after
	// release). The frame's addresses are decoded and its payload applied
	// already, so nothing still reads what this overwrites.
	n := len(rAddrs) * s.blockBytes
	wire = slices.Grow(out[:0], n)[:n]
	extmem.EncodeElements(wire, relems)
	t.mu.Unlock()

	s.mu.Lock()
	s.reqTotal++
	if replay {
		s.replayTotal++
	}
	s.bytesIn += bodyBytes
	s.readBlocks += int64(len(rAddrs))
	s.bytesOut += int64(n)
	s.writeBlocks += int64(q.nw)
	s.hist.Observe(time.Since(started))
	s.mu.Unlock()
	return wire, replay, http.StatusOK, ""
}

// isReplay reports whether seq is in this tenant's replay-suppression
// window: a retransmission of a request the tenant already executed and
// journaled (its response was lost on the way back). The caller holds t.mu.
func (t *tenant) isReplay(seq uint64) bool {
	_, ok := t.seen[seq]
	return ok
}

// remember commits seq to the tenant's replay-suppression window — only
// after the request both executed and journaled, so suppression never hides
// an access the audit log missed. The caller holds t.mu.
func (t *tenant) remember(seq uint64) {
	delete(t.seen, t.ring[t.ringNext])
	t.ring[t.ringNext] = seq
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	t.seen[seq] = struct{}{}
}

// record journals one request's per-block accesses, its writes before its
// reads: the file write goes out as a single buffer first, and the
// in-memory recorder advances only once that write succeeded, so the two
// views cannot diverge mid-request. The caller holds t.mu.
func (t *tenant) record(wAddrs, rAddrs []int) error {
	if t.journal != nil {
		t.jbuf = t.jbuf[:0]
		for _, a := range wAddrs {
			t.jbuf = fmt.Appendf(t.jbuf, "%c %d\n", trace.Write, a)
		}
		for _, a := range rAddrs {
			t.jbuf = fmt.Appendf(t.jbuf, "%c %d\n", trace.Read, a)
		}
		if _, err := t.journal.Write(t.jbuf); err != nil {
			return err
		}
	}
	for _, a := range wAddrs {
		t.rec.Record(trace.Write, int64(a))
	}
	for _, a := range rAddrs {
		t.rec.Record(trace.Read, int64(a))
	}
	return nil
}

func (t *tenant) scratchElems(blocks, b int) []extmem.Element {
	if need := blocks * b; cap(t.elems) < need {
		t.elems = make([]extmem.Element, need)
	}
	return t.elems[:blocks*b]
}

// reqNS resolves the request's tenant from the control-plane ?ns= query
// parameter, writing the error response itself on failure.
func (s *Server) reqNS(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	t, status, err := s.tenantFor(r.URL.Query().Get(nsParam))
	if err != nil {
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return t, true
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	t, ok := s.reqNS(w, r)
	if !ok {
		return
	}
	t.mu.Lock()
	info := infoJSON{NumBlocks: t.store.NumBlocks(), BlockSize: s.b}
	t.mu.Unlock()
	writeJSON(w, info)
}

// refuseIfDraining answers a data-plane or grow request with 503 plus both
// Retry-After headers when the server is draining, reporting whether the
// request was handled. The delay the client is told to wait is the drain's
// configured Retry-After — the server's own estimate of when it (or its
// replacement) will take traffic again.
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining, retry := s.draining, s.drainRetry
	s.mu.Unlock()
	if !draining {
		return false
	}
	secs := int(retry / time.Second)
	if retry > 0 && secs == 0 {
		secs = 1 // the standard header can't say "less than a second"
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set(retryAfterMSHeader, fmt.Sprintf("%d", retry/time.Millisecond))
	http.Error(w, "netstore: draining for restart, retry shortly", http.StatusServiceUnavailable)
	return true
}

func (s *Server) handleGrow(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	var req growJSON
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("grow: %v", err), http.StatusBadRequest)
		return
	}
	if req.NumBlocks < 0 {
		http.Error(w, "grow: negative capacity", http.StatusBadRequest)
		return
	}
	t, ok := s.reqNS(w, r)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if req.NumBlocks > t.store.NumBlocks() {
		g, ok := t.store.(extmem.Growable)
		if !ok {
			http.Error(w, fmt.Sprintf("grow: %T cannot grow", t.store), http.StatusBadRequest)
			return
		}
		if err := g.GrowTo(req.NumBlocks); err != nil {
			http.Error(w, fmt.Sprintf("grow: %v", err), http.StatusInternalServerError)
			return
		}
	}
	writeJSON(w, infoJSON{NumBlocks: t.store.NumBlocks(), BlockSize: s.b})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := s.reqNS(w, r)
	if !ok {
		return
	}
	t.mu.Lock()
	sum := t.rec.Summarize()
	tj := traceJSON{Len: sum.Len, Hash: fmt.Sprintf("%016x", sum.Hash),
		Requests: t.requests, Replays: t.replays}
	t.mu.Unlock()
	writeJSON(w, tj)
}

func (s *Server) handleTraceReset(w http.ResponseWriter, r *http.Request) {
	t, ok := s.reqNS(w, r)
	if !ok {
		return
	}
	t.mu.Lock()
	t.rec = trace.NewRecorder(s.keep)
	t.requests, t.replays = 0, 0
	t.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// handleNamespaces lists every tenant with its geometry, journal length, and
// request count — the fleet-operator's view of who is on this server. It
// sits behind the bearer-token check like the trace endpoints: the tenant
// list is workload metadata.
func (s *Server) handleNamespaces(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.order))
	for _, ns := range s.order {
		tenants = append(tenants, s.tenants[ns])
	}
	s.mu.Unlock()
	out := namespacesJSON{Namespaces: make([]namespaceInfoJSON, 0, len(tenants))}
	for _, t := range tenants {
		t.mu.Lock()
		out.Namespaces = append(out.Namespaces, namespaceInfoJSON{
			Name: t.ns, NumBlocks: t.store.NumBlocks(),
			JournalLen: t.rec.Len(), Requests: t.requests,
		})
		t.mu.Unlock()
	}
	writeJSON(w, out)
}

// Metrics is a snapshot of the server's lifetime telemetry (the figures
// /metrics exports), for in-process assertions.
type Metrics struct {
	Requests, Replays       int64
	ReadBlocks, WriteBlocks int64
	BytesIn, BytesOut       int64
	AuthFailures            int64
	JournalLen              int64
	Namespaces              int
	Latency                 obs.LatencyHistogram
}

// MetricsSnapshot returns the current lifetime telemetry. JournalLen sums
// over tenants.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		Requests:     s.reqTotal,
		Replays:      s.replayTotal,
		ReadBlocks:   s.readBlocks,
		WriteBlocks:  s.writeBlocks,
		BytesIn:      s.bytesIn,
		BytesOut:     s.bytesOut,
		AuthFailures: s.authFails,
		Namespaces:   len(s.tenants),
		Latency:      s.hist,
	}
	tenants := make([]*tenant, 0, len(s.order))
	for _, ns := range s.order {
		tenants = append(tenants, s.tenants[ns])
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.mu.Lock()
		m.JournalLen += t.rec.Len()
		t.mu.Unlock()
	}
	return m
}

// handleMetrics serves the lifetime telemetry in Prometheus text exposition
// format. All counters are monotonic over the server's lifetime — the
// trace-reset endpoint does not touch them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.MetricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("obstore_requests_total", "Data-plane requests served successfully (replays included).", m.Requests)
	counter("obstore_replays_total", "Requests answered from the replay-suppression window.", m.Replays)
	counter("obstore_read_blocks_total", "Blocks served by read batches.", m.ReadBlocks)
	counter("obstore_write_blocks_total", "Blocks received by write batches.", m.WriteBlocks)
	counter("obstore_bytes_in_total", "Data-plane request body bytes received.", m.BytesIn)
	counter("obstore_bytes_out_total", "Data-plane response payload bytes sent.", m.BytesOut)
	counter("obstore_auth_failures_total", "Requests rejected by the bearer-token check.", m.AuthFailures)
	fmt.Fprintf(w, "# HELP obstore_journal_len Per-block accesses in the current journal windows, summed over namespaces.\n# TYPE obstore_journal_len gauge\nobstore_journal_len %d\n", m.JournalLen)
	fmt.Fprintf(w, "# HELP obstore_namespaces Tenants this server holds (default namespace included).\n# TYPE obstore_namespaces gauge\nobstore_namespaces %d\n", m.Namespaces)
	m.Latency.WritePrometheus(w, "obstore_request_latency_seconds")
}

// handleReadyz reports readiness — can this server take data-plane traffic
// right now? — as distinct from /healthz liveness (is the process up at
// all?). Not ready while draining (503 with both Retry-After headers, same
// contract as the data plane) or after a journal write failure on any
// tenant (the store may work, but an unauditable server must not receive
// traffic). Served outside the auth wrapper, like /healthz: it reveals only
// readiness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	s.mu.Lock()
	jerr := s.journalErr
	s.mu.Unlock()
	if jerr != nil {
		http.Error(w, fmt.Sprintf("netstore: journal failed, refusing traffic: %v", jerr),
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ready\n")
}

// handleHealthz reports liveness; it is served outside the auth wrapper.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
