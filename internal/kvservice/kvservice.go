// Package kvservice is the ORAM-backed key-value service: a long-lived HTTP
// front end that hosts one oblivious RAM per namespace, so many tenants'
// Get/Put traffic rides one shared obstore fleet while each tenant's access
// pattern stays hidden inside its own ORAM simulation — the storage fleet
// sees which *namespace* is active (it must route the blocks somewhere) but
// learns nothing about which keys any tenant touches, with what values, or
// whether two requests touch the same key.
//
// The package is the service's engine; cmd/oramkv is the thin process
// wrapper (flags, signals) around it. Sessions — (namespace → oblivext
// Client + ORAM) pairs — materialize lazily on first use and serialize
// their own requests on a per-session mutex, so concurrent namespaces
// proceed in parallel while each ORAM sees the single-caller discipline the
// client stack requires.
package kvservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oblivext"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
)

// Options configures a Service.
type Options struct {
	// Base is the oblivext configuration template every session is built
	// from; the service overrides Namespace per session (Base.Namespace
	// must be empty). Point it at a -namespaces obstore fleet for real
	// deployments, or leave it memory-backed for tests.
	Base oblivext.Config
	// Slots is each namespace's ORAM capacity in logical slots (default
	// 64). Keys are slot indices in [0, Slots); the ORAM touches the same
	// bucket shape whichever slot a request names.
	Slots int
	// MaxSessions caps how many namespaces the service will host (default
	// 64): each session holds an ORAM and a client cache, so the cap
	// bounds what an open endpoint could make the process allocate.
	MaxSessions int
	// Audit, when set, runs every session's live obliviousness auditor in
	// learn mode: each session folds its ORAM accesses into golden
	// fingerprints as it goes and any deviation (same op shape, different
	// trace) is a violation — surfaced per session in /v1/stats and summed
	// in /metrics. The soak tests run with this on.
	Audit bool
	// RetryAfter is the Retry-After hint on 503s while draining (default
	// 1s).
	RetryAfter time.Duration
}

// session is one namespace's slice of the service. Its mutex serializes the
// namespace's requests (an oblivext.Client is single-caller by contract)
// and guards the per-session counters; distinct sessions share nothing but
// the Service's bookkeeping map, so they run concurrently.
type session struct {
	mu      sync.Mutex
	ns      string
	client  *oblivext.Client
	kv      *oblivext.ORAM
	auditor *obs.Auditor
	initErr error
	gets    int64
	puts    int64
	errs    int64
}

// Service hosts the sessions and serves the HTTP API. Create with New,
// mount Handler, drain with BeginDrain, release with Close.
type Service struct {
	opts       Options
	valueBytes int // payload capacity of one slot

	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	draining bool
	// Fleet-wide telemetry: request latency (wall clock, queueing on the
	// session mutex included — that wait is what a loaded tenant's callers
	// actually experience) and lifetime counters.
	getHist  obs.LatencyHistogram
	putHist  obs.LatencyHistogram
	gets     int64
	puts     int64
	errs     int64
	rejected int64
}

// New validates opts and returns a Service with no sessions yet.
func New(opts Options) (*Service, error) {
	if opts.Base.Namespace != "" {
		return nil, fmt.Errorf("kvservice: Base.Namespace %q must be empty (namespaces are per session)", opts.Base.Namespace)
	}
	// Every session is built from Base on its first request, so a name
	// oblivext.New would refuse is refused here, at start-up, rather than
	// as a 500 on every namespace.
	if s := opts.Base.Sorter; s != "" && !obsort.ValidEngine(s) {
		return nil, fmt.Errorf("kvservice: unknown Base.Sorter %q (valid: %s, or empty)", s, strings.Join(obsort.EngineNames(), ", "))
	}
	if opts.Slots == 0 {
		opts.Slots = 64
	}
	if opts.Slots < 1 {
		return nil, fmt.Errorf("kvservice: Slots must be >= 1, got %d", opts.Slots)
	}
	if opts.MaxSessions == 0 {
		opts.MaxSessions = 64
	}
	if opts.MaxSessions < 1 {
		return nil, fmt.Errorf("kvservice: MaxSessions must be >= 1, got %d", opts.MaxSessions)
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	b := opts.Base.BlockSize
	if b == 0 {
		b = 8 // oblivext.New's own default
	}
	return &Service{
		opts:       opts,
		valueBytes: (b - 1) * 8,
		sessions:   make(map[string]*session),
	}, nil
}

// ValueBytes returns the payload capacity of one slot: one word of the
// BlockSize-word block carries the value length, the rest carry its bytes.
func (s *Service) ValueBytes() int { return s.valueBytes }

// The caller's mistakes, as statusOf tells them from a backend's faults:
// each is wrapped into the message it words.
var (
	errNamespace    = errors.New("invalid namespace")
	errSessionLimit = errors.New("session limit")
	errSlotRange    = errors.New("out of range")
	errValueSize    = errors.New("slot capacity")
)

// session returns the namespace's session with its mutex HELD — the caller
// owns the session until it calls unlock.
func (s *Service) session(ns string) (*session, error) {
	// Failures in here do their own accounting: a request refused before a
	// session exists counts as rejected (fleet-level only — there is no row
	// to charge), while an init failure charges the session's row AND the
	// fleet total, keeping rows-sum-to-Errors exact.
	if ns == "" || !netstore.ValidNamespace(ns) {
		s.countRejected()
		return nil, fmt.Errorf("kvservice: %w %q (want 1..%d chars of [a-zA-Z0-9._-])", errNamespace, ns, netstore.MaxNamespaceLen)
	}
	s.mu.Lock()
	se, ok := s.sessions[ns]
	if !ok {
		if len(s.sessions) >= s.opts.MaxSessions {
			s.rejected++
			s.mu.Unlock()
			return nil, fmt.Errorf("kvservice: %w %d reached", errSessionLimit, s.opts.MaxSessions)
		}
		se = &session{ns: ns}
		s.sessions[ns] = se
		s.order = append(s.order, ns)
	}
	s.mu.Unlock()

	// Initialization happens under the session's own mutex, not the
	// service's: building an ORAM writes its blocks (real I/O),
	// and other namespaces must not stall behind it.
	se.mu.Lock()
	if se.initErr != nil {
		se.errs++
		se.mu.Unlock()
		s.countErr()
		return nil, se.initErr
	}
	if se.client == nil {
		cfg := s.opts.Base
		cfg.Namespace = ns
		cfg.Seed = sessionSeed(s.opts.Base.Seed, ns)
		client, err := oblivext.New(cfg)
		if err != nil {
			se.initErr = fmt.Errorf("kvservice: session %q: %w", ns, err)
			se.errs++
			se.mu.Unlock()
			s.countErr()
			return nil, se.initErr
		}
		var auditor *obs.Auditor
		if s.opts.Audit {
			auditor = client.EnableAudit(true)
		}
		kv, err := client.NewORAM(s.opts.Slots)
		if err != nil {
			client.Close()
			se.initErr = fmt.Errorf("kvservice: session %q: %w", ns, err)
			se.errs++
			se.mu.Unlock()
			s.countErr()
			return nil, se.initErr
		}
		se.client, se.kv, se.auditor = client, kv, auditor
	}
	return se, nil
}

// sessionSeed derives a namespace's PRF seed from the base seed: a
// deterministic function of the namespace alone (never of creation order),
// so a namespace's trace is reproducible run-to-run and identical whether
// the session runs alone or alongside others — the property the
// cross-session adversary tests compare server journals across. FNV-1a over
// the name, folded to keep the offset positive.
func sessionSeed(base uint64, ns string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ns); i++ {
		h ^= uint64(ns[i])
		h *= 1099511628211
	}
	return base + h
}

// Get reads the value stored at slot in ns ("" if never written). The
// programmatic twin of GET /v1/kv/{ns}/{slot} — the soak tests drive this
// directly so -race watches the service's own locking, not the HTTP stack.
func (s *Service) Get(ns string, slot int) (string, error) {
	start := time.Now()
	se, err := s.session(ns)
	if err != nil {
		return "", err
	}
	defer se.mu.Unlock()
	if slot < 0 || slot >= s.opts.Slots {
		se.errs++
		s.countErr()
		return "", fmt.Errorf("kvservice: slot %d %w [0,%d)", slot, errSlotRange, s.opts.Slots)
	}
	words, err := se.kv.Read(slot)
	if err != nil {
		se.errs++
		s.countErr()
		return "", err
	}
	se.gets++
	s.mu.Lock()
	s.gets++
	s.getHist.Observe(time.Since(start))
	s.mu.Unlock()
	return UnpackValue(words), nil
}

// Put stores value at slot in ns, replacing what was there. The
// programmatic twin of PUT /v1/kv/{ns}/{slot}.
func (s *Service) Put(ns string, slot int, value string) error {
	start := time.Now()
	se, err := s.session(ns)
	if err != nil {
		return err
	}
	defer se.mu.Unlock()
	if slot < 0 || slot >= s.opts.Slots {
		se.errs++
		s.countErr()
		return fmt.Errorf("kvservice: slot %d %w [0,%d)", slot, errSlotRange, s.opts.Slots)
	}
	if len(value) > s.valueBytes {
		se.errs++
		s.countErr()
		return fmt.Errorf("kvservice: value of %d bytes exceeds the %d-byte %w", len(value), s.valueBytes, errValueSize)
	}
	b := s.valueBytes/8 + 1
	if err := se.kv.Write(slot, PackValue(value, b)); err != nil {
		se.errs++
		s.countErr()
		return err
	}
	se.puts++
	s.mu.Lock()
	s.puts++
	s.putHist.Observe(time.Since(start))
	s.mu.Unlock()
	return nil
}

func (s *Service) countErr() {
	s.mu.Lock()
	s.errs++
	s.mu.Unlock()
}

func (s *Service) countRejected() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// PackValue encodes a string value into a b-word ORAM block: word 0 is the
// byte length, the remaining words carry the bytes little-endian. Length-
// prefixing (rather than NUL termination) keeps arbitrary bytes storable.
func PackValue(value string, b int) []uint64 {
	words := make([]uint64, b)
	words[0] = uint64(len(value))
	for i := 0; i < len(value); i++ {
		words[1+i/8] |= uint64(value[i]) << (8 * (i % 8))
	}
	return words
}

// UnpackValue decodes PackValue's encoding; a zero block (a slot never
// written) decodes as "".
func UnpackValue(words []uint64) string {
	if len(words) == 0 {
		return ""
	}
	n := int(words[0])
	if max := (len(words) - 1) * 8; n > max {
		n = max // a corrupt length must not make us read past the block
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(words[1+i/8] >> (8 * (i % 8)))
	}
	return string(out)
}

// SessionStats is one namespace's row in StatsSnapshot.
type SessionStats struct {
	Namespace string `json:"namespace"`
	Gets      int64  `json:"gets"`
	Puts      int64  `json:"puts"`
	Errors    int64  `json:"errors"`
	// BlockIOs is the session's lifetime oblivious block I/O count
	// (reads+writes the ORAM issued below the cache).
	BlockIOs int64 `json:"blockIOs"`
	// WireRequests is how many round trips the session's Disk charged —
	// with a network backend, requests actually put on the wire.
	WireRequests int64 `json:"wireRequests"`
	// AuditViolations counts live-auditor deviations (with Options.Audit;
	// always 0 on a correctly oblivious stack).
	AuditViolations int64 `json:"auditViolations"`
}

// Stats is the StatsSnapshot result: per-session rows plus fleet totals.
// The totals are maintained independently of the rows, so tests can assert
// the rows sum to them — per-session accounting that leaked across sessions
// would break the equality. Requests refused before a session row exists
// (invalid namespace, session cap) count under Rejected, not Errors, so
// Errors always equals the sum of the rows' Errors.
type Stats struct {
	Sessions []SessionStats `json:"sessions"`
	Gets     int64          `json:"gets"`
	Puts     int64          `json:"puts"`
	Errors   int64          `json:"errors"`
	Rejected int64          `json:"rejected"`
	Draining bool           `json:"draining"`
	GetP50Ms float64        `json:"getP50Ms"`
	GetP95Ms float64        `json:"getP95Ms"`
	GetP99Ms float64        `json:"getP99Ms"`
	PutP50Ms float64        `json:"putP50Ms"`
	PutP95Ms float64        `json:"putP95Ms"`
	PutP99Ms float64        `json:"putP99Ms"`
}

// StatsSnapshot collects the per-session counters and fleet totals.
func (s *Service) StatsSnapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Gets: s.gets, Puts: s.puts, Errors: s.errs, Rejected: s.rejected, Draining: s.draining,
		GetP50Ms: ms(s.getHist.P50()), GetP95Ms: ms(s.getHist.P95()), GetP99Ms: ms(s.getHist.P99()),
		PutP50Ms: ms(s.putHist.P50()), PutP95Ms: ms(s.putHist.P95()), PutP99Ms: ms(s.putHist.P99()),
	}
	names := append([]string(nil), s.order...)
	sessions := make([]*session, 0, len(names))
	for _, ns := range names {
		sessions = append(sessions, s.sessions[ns])
	}
	s.mu.Unlock()
	for _, se := range sessions {
		se.mu.Lock()
		row := SessionStats{Namespace: se.ns, Gets: se.gets, Puts: se.puts, Errors: se.errs}
		if se.client != nil {
			io := se.client.Stats()
			row.BlockIOs = io.Total()
			row.WireRequests = io.RoundTrips
			if se.auditor != nil {
				_, _, violated := se.auditor.Stats()
				row.AuditViolations = int64(violated)
			}
		}
		se.mu.Unlock()
		st.Sessions = append(st.Sessions, row)
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Namespace < st.Sessions[j].Namespace })
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BeginDrain flips the service into graceful drain: KV requests get 503 +
// Retry-After, /readyz reports not ready, in-flight requests finish. Stats
// and metrics stay live.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether the service refuses new KV work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close releases every session (each session's client in turn releases its
// connections and store). Callers drain first; Close does not wait.
func (s *Service) Close() error {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.order))
	for _, ns := range s.order {
		sessions = append(sessions, s.sessions[ns])
	}
	s.mu.Unlock()
	var first error
	for _, se := range sessions {
		se.mu.Lock()
		if se.client != nil {
			if err := se.client.Close(); err != nil && first == nil {
				first = err
			}
			se.client, se.kv = nil, nil
			se.initErr = fmt.Errorf("kvservice: session %q closed", se.ns)
		}
		se.mu.Unlock()
	}
	return first
}

// Handler returns the service's HTTP API:
//
//	GET  /v1/kv/{ns}/{slot}   read a slot (the body is the value verbatim)
//	PUT  /v1/kv/{ns}/{slot}   write a slot (the body is the value verbatim)
//	GET  /v1/stats            per-session counters + fleet totals (JSON)
//	GET  /metrics             Prometheus text
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while draining)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/kv/{ns}/{slot}", s.handleGet)
	mux.HandleFunc("PUT /v1/kv/{ns}/{slot}", s.handlePut)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.refuseIfDraining(w) {
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ready\n")
	})
	return mux
}

func (s *Service) refuseIfDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining, retry := s.draining, s.opts.RetryAfter
	s.mu.Unlock()
	if !draining {
		return false
	}
	secs := int(retry / time.Second)
	if secs == 0 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "kvservice: draining, retry shortly", http.StatusServiceUnavailable)
	return true
}

// reqSlot parses the {ns}/{slot} path values; it writes the error response
// itself when they don't parse.
func (s *Service) reqSlot(w http.ResponseWriter, r *http.Request) (ns string, slot int, ok bool) {
	ns = r.PathValue("ns")
	slot, err := strconv.Atoi(r.PathValue("slot"))
	if err != nil {
		http.Error(w, fmt.Sprintf("kvservice: bad slot %q", r.PathValue("slot")), http.StatusBadRequest)
		return "", 0, false
	}
	return ns, slot, true
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	ns, slot, ok := s.reqSlot(w, r)
	if !ok {
		return
	}
	value, err := s.Get(ns, slot)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	io.WriteString(w, value)
}

func (s *Service) handlePut(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	ns, slot, ok := s.reqSlot(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.valueBytes)+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("kvservice: read value: %v", err), http.StatusRequestEntityTooLarge)
		return
	}
	if err := s.Put(ns, slot, string(body)); err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatsSnapshot())
}

// statusOf maps a Get/Put error to its HTTP status: caller mistakes (bad
// or excess namespace, bad slot, oversized value) are 400/413, anything
// else — whatever its text — is the backend's and a 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errNamespace), errors.Is(err, errSessionLimit), errors.Is(err, errSlotRange):
		return http.StatusBadRequest
	case errors.Is(err, errValueSize):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// handleMetrics exports the fleet counters in Prometheus text format.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.StatsSnapshot()
	var violations int64
	for _, row := range st.Sessions {
		violations += row.AuditViolations
	}
	s.mu.Lock()
	getHist, putHist := s.getHist, s.putHist
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("oramkv_gets_total", "Get requests served successfully.", st.Gets)
	counter("oramkv_puts_total", "Put requests served successfully.", st.Puts)
	counter("oramkv_errors_total", "Requests that failed inside a session (bad input or backend fault).", st.Errors)
	counter("oramkv_rejected_total", "Requests refused before a session existed (invalid namespace, session cap).", st.Rejected)
	counter("oramkv_audit_violations_total", "Live-auditor trace deviations, summed over sessions.", violations)
	fmt.Fprintf(w, "# HELP oramkv_sessions Namespaces this service hosts.\n# TYPE oramkv_sessions gauge\noramkv_sessions %d\n", len(st.Sessions))
	getHist.WritePrometheus(w, "oramkv_get_latency_seconds")
	putHist.WritePrometheus(w, "oramkv_put_latency_seconds")
}
