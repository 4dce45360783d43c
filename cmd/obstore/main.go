// Command obstore runs Bob as a real process: an HTTP block-storage server
// speaking the netstore protocol. It stores fixed-size blocks in memory or
// in a file and journals the per-block access sequence it observes to disk —
// the adversary's view of the paper's model (§1), recorded by the adversary
// itself, which is what the end-to-end obliviousness tests audit.
//
// Usage:
//
//	obstore -addr :9220 -blocks 4096 -b 8 -journal /tmp/bob.trace
//	obstore -addr :9221 -file /tmp/bob.dat -blocks 65536 -b 16
//	obstore -addr :9222 -tls-cert cert.pem -tls-key key.pem -auth-token s3cret
//
// Point a client at it:
//
//	obsort -n 100000 -url http://localhost:9220
//	obsort -n 100000 -url https://localhost:9222 -tls-ca cert.pem -auth-token s3cret -encrypt
//
// With -tls-cert/-tls-key the server speaks HTTPS; with -auth-token every
// endpoint requires a matching "Authorization: Bearer" header. Neither
// affects what Bob stores: for that, the *client* sets EncryptionKey
// (obsort -encrypt) so blocks arrive already sealed — a sealed block
// occupies B+2 elements, so run the server with -b set to the client's
// BlockSize+2 (see docs/THREAT_MODEL.md).
//
// Endpoints: POST /v1/io (batched binary data plane), GET /v1/info
// (geometry), POST /v1/grow, GET /v1/trace (journal fingerprint:
// length + FNV-1a hash + request/replay counts), POST /v1/trace/reset,
// GET /metrics (Prometheus text: request/block/byte counters, latency
// histogram, replay and auth-failure counts, journal length),
// GET /healthz (liveness, unauthenticated), and GET /readyz (readiness,
// unauthenticated: 503 while draining or after a journal write failure).
// With -pprof ADDR a second listener serves net/http/pprof under the same
// TLS certificate and bearer token as the data endpoints.
//
// With -drain D, SIGTERM starts a graceful drain: for D the server keeps
// running but answers data-plane requests with 503 plus a Retry-After hint
// of D, and /readyz reports not-ready. A well-behaved client waits the hint
// and replays — the restart is absorbed by the retry path, with no failover
// and no error surfacing — while an orchestrator watching /readyz routes
// new work elsewhere. Only after D does the listener close.
//
// With -namespaces the server is multi-tenant (service mode): the first
// request naming a new namespace lazily gets its own isolated store (memory,
// or "<-file>.<ns>" when file-backed), journal (-journal-dir writes
// <dir>/<ns>.trace), /v1/trace fingerprint, and replay-suppression window;
// GET /v1/namespaces lists the tenants. With -h2c the listener additionally
// accepts unencrypted HTTP/2, so multiplexed clients (oblivext
// Config.Multiplex) share a few long-lived connections across all sessions:
//
//	obstore -addr :9220 -namespaces -journal-dir /tmp/bob-journals -h2c
package main

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

func main() {
	addr := flag.String("addr", ":9220", "listen address")
	blocks := flag.Int("blocks", 4096, "initial store capacity in blocks (grows on client request; in memory, not preallocated: memory is committed 1 MiB at a time as blocks are first written)")
	b := flag.Int("b", 8, "block size B in elements")
	file := flag.String("file", "", "back the store with this file (default: in-memory)")
	journal := flag.String("journal", "", "write one line per observed block access to this file (truncated at startup, so the file always matches this run's /v1/trace fingerprint)")
	traceKeep := flag.Int("trace-keep", 0, "journal ops retained verbatim in memory (hash covers all regardless)")
	tlsCert := flag.String("tls-cert", "", "serve HTTPS with this PEM certificate (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "PEM private key for -tls-cert")
	authToken := flag.String("auth-token", "", "require this bearer token on every request (Authorization: Bearer <token>)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this extra listener, behind the same TLS and bearer auth as the data endpoints (default: off)")
	drain := flag.Duration("drain", 0, "on SIGTERM, refuse data-plane requests with 503 + Retry-After for this long before closing the listener, so clients absorb the restart by retrying (default: shut down immediately)")
	namespaces := flag.Bool("namespaces", false, "serve in multi-tenant service mode: the first request naming a new namespace gets its own isolated store (in-memory, or a per-namespace file next to -file), journal, trace fingerprint, and replay window")
	maxNamespaces := flag.Int("max-namespaces", 0, "cap on tenants a -namespaces server will create (0 selects the default of 1024)")
	journalDir := flag.String("journal-dir", "", "with -namespaces, write each namespace's journal to <dir>/<ns>.trace (the default tenant's stays on -journal)")
	h2c := flag.Bool("h2c", false, "accept unencrypted HTTP/2 (h2c) alongside HTTP/1.1, so multiplexed clients (oblivext Config.Multiplex) share connections on cleartext listeners; HTTP/2 over TLS is on regardless")
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		fatal(fmt.Errorf("-tls-cert and -tls-key must be set together"))
	}

	var store extmem.BlockStore
	if *file != "" {
		fs, err := extmem.NewFileStore(*file, *blocks, *b)
		if err != nil {
			fatal(err)
		}
		store = fs
	} else {
		store = extmem.NewMemStore(*blocks, *b)
	}

	opts := netstore.ServerOptions{TraceKeep: *traceKeep, AuthToken: *authToken}
	var jf *os.File
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fatal(err)
		}
		jf = f
		opts.Journal = f
	}
	if !*namespaces && (*journalDir != "" || *maxNamespaces != 0) {
		fatal(fmt.Errorf("-journal-dir and -max-namespaces require -namespaces"))
	}
	if *namespaces {
		opts.MaxNamespaces = *maxNamespaces
		opts.StoreFactory = func(ns string) (extmem.BlockStore, error) {
			// The namespace alphabet ([a-zA-Z0-9._-], no separators) is safe
			// to splice into file names verbatim.
			if *file != "" {
				return extmem.NewFileStore(*file+"."+ns, *blocks, *b)
			}
			return extmem.NewMemStore(*blocks, *b), nil
		}
		if *journalDir != "" {
			if err := os.MkdirAll(*journalDir, 0o755); err != nil {
				fatal(err)
			}
			opts.JournalFactory = func(ns string) (io.Writer, error) {
				return os.Create(filepath.Join(*journalDir, ns+".trace"))
			}
		}
	}

	srv := netstore.NewServer(store, opts)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound header parsing and idle keep-alives; body read/write stay
		// unbounded because batch sizes (up to the 256 MiB wire cap) over
		// slow links can legitimately take a while.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *h2c {
		netstore.ConfigureMuxServer(hs)
	}

	var ps *http.Server
	if *pprofAddr != "" {
		// Profiling data reveals the server's workload shape, so the pprof
		// listener sits behind exactly the credentials the data plane uses —
		// never an open side door next to an authenticated front one.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		var ph http.Handler = pm
		if *authToken != "" {
			ph = bearerAuth(*authToken, pm)
		}
		ps = &http.Server{Addr: *pprofAddr, Handler: ph, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			var err error
			if *tlsCert != "" {
				err = ps.ListenAndServeTLS(*tlsCert, *tlsKey)
			} else {
				err = ps.ListenAndServe()
			}
			if err != nil && err != http.ErrServerClosed {
				log.Printf("obstore: pprof listener: %v", err)
			}
		}()
		log.Printf("obstore: pprof on %s", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		if *drain > 0 {
			// Graceful phase: stay up, bounce new data-plane work with 503 +
			// Retry-After so in-flight clients replay after the restart
			// instead of failing over, and flip /readyz so orchestrators
			// stop routing here. The listener closes only after the window.
			srv.BeginDrain(*drain)
			log.Printf("obstore: draining for %v (data plane 503s with Retry-After, /readyz not ready)", *drain)
			time.Sleep(*drain)
		}
		// Drain generously: request bodies are unbounded by design (large
		// batches over slow links), and closing the journal/store under a
		// still-running handler would corrupt the very audit record the
		// shutdown log is about to fingerprint.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("obstore: shutdown did not drain cleanly: %v", err)
		}
		if ps != nil {
			ps.Close()
		}
	}()

	backing := "memory"
	if *file != "" {
		backing = *file
	}
	jdesc := "off"
	if *journal != "" {
		jdesc = *journal
	}
	security := "http, no auth"
	switch {
	case *tlsCert != "" && *authToken != "":
		security = "https + bearer auth"
	case *tlsCert != "":
		security = "https, no auth"
	case *authToken != "":
		security = "http + bearer auth"
	}
	log.Printf("obstore: serving %d blocks of %d elements on %s (store: %s, journal: %s, %s)",
		*blocks, *b, *addr, backing, jdesc, security)
	var serveErr error
	if *tlsCert != "" {
		serveErr = hs.ListenAndServeTLS(*tlsCert, *tlsKey)
	} else {
		serveErr = hs.ListenAndServe()
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		fatal(serveErr)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to drain in-flight handlers before touching the journal and
	// store they may still be writing to.
	stop()
	<-shutdownDone

	sum := srv.TraceSummary()
	log.Printf("obstore: shutting down; observed %d accesses, trace hash %016x", sum.Len, sum.Hash)
	// In service mode, every tenant's fingerprint — the operator's shutdown
	// cross-check against what each client printed (and each -journal-dir
	// file holds) covers all namespaces, not just the default.
	for _, ns := range srv.Namespaces() {
		if ns == "" {
			continue // the default tenant is the line above
		}
		nsum := srv.TraceSummaryNS(ns)
		log.Printf("obstore: namespace %q observed %d accesses, trace hash %016x", ns, nsum.Len, nsum.Hash)
	}
	if jf != nil {
		if err := jf.Close(); err != nil {
			fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// bearerAuth guards h with the same constant-time bearer-token check the
// netstore server applies to the data endpoints.
func bearerAuth(token string, h http.Handler) http.Handler {
	digest := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		d := sha256.Sum256([]byte(got))
		if !ok || subtle.ConstantTimeCompare(d[:], digest[:]) != 1 {
			http.Error(w, "obstore: missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obstore:", err)
	os.Exit(1)
}
