// Command oramkv runs the ORAM-backed key-value service: a long-lived HTTP
// front end hosting one oblivious RAM per namespace, so many tenants read
// and write records against a shared obstore fleet without the fleet — or
// anyone watching its wire — learning which records any tenant touches.
// (This is the paper's closing observation put to work: its sorting
// algorithm accelerates the inner loop of ORAM simulation, and an ORAM is
// exactly the engine a private KV store needs.)
//
// Usage:
//
//	# memory-backed, for a quick look
//	oramkv -addr :9230
//
//	# the real thing: a 4-shard namespaced obstore fleet, multiplexed wire
//	obstore -addr :9220 -namespaces -h2c &   (×4, ports 9220-9223)
//	oramkv -addr :9230 -shard-urls http://localhost:9220,http://localhost:9221,http://localhost:9222,http://localhost:9223 -multiplex
//
//	curl -X PUT -d 'attack at dawn' localhost:9230/v1/kv/alice/3
//	curl localhost:9230/v1/kv/alice/3
//	curl localhost:9230/v1/stats
//
// Endpoints: GET/PUT /v1/kv/{ns}/{slot} (the body is the value verbatim,
// up to (B-1)*8 bytes), GET /v1/stats (per-session counters + fleet
// totals), GET /metrics (Prometheus), GET /healthz, GET /readyz.
//
// Each namespace is an independent session: its own oblivext client, its
// own ORAM, its own namespace on the obstore fleet (its own journal and
// replay window there). Sessions materialize on first use, up to
// -max-sessions. With -drain D, SIGTERM keeps the process up for D while
// KV requests get 503 + Retry-After and /readyz reports not-ready, then
// shuts down — the same restart contract obstore honors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oblivext"
	"oblivext/internal/kvservice"
)

func main() {
	addr := flag.String("addr", ":9230", "listen address")
	b := flag.Int("b", 8, "oblivious block size B in words (slot capacity is (B-1)*8 bytes)")
	cache := flag.Int("cache", 0, "client cache size per session in words (0: oblivext's default)")
	slots := flag.Int("slots", 64, "ORAM capacity per namespace in logical slots")
	sorter := flag.String("sorter", "", "sorter engine for ORAM rebuilds, where the ORAM is a hierarchy (empty: auto)")
	workers := flag.Int("workers", 0, "parallel in-cache compute workers per session (0: serial)")
	seed := flag.Uint64("seed", 1, "PRF seed base; each namespace derives its own seed from it deterministically")
	url := flag.String("url", "", "back every session on this obstore server (requires -namespaces on it)")
	shardURLs := flag.String("shard-urls", "", "comma-separated obstore URLs to stripe each session's blocks across")
	authToken := flag.String("auth-token", "", "bearer token presented to the obstore fleet")
	multiplex := flag.Bool("multiplex", false, "share one process-wide HTTP/2 transport across all sessions (servers need -h2c on cleartext listeners)")
	maxSessions := flag.Int("max-sessions", 0, "cap on concurrent namespaces (0: default 64)")
	audit := flag.Bool("audit", false, "run each session's live obliviousness auditor (violations surface in /v1/stats and /metrics)")
	drain := flag.Duration("drain", 0, "on SIGTERM, answer KV requests with 503 + Retry-After for this long before shutting down")
	flag.Parse()

	cfg := oblivext.Config{
		BlockSize:  *b,
		CacheWords: *cache,
		Sorter:     *sorter,
		Workers:    *workers,
		Seed:       *seed,
		URL:        *url,
		AuthToken:  *authToken,
		Multiplex:  *multiplex,
	}
	if *shardURLs != "" {
		urls := strings.Split(*shardURLs, ",")
		cfg.NumShards = len(urls)
		cfg.ShardURLs = urls
	}
	svc, err := kvservice.New(kvservice.Options{
		Base:        cfg,
		Slots:       *slots,
		MaxSessions: *maxSessions,
		Audit:       *audit,
		RetryAfter:  *drain,
	})
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		if *drain > 0 {
			svc.BeginDrain()
			log.Printf("oramkv: draining for %v (KV requests 503 with Retry-After, /readyz not ready)", *drain)
			time.Sleep(*drain)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("oramkv: shutdown did not drain cleanly: %v", err)
		}
	}()

	backend := "memory"
	switch {
	case *shardURLs != "":
		backend = fmt.Sprintf("%d shards (%s)", cfg.NumShards, *shardURLs)
	case *url != "":
		backend = *url
	}
	log.Printf("oramkv: serving %d-slot ORAMs (B=%d, %d-byte values) on %s (backend: %s, multiplex: %v)",
		*slots, *b, svc.ValueBytes(), *addr, backend, *multiplex)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	stop()
	<-shutdownDone

	st := svc.StatsSnapshot()
	log.Printf("oramkv: shutting down; %d sessions served %d gets, %d puts, %d errors",
		len(st.Sessions), st.Gets, st.Puts, st.Errors)
	if err := svc.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oramkv:", err)
	os.Exit(1)
}
