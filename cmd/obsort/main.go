// Command obsort demonstrates the library end to end: it generates
// records, outsources them to a block store (in-memory, file-backed,
// sharded, or a real obstore server — with -encrypt every block is sealed
// client-side first, whatever the backend), sorts them with the selected
// oblivious sorter engine (the paper's randomized sort by default),
// verifies the result, and reports the I/O counts and trace fingerprint
// the storage server would observe.
//
// Usage:
//
//	obsort -n 100000 -b 16 -m 4096 -file /tmp/store.dat -encrypt
//	obsort -n 65536 -b 8 -sorter columnsort                      # any engine obsort -h lists
//	obsort -n 100000 -shards 4
//	obsort -n 100000 -sorter auto -url http://localhost:9220     # a real Bob (cmd/obstore)
//	obsort -n 100000 -shards 2 -urls http://h1:9220,http://h2:9220
//	obsort -n 100000 -b 16 -encrypt -url https://h:9222 -tls-ca cert.pem -auth-token s3cret
//	                                 # TLS + auth + client-side sealing (server runs -b 18)
package main

import (
	crand "crypto/rand"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"oblivext"
	"oblivext/internal/core"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
)

func main() {
	n := flag.Int("n", 50000, "number of records to sort")
	b := flag.Int("b", 16, "block size B in records (power of two)")
	m := flag.Int("m", 4096, "private cache size M in records")
	file := flag.String("file", "", "back the store with this file (default: in-memory)")
	encrypt := flag.Bool("encrypt", false, "seal every block client-side (AES-256-GCM, fresh nonce per write) before it reaches any backend; a remote obstore must run with -b = B+2")
	seed := flag.Uint64("seed", 1, "random tape seed")
	sorter := flag.String("sorter", "randomized", "sorter engine: "+strings.Join(obsort.EngineNames(), ", "))
	shards := flag.Int("shards", 1, "stripe the store across this many backends, fanned out in parallel (with -file, shard i is backed by <file>.<i>)")
	workers := flag.Int("workers", 1, "goroutines for Alice-side in-cache compute and sealing (0 or 1 = serial); the access trace is identical for every setting")
	url := flag.String("url", "", "back the store with a remote obstore server at this base URL")
	urls := flag.String("urls", "", "comma-separated obstore base URLs, one per shard (implies -shards)")
	replicas := flag.Int("replicas", 1, "replicate every shard across this many backends: writes fan out to all live replicas, reads fail over on error")
	replicaURLs := flag.String("replica-urls", "", "comma-separated obstore base URLs in shard-major order (shards x replicas entries; an empty entry is an in-memory replica); requires -replicas > 1")
	netTimeout := flag.Duration("net-timeout", 0, "per-request timeout against a network backend (0 = default 10s)")
	netRetries := flag.Int("net-retries", 0, "replays of a failed network request before giving up (0 = default 3, -1 = fail fast)")
	authToken := flag.String("auth-token", "", "bearer token presented to network backends (must match obstore -auth-token)")
	namespace := flag.String("namespace", "", "tenant namespace on a multi-tenant (-namespaces) obstore fleet: own address space, journal, and replay window")
	multiplex := flag.Bool("multiplex", false, "use the process-wide multiplexed HTTP/2 transport (servers need obstore -h2c on cleartext listeners)")
	tlsCA := flag.String("tls-ca", "", "PEM file of root certificates to trust for https:// backends (e.g. obstore's self-signed cert)")
	tlsSkipVerify := flag.Bool("tls-skip-verify", false, "disable TLS certificate verification (smoke tests only)")
	traceOut := flag.String("trace-out", "", "write the phase-span tree as Chrome trace-event JSON to this file (view at ui.perfetto.dev)")
	spanTree := flag.Bool("span-tree", false, "print the phase-span tree with per-span wall time and I/O deltas")
	audit := flag.Bool("audit", false, "run the live obliviousness auditor over the phase spans (violations go to stderr and fail the run)")
	auditGolden := flag.String("audit-golden", "", "golden trace-fingerprint file for -audit: loaded and enforced when it exists, recorded from this run otherwise")
	flag.Parse()

	cfg := oblivext.Config{BlockSize: *b, CacheWords: *m, Seed: *seed, Path: *file, Sorter: *sorter,
		NumShards: *shards, Workers: *workers,
		URL: *url, NetTimeout: *netTimeout, NetRetries: *netRetries,
		Replicas:  *replicas,
		AuthToken: *authToken, TLSRootCA: *tlsCA, TLSInsecureSkipVerify: *tlsSkipVerify,
		Namespace: *namespace, Multiplex: *multiplex}
	if *urls != "" && *file != "" {
		fatal(fmt.Errorf("-urls and -file are mutually exclusive: shards are either remote servers or local files"))
	}
	if *urls != "" {
		for _, u := range strings.Split(*urls, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				// An empty entry would silently fall back to an in-process
				// memory shard — not what someone listing servers meant.
				fatal(fmt.Errorf("-urls has an empty entry (stray comma?): %q", *urls))
			}
			cfg.ShardURLs = append(cfg.ShardURLs, u)
		}
		if *shards == 1 {
			cfg.NumShards = len(cfg.ShardURLs)
		}
	}
	if *shards > 1 && *file != "" {
		cfg.Path = ""
		for i := 0; i < *shards; i++ {
			cfg.ShardPaths = append(cfg.ShardPaths, fmt.Sprintf("%s.%d", *file, i))
		}
	}
	if *replicaURLs != "" {
		// Shard-major, empty entries allowed: "" means an in-memory replica,
		// which is how a mixed durable/fast fleet is spelled.
		for _, u := range strings.Split(*replicaURLs, ",") {
			cfg.ReplicaURLs = append(cfg.ReplicaURLs, strings.TrimSpace(u))
		}
	}
	if *encrypt {
		key := make([]byte, 32)
		if _, err := crand.Read(key); err != nil {
			fatal(err)
		}
		cfg.EncryptionKey = key
	}
	client, err := oblivext.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	client.EnableTrace(0)

	spansOn := *traceOut != "" || *spanTree || *audit
	if spansOn {
		// Spans go on before the upload so every block the store sees is
		// attributed to some phase — the root spans then sum to the lifetime
		// I/O counters exactly.
		client.EnableSpans()
	}
	var auditor *obs.Auditor
	auditLearn := true
	if *audit {
		if *auditGolden != "" {
			if _, err := os.Stat(*auditGolden); err == nil {
				auditLearn = false
			}
		}
		auditor = client.EnableAudit(auditLearn)
		if !auditLearn {
			if err := auditor.LoadFile(*auditGolden); err != nil {
				fatal(err)
			}
		}
		auditor.OnViolation = func(v obs.Violation) {
			fmt.Fprintln(os.Stderr, "obsort: OBLIVIOUSNESS VIOLATION:", v.String())
		}
	}

	r := rand.New(rand.NewPCG(*seed, 99))
	recs := make([]oblivext.Record, *n)
	for i := range recs {
		recs[i] = oblivext.Record{Key: r.Uint64(), Val: uint64(i)}
	}
	arr, err := client.Store(recs)
	if err != nil {
		fatal(err)
	}

	// Snapshot instead of reset: the lifetime counters keep running (so the
	// span tree and the server's /metrics stay comparable end to end) while
	// the sort-phase figures below are deltas from here.
	base := client.Stats()
	netBase := client.MeasuredNetworkStats()
	start := time.Now()
	if err := arr.Sort(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	got, err := arr.Records()
	if err != nil {
		fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			fatal(fmt.Errorf("verification failed at position %d", i))
		}
	}
	lifetime := client.Stats()
	st := lifetime.Sub(base)
	ts := client.TraceSummary()
	// The engine is a public function of the geometry and backend kind:
	// resolve it as Sort did, with the whole cache free, so the report
	// names the engine that actually ran.
	backend := "mem"
	if client.MeasuredNetworkStats() != nil {
		backend = "net"
	}
	engine := *sorter
	if picked := core.Engine(engine, arr.Blocks(), *b, *m, *m, backend); picked != engine {
		engine = fmt.Sprintf("%s (picked %s)", engine, picked)
	}
	fmt.Printf("sorted %d records (B=%d, M=%d) with the %s engine in %v\n",
		*n, *b, *m, engine, elapsed.Round(time.Millisecond))
	fmt.Printf("block I/O: %d reads + %d writes = %d (%.2f per data block)\n",
		st.Reads, st.Writes, st.Total(), float64(st.Total())/float64(arr.Blocks()))
	fmt.Printf("round trips: %d (%.1f blocks per store interaction)\n",
		st.RoundTrips, float64(st.Total())/float64(st.RoundTrips))
	if st.BytesSealed > 0 || st.BytesOpened > 0 {
		fmt.Printf("client-side crypto: %d bytes sealed / %d bytes opened (every block leaves as salt‖counter‖ct‖tag)\n",
			st.BytesSealed, st.BytesOpened)
	}
	if client.NumShards() > 1 {
		fmt.Printf("shards: %d —", client.NumShards())
		for i, s := range client.ShardStats() {
			fmt.Printf(" [%d] %d blocks", i, s.BlocksMoved)
		}
		fmt.Println()
	}
	if client.NumReplicas() > 1 {
		fmt.Printf("replicas: %d per shard —\n", client.NumReplicas())
		for sh, group := range client.ReplicaStats() {
			for r, s := range group {
				fmt.Printf("  shard[%d] replica[%d] (%s): %d blocks, %d failures, %d failovers, %d repairs, %d dirty\n",
					sh, r, s.State, s.BlocksMoved, s.Failures, s.Failovers, s.Repairs, s.Dirty)
			}
		}
		if ev := client.ReplicaEvents(); len(ev) > 0 {
			fmt.Printf("  %d failover/breaker decisions (first: %s)\n", len(ev), ev[0])
		}
	}
	if ns := client.MeasuredNetworkStats(); ns != nil {
		var reqs, retries, replays, upload int64
		for _, s := range ns {
			reqs += s.Requests
			retries += s.Retries
			replays += s.ReplayHits
		}
		for _, s := range netBase {
			upload += s.Requests
		}
		fmt.Printf("network (measured): %d requests total including upload (%d during sort+verify, +%d retries, %d replay hits), %v total wait\n",
			reqs, reqs-upload, retries, replays, client.MeasuredNetworkTime().Round(time.Millisecond))
		for i, s := range ns {
			fmt.Printf("  server[%d]: %d requests, %d blocks, rtt min/max %v/%v, p50/p95/p99 %v/%v/%v\n",
				i, s.Requests, s.BlocksMoved, s.MinRTT.Round(time.Microsecond), s.MaxRTT.Round(time.Microsecond),
				s.P50, s.P95, s.P99)
		}
	}
	fmt.Printf("adversary's view: %d accesses, trace hash %016x\n", ts.Len, ts.Hash)
	fmt.Printf("peak private memory: %d records (budget %d)\n", client.CacheHighWater(), *m)

	if spansOn {
		spanIO := obs.SumIO(client.Spans())
		agree := "agrees with"
		if spanIO.RoundTrips != lifetime.RoundTrips {
			agree = "DISAGREES with"
		}
		fmt.Printf("spans: %d round trips across %d root phases %s the lifetime counter (%d)\n",
			spanIO.RoundTrips, len(client.Spans()), agree, lifetime.RoundTrips)
	}
	if *spanTree {
		fmt.Print(client.SpanTree())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := client.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("phase spans written to %s (open at ui.perfetto.dev)\n", *traceOut)
	}
	if auditor != nil {
		observed, matched, violated := auditor.Stats()
		mode := "enforce"
		if auditLearn {
			mode = "learn"
		}
		fmt.Printf("obliviousness audit (%s): %d spans observed, %d matched, %d violated\n",
			mode, observed, matched, violated)
		if auditLearn && *auditGolden != "" {
			if err := auditor.SaveFile(*auditGolden); err != nil {
				fatal(err)
			}
			fmt.Printf("golden fingerprints recorded to %s\n", *auditGolden)
		}
		if violated > 0 {
			fatal(fmt.Errorf("%d audit key(s) diverged from their golden trace fingerprints", violated))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsort:", err)
	os.Exit(1)
}
