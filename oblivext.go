// Package oblivext is a data-oblivious external-memory toolkit: an
// implementation of Goodrich, "Data-Oblivious External-Memory Algorithms
// for the Compaction, Selection, and Sorting of Outsourced Data"
// (SPAA 2011).
//
// A Client models the paper's setting: your process is Alice, with a small
// private cache; the block store is Bob, an honest-but-curious storage
// server that sees every block address you touch but none of the (possibly
// encrypted) contents. Every operation on an outsourced Array — Sort,
// Select, Quantiles, the compactions — produces an access trace whose
// distribution is independent of the stored values, so the server learns
// nothing from watching you work.
//
//	client, _ := oblivext.New(oblivext.Config{BlockSize: 8, CacheWords: 512})
//	arr, _ := client.Store(records)
//	_ = arr.Sort()
//	median, _ := arr.Select(arr.Len()/2 + 1)
//
// The ORAM type provides general-purpose oblivious reads and writes on top
// of the same machinery: a full scan where that is cheapest, and otherwise
// a hierarchy whose rebuilds the paper's sorting algorithm accelerates.
package oblivext

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/extmem/replica"
	"oblivext/internal/extmem/shard"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

// Record is one key-value item of outsourced data.
type Record struct {
	Key uint64
	Val uint64
}

// startBlocks is every store's initial capacity in blocks, split across
// shards; every store grows on demand (a file store extends its file).
const startBlocks = 1024

// Config describes the external-memory geometry and backing store.
type Config struct {
	// BlockSize is B: elements per block. Must be a power of two. Default 8.
	BlockSize int
	// CacheWords is M: the private cache size in elements. Default 64·B.
	CacheWords int
	// Seed seeds the random tape; runs with equal seeds are reproducible.
	Seed uint64
	// Sorter selects the engine behind Array.Sort and the ORAM's level
	// rebuilds, which an ORAM has only where its arm is the hierarchy (see
	// NewORAM); on the scan arm it sorts nothing and rejects nothing but an
	// unknown name or "columnsort": "randomized" (the paper's randomized
	// sort), "bitonic", "columnsort", "zigzag", or "auto". The two defaults
	// differ: "" means "randomized" for Array.Sort and "auto" for the ORAM's
	// rebuilds. Both resolve the name in one place, core.Engine, at each
	// sort: "auto" picks from the sort's geometry (array size, B, M, the
	// cache free at the call) and the backend kind — round-trip cost for
	// Array.Sort over network stores, block volume otherwise and for every
	// rebuild; the pick is a public function of the geometry, so traces stay
	// data-independent.
	// "randomized" needs 6·B elements of cache free for arrays of 3 blocks
	// or more: below that, Array.Sort returns an error before any I/O and
	// NewORAM rejects it for a hierarchy. Every engine needs 2·B elements
	// of cache free, or Array.Sort returns an error before any I/O. Beyond
	// that the deterministic engines never fail. "columnsort" takes only
	// arrays within its size limit: named for any other, Array.Sort returns
	// an error before any I/O, and NewORAM rejects it ("auto" takes it
	// wherever it fits and is cheapest). See docs/ARCHITECTURE.md, "Sorter
	// engines".
	Sorter string
	// Path, when non-empty, backs the store with a real file at that path
	// instead of memory.
	Path string
	// EncryptionKey, when 32 bytes long, makes Alice encrypt client-side:
	// every block is sealed with AES-256-GCM under a per-session subkey and
	// a fresh counter nonce per write — the semantically secure
	// re-encryption the paper assumes — before it leaves the process, for
	// *every* backend (memory, file, sharded, and the HTTP network store
	// alike). Bob only ever holds salt‖counter‖ciphertext‖tag; see
	// docs/THREAT_MODEL.md. A sealed block occupies
	// BlockSize + 2 elements on the backend, so a network server must be
	// provisioned with that block size (obstore -b BlockSize+2).
	EncryptionKey []byte
	// NumShards, when > 1, stripes the store across that many child
	// backends (logical block a lives on shard a mod NumShards) and fans
	// every vectored call out to the shards in parallel. The per-block
	// trace is unchanged — each shard sees the residue-class projection of
	// the same sequence — and a client waiting on K parallel responses
	// waits for the slowest shard, not for their sum.
	NumShards int
	// ShardPaths, when non-empty, backs each shard with a file at the
	// given path (length must equal NumShards); otherwise shards are
	// in-memory. With EncryptionKey set the shard files hold ciphertext
	// only (blocks are sealed above the fan-out).
	ShardPaths []string
	// Deprecated: no effect; Alice's compute is serial.
	Workers int
	// URL, when non-empty, backs the store with a real remote Bob: an
	// obstore server (cmd/obstore) at this base URL, spoken to over the
	// batched binary HTTP protocol — every vectored store call is exactly
	// one request. The server's block size must equal BlockSize (or
	// BlockSize+2 with EncryptionKey set: sealed blocks carry the
	// salt+counter+tag envelope). Measured round-trip stats are read back
	// with MeasuredNetworkStats.
	URL string
	// ShardURLs backs individual shards with remote obstore servers; when
	// non-empty its length must equal NumShards. Entries may be empty to
	// mix backends: shard i uses ShardURLs[i] when set, else ShardPaths[i]
	// when set, else memory. The fan-out then hits K real servers in
	// parallel, unchanged.
	ShardURLs []string
	// Replicas, when > 1, gives every shard R redundant copies: writes fan
	// out to all live replicas, reads are served by the healthiest one, and
	// per-replica circuit breakers route around failures (failover) while
	// remembering missed writes for read-repair. Replication composes with
	// sharding — logical shard i becomes an R-way replica group — and each
	// replica sees the same data-independent trace the shard would have
	// seen, so obliviousness is unchanged; see docs/ARCHITECTURE.md,
	// "Fault tolerance". Backends are in-memory unless ReplicaURLs names
	// real servers.
	Replicas int
	// ReplicaURLs backs individual replicas with remote obstore servers,
	// flat in shard-major order: entry i·Replicas+j is replica j of shard
	// i, so the length must equal max(NumShards,1)·Replicas. Entries may be
	// empty to mix backends (an empty entry is an in-memory replica).
	// Requires Replicas > 1; mutually exclusive with URL and ShardURLs.
	ReplicaURLs []string
	// HTTPTransport, when non-nil, replaces the shared HTTP transport used
	// for every network backend. This is the fault-injection seam: the
	// chaos harness (internal/chaos) wraps a real transport with a
	// deterministic fault schedule and hands it in here. TLS settings from
	// TLSRootCA/TLSInsecureSkipVerify are NOT applied to a caller-supplied
	// transport — configure it fully.
	HTTPTransport http.RoundTripper
	// NetTimeout bounds each HTTP attempt against a network backend
	// (default 10s).
	NetTimeout time.Duration
	// NetRetries is how many times a failed network request is replayed
	// before giving up (0 selects the default of 3; -1 disables retries
	// entirely for fail-fast runs). Requests are idempotent and carry a
	// stable id, so replays are safe and the server journals them once.
	NetRetries int
	// AuthToken, when non-empty, is presented to every network backend as
	// an "Authorization: Bearer" credential; it must match the server's
	// -auth-token. A mismatch is a permanent 401, not a retried fault.
	AuthToken string
	// TLSRootCA, when non-empty, is the path to a PEM file of root
	// certificates to trust when dialing https:// backends — typically the
	// self-signed certificate an obstore was started with (-tls-cert).
	// System roots apply when unset.
	TLSRootCA string
	// TLSInsecureSkipVerify disables server-certificate verification for
	// https:// backends. Smoke tests only: it surrenders authentication of
	// Bob, leaving the connection open to man-in-the-middle interception
	// (contents stay protected by EncryptionKey, but the access trace and
	// data integrity guarantees against an *active* network attacker do
	// not).
	TLSInsecureSkipVerify bool
	// Namespace scopes this session's traffic to one tenant of a
	// multi-tenant (service-mode) obstore fleet. Each namespace is its own
	// block address space with its own server-side journal, trace
	// fingerprint, and replay-suppression window, so N concurrent Clients
	// in different namespaces share servers without sharing any observable
	// state. Carried inline on data-plane requests and as ?ns= on control
	// requests; empty (the default) selects the default tenant. Otherwise
	// 1..64 characters of [a-zA-Z0-9._-].
	Namespace string
	// Multiplex hands every network backend the process-wide multiplexed
	// transport (netstore.SharedTransport): HTTP/2 streams over a handful
	// of long-lived connections shared by ALL Clients in the process, so a
	// service running many sessions pays connections per server, not per
	// session × shard. Requires servers that accept unencrypted HTTP/2 on
	// cleartext listeners (cmd/obstore -h2c, or any
	// netstore.ConfigureMuxServer'd server). Mutually exclusive with
	// HTTPTransport/TLSRootCA/TLSInsecureSkipVerify: the shared transport
	// is process-global, so per-session transport or TLS settings cannot
	// apply to it.
	Multiplex bool
}

// Client is Alice: a private cache plus a connection to the block store.
// Not safe for concurrent use (the internal concurrency — the shard and
// replica fan-outs — stays behind the single-caller API).
type Client struct {
	env        *extmem.Env
	store      extmem.BlockStore
	sharded    *shard.ShardedStore // non-nil when NumShards > 1 or ShardPaths/ShardURLs is set
	replicated []*replica.Store    // per-shard replica groups; nil without Replicas > 1
	netClients []*netstore.Client  // remote backends, shard-major; nil when none is an HTTP store
	sorter     string              // validated Config.Sorter ("" = randomized)
}

// New creates a client.
func New(cfg Config) (*Client, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 8
	}
	if cfg.BlockSize < 2 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("oblivext: BlockSize must be a power of two >= 2, got %d", cfg.BlockSize)
	}
	if cfg.CacheWords == 0 {
		cfg.CacheWords = 64 * cfg.BlockSize
	}
	if cfg.CacheWords < 4*cfg.BlockSize {
		return nil, fmt.Errorf("oblivext: CacheWords must be at least 4·BlockSize")
	}
	if cfg.Sorter != "" && !obsort.ValidEngine(cfg.Sorter) {
		return nil, fmt.Errorf("oblivext: unknown Sorter %q (valid: %s, or empty for randomized)",
			cfg.Sorter, strings.Join(obsort.EngineNames(), ", "))
	}
	if cfg.NumShards < 0 {
		return nil, fmt.Errorf("oblivext: NumShards must be >= 0, got %d", cfg.NumShards)
	}
	if len(cfg.ShardPaths) > 0 && len(cfg.ShardPaths) != cfg.NumShards {
		return nil, fmt.Errorf("oblivext: got %d ShardPaths for %d shards", len(cfg.ShardPaths), cfg.NumShards)
	}
	if len(cfg.ShardURLs) > 0 && len(cfg.ShardURLs) != cfg.NumShards {
		return nil, fmt.Errorf("oblivext: got %d ShardURLs for %d shards", len(cfg.ShardURLs), cfg.NumShards)
	}
	if cfg.URL != "" && cfg.Path != "" {
		return nil, errors.New("oblivext: URL and Path are mutually exclusive")
	}
	if cfg.URL != "" && (cfg.NumShards > 1 || len(cfg.ShardURLs) > 0 || len(cfg.ShardPaths) > 0) {
		return nil, errors.New("oblivext: with sharding use ShardURLs, not URL")
	}
	if cfg.NetTimeout < 0 || cfg.NetRetries < -1 {
		return nil, errors.New("oblivext: NetTimeout must be non-negative and NetRetries >= -1")
	}
	if !netstore.ValidNamespace(cfg.Namespace) {
		return nil, fmt.Errorf("oblivext: invalid Namespace %q (want 1..%d chars of [a-zA-Z0-9._-])",
			cfg.Namespace, netstore.MaxNamespaceLen)
	}
	if cfg.Multiplex && (cfg.HTTPTransport != nil || cfg.TLSRootCA != "" || cfg.TLSInsecureSkipVerify) {
		return nil, errors.New("oblivext: Multiplex uses the process-wide shared transport; it cannot combine with HTTPTransport or per-session TLS settings")
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("oblivext: Replicas must be >= 0, got %d", cfg.Replicas)
	}
	if cfg.Replicas <= 1 && len(cfg.ReplicaURLs) > 0 {
		return nil, errors.New("oblivext: ReplicaURLs require Replicas > 1")
	}
	if cfg.Replicas > 1 {
		if cfg.URL != "" || len(cfg.ShardURLs) > 0 {
			return nil, errors.New("oblivext: with Replicas > 1 use ReplicaURLs, not URL/ShardURLs")
		}
		if cfg.Path != "" || len(cfg.ShardPaths) > 0 {
			return nil, errors.New("oblivext: file-backed replicas are not supported; use ReplicaURLs or memory")
		}
		if want := max(cfg.NumShards, 1) * cfg.Replicas; len(cfg.ReplicaURLs) > 0 && len(cfg.ReplicaURLs) != want {
			return nil, fmt.Errorf("oblivext: got %d ReplicaURLs for %d shards x %d replicas (want %d, shard-major)",
				len(cfg.ReplicaURLs), max(cfg.NumShards, 1), cfg.Replicas, want)
		}
	}
	var enc *extmem.Encryptor
	if len(cfg.EncryptionKey) > 0 {
		var err error
		enc, err = extmem.NewEncryptor(cfg.EncryptionKey)
		if err != nil {
			return nil, err
		}
	}
	// With encryption the backends hold sealed blocks: every child store is
	// provisioned with the inflated block size and the CryptStore decorator
	// at the top of the stack translates, so the Disk and the algorithms see
	// plaintext blocks of BlockSize elements regardless.
	innerB := cfg.BlockSize
	if enc != nil {
		innerB = extmem.CryptChildBlockSize(cfg.BlockSize)
	}

	netOpts := netstore.Options{Timeout: cfg.NetTimeout, AuthToken: cfg.AuthToken, Namespace: cfg.Namespace}
	switch {
	case cfg.NetRetries == -1:
		netOpts.MaxAttempts = 1 // fail-fast: the first attempt is the only one
	case cfg.NetRetries > 0:
		netOpts.MaxAttempts = cfg.NetRetries + 1
	}
	if cfg.TLSRootCA != "" || cfg.TLSInsecureSkipVerify {
		tc := &tls.Config{InsecureSkipVerify: cfg.TLSInsecureSkipVerify}
		if cfg.TLSRootCA != "" {
			pem, err := os.ReadFile(cfg.TLSRootCA)
			if err != nil {
				return nil, fmt.Errorf("oblivext: TLSRootCA: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return nil, fmt.Errorf("oblivext: TLSRootCA %s: no certificates found", cfg.TLSRootCA)
			}
			tc.RootCAs = pool
		}
		netOpts.TLS = tc
	}
	switch {
	case cfg.Multiplex:
		// All sessions in the process interleave their requests as HTTP/2
		// streams on the shared transport's few long-lived connections.
		netOpts.Transport = netstore.SharedTransport()
	case cfg.HTTPTransport != nil:
		netOpts.Transport = cfg.HTTPTransport
	}

	// The sharded constructor takes a one-entry ShardPaths/ShardURLs too, so
	// the named backend serves the store through the same code as K > 1.
	sharded := cfg.NumShards > 1 || len(cfg.ShardPaths) > 0 || len(cfg.ShardURLs) > 0
	if sharded && cfg.Path != "" {
		return nil, errors.New("oblivext: with NumShards > 1 use ShardPaths, not Path")
	}

	// The fleet is a grid of leaves, one row per shard and one column per
	// replica: a row of several becomes a replica group, and the rows are
	// striped by the sharded fan-out, so a shard's sub-batch fans out again
	// across its replicas.
	c := &Client{sorter: cfg.Sorter}
	shards, reps := max(cfg.NumShards, 1), max(cfg.Replicas, 1)
	perShard := extmem.CeilDiv(startBlocks, shards)
	var opened []extmem.BlockStore // every leaf so far, for the error paths
	fail := func(err error) (*Client, error) {
		for _, s := range opened {
			s.Close()
		}
		return nil, err
	}
	// openLeaf opens replica j of shard i: the obstore at url, else the file
	// at path, else memory.
	openLeaf := func(i, j int, url, path string) (extmem.BlockStore, error) {
		switch {
		case url != "":
			if netOpts.Transport == nil {
				// All network clients share one keep-alive transport whose
				// idle pool is sized to the fan-out: one vectored call puts
				// a request per leaf in flight at once, and when URLs point
				// at the same host they all draw on the same per-host pool.
				// Sized right, the steady drumbeat of batched ORAM accesses
				// reuses warm connections instead of re-dialing. It carries
				// the TLS settings itself: Dial's own TLS wiring only
				// applies when Dial builds the transport.
				tr := netstore.NewTransport(shards*reps + 2)
				tr.TLSClientConfig = netOpts.TLS
				netOpts.Transport = tr
			}
			nc, err := netstore.Dial(url, netOpts)
			if err != nil {
				return nil, err
			}
			if nc.BlockSize() != innerB {
				nc.Close()
				where := ""
				switch {
				case reps > 1:
					where = fmt.Sprintf("shard %d replica %d ", i, j)
				case sharded:
					where = fmt.Sprintf("shard %d ", i)
				}
				return nil, fmt.Errorf("oblivext: %sserver block size %d != %s", where, nc.BlockSize(), wantB(cfg.BlockSize, innerB))
			}
			c.netClients = append(c.netClients, nc)
			return nc, nil
		case path != "":
			return extmem.NewFileStore(path, perShard, innerB)
		}
		return extmem.NewMemStore(perShard, innerB), nil
	}
	rows := make([]extmem.BlockStore, shards)
	for i := range rows {
		row := make([]extmem.BlockStore, reps)
		for j := range row {
			url, path := cfg.URL, cfg.Path
			switch {
			case len(cfg.ReplicaURLs) > 0:
				url = cfg.ReplicaURLs[i*reps+j]
			case len(cfg.ShardURLs) > 0:
				url = cfg.ShardURLs[i]
			}
			if len(cfg.ShardPaths) > 0 {
				path = cfg.ShardPaths[i]
			}
			leaf, err := openLeaf(i, j, url, path)
			if err != nil {
				return fail(err)
			}
			opened = append(opened, leaf)
			row[j] = leaf
		}
		rows[i] = row[0]
		if reps > 1 {
			grp, err := replica.New(row, replica.Options{})
			if err != nil {
				return fail(err)
			}
			c.replicated = append(c.replicated, grp)
			rows[i] = grp
		}
	}
	store := rows[0]
	if sharded {
		sh, err := shard.New(rows)
		if err != nil {
			return fail(err)
		}
		c.sharded = sh
		store = sh
	}
	// Alice-side encryption is the top of the store stack, directly under
	// the Disk: everything below — the sharded fan-out, the replica groups,
	// the wire — only ever handles sealed blocks.
	if enc != nil {
		cs, err := extmem.NewCryptStore(store, enc, cfg.BlockSize)
		if err != nil {
			return fail(err)
		}
		store = cs
	}
	env := extmem.NewEnvOn(store, cfg.CacheWords, cfg.Seed)
	// A network backend bounds how many blocks one request may carry; cap
	// the Disk's vectored batches to the wire limit (one limit: every server
	// passed the same block-size check) so a batch can never be rejected for
	// size. Splitting only regroups round trips — the per-block trace Bob
	// sees is unchanged. Other backends leave batches bounded by the cache
	// budget alone: up to M/B−O(1) blocks per round trip.
	if len(c.netClients) > 0 {
		env.D.SetMaxBatch(c.netClients[0].MaxBatchBlocks())
	}
	c.env, c.store = env, store
	return c, nil
}

// wantB renders the expected backend block size for a mismatch error,
// explaining the +2 sealed footprint when encryption is on.
func wantB(blockSize, innerB int) string {
	if innerB == blockSize {
		return fmt.Sprintf("BlockSize %d", blockSize)
	}
	return fmt.Sprintf("sealed block size %d (BlockSize %d + %d envelope elements; run obstore with -b %d)",
		innerB, blockSize, innerB-blockSize, innerB)
}

// Close releases the backing store.
func (c *Client) Close() error { return c.store.Close() }

// IOStats counts block I/Os — the quantity all of the paper's bounds are
// stated in — and the round trips they were batched into, the quantity
// that dominates wall-clock time when Bob is remote.
//
// Memory model: the counters are maintained by the single-goroutine Disk
// layer, so IOStats snapshots are only meaningful from the goroutine
// driving the Client. Store-level counters (per-shard, per-replica and
// measured network stats) are updated concurrently by the fan-out
// goroutines under the stores' internal locks; every Client method
// that reads them (ShardStats, ReplicaStats, MeasuredNetworkStats) is called
// after those goroutines have been joined, so the values it returns are
// settled totals, not in-flight snapshots.
type IOStats struct {
	Reads  int64
	Writes int64
	// RoundTrips counts store interactions. With vectored I/O one round
	// trip moves many blocks, so
	// RoundTrips can be far below Reads+Writes. Write-backs may also be
	// deferred and grouped: an ORAM access reads each probed bucket as one
	// interaction but buffers every write-back and flushes them as a
	// single grouped interaction at the end of the access, so its Writes
	// advance by beta per live level while RoundTrips advances by one.
	// Grouping and deferral never change the per-block trace — Reads,
	// Writes, and the recorded (kind, address) sequence are identical to
	// those of one-block round trips.
	RoundTrips int64
	// BytesSealed and BytesOpened account the client-side crypto: total
	// ciphertext bytes produced by writes and verified+decrypted by reads
	// (envelope included). Zero without EncryptionKey; benchmarks report
	// them as the crypto-overhead line.
	BytesSealed int64
	BytesOpened int64
}

// Total returns reads plus writes.
func (s IOStats) Total() int64 { return obs.Counters(s).Total() }

// Sub returns s - o, field by field: the delta between two snapshots, for
// attributing I/O to a phase without resetting the lifetime counters.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats(obs.Counters(s).Sub(obs.Counters(o)))
}

// Stats returns cumulative I/O counters. The Disk's Stats already folds in
// the crypto byte counters, so this is a whole-struct conversion: IOStats
// mirrors obs.Counters field for field, and a counter added to one without
// the other is a compile error — the snapshot can never silently drop a
// field again (TestIOStatsFullCopy pins the mirror).
func (c *Client) Stats() IOStats {
	return IOStats(c.env.D.Stats())
}

// ResetStats zeroes the I/O counters, including the crypto byte counters,
// the per-shard and per-replica traffic counters, and the measured network
// counters when configured.
func (c *Client) ResetStats() {
	c.env.D.ResetStats() // resets the sealing store's byte counters too
	if c.sharded != nil {
		c.sharded.ResetStats()
	}
	for _, grp := range c.replicated {
		grp.ResetStats()
	}
	for _, nc := range c.netClients {
		nc.ResetStats()
	}
}

// NumShards returns how many backends the store is striped across (1 when
// unsharded).
func (c *Client) NumShards() int {
	if c.sharded == nil {
		return 1
	}
	return c.sharded.NumShards()
}

// ShardIOStats is one shard's view of the traffic it served.
type ShardIOStats struct {
	// RoundTrips counts the sub-batches dispatched to this shard (each one
	// store interaction on that backend).
	RoundTrips int64
	// BlocksMoved counts blocks transferred to or from this shard.
	BlocksMoved int64
}

// NetIOStats is the measured cost of one network backend's traffic: real
// wall-clock waits on actual HTTP requests, retries and backoff included.
type NetIOStats struct {
	// Requests counts completed store interactions (retries of one request
	// do not add to it).
	Requests int64
	// Attempts counts HTTP requests actually put on the wire, retries
	// included; Attempts - Requests is the wasted wire traffic.
	Attempts int64
	// Retries counts replays forced by transport failures, timeouts, or 5xx
	// responses; zero on a healthy network.
	Retries int64
	// ReplayHits counts responses the server answered from its replay-
	// suppression window instead of re-executing — retransmissions whose
	// first execution's response was lost. Always <= Retries.
	ReplayHits int64
	// BlocksMoved counts blocks transferred in completed interactions.
	BlocksMoved int64
	// MeasuredTime is the wall-clock wait summed over interactions, first
	// attempt through final response.
	MeasuredTime time.Duration
	// MinRTT and MaxRTT are the fastest and slowest completed interactions.
	MinRTT, MaxRTT time.Duration
	// P50, P95, and P99 are per-interaction latency percentile upper bounds
	// from a fixed-bucket histogram (zero when no interactions completed).
	P50, P95, P99 time.Duration
}

// MeasuredNetworkStats returns per-server measured network counters — one
// entry per network-backed leaf, shard-major (per shard with ShardURLs, per
// replica within each shard with ReplicaURLs), a single entry with URL — or
// nil when no network backend is configured.
func (c *Client) MeasuredNetworkStats() []NetIOStats {
	if len(c.netClients) == 0 {
		return nil
	}
	out := make([]NetIOStats, len(c.netClients))
	for i, nc := range c.netClients {
		s := nc.NetStats()
		out[i] = NetIOStats{Requests: s.Requests, Attempts: s.Attempts, Retries: s.Retries,
			ReplayHits: s.ReplayHits, BlocksMoved: s.BlocksMoved,
			MeasuredTime: s.Total, MinRTT: s.Min, MaxRTT: s.Max,
			P50: s.Hist.P50(), P95: s.Hist.P95(), P99: s.Hist.P99()}
	}
	return out
}

// MeasuredNetworkTime returns the total wall-clock time spent waiting on
// network requests, summed over servers (zero without a network backend).
// With a sharded fan-out the per-server waits overlap, so elapsed time can
// be lower than this sum.
func (c *Client) MeasuredNetworkTime() time.Duration {
	var total time.Duration
	for _, nc := range c.netClients {
		total += nc.NetStats().Total
	}
	return total
}

// ReplicaIOStats is one replica's view of the traffic and faults it saw.
type ReplicaIOStats struct {
	// RoundTrips counts sub-batches dispatched to this replica; BlocksMoved
	// counts the blocks they carried. Replication overhead shows up here:
	// the per-replica BlocksMoved sum exceeds the logical Stats().Total()
	// because writes fan out to every live replica.
	RoundTrips  int64
	BlocksMoved int64
	// Failures counts failed sub-batches; Failovers counts read sub-batches
	// rerouted away from this replica after a failure.
	Failures  int64
	Failovers int64
	// Repairs counts read-repair writes applied to this replica; Dirty is
	// how many addresses are currently known stale on it.
	Repairs int64
	Dirty   int
	// State is the replica's circuit-breaker state: "closed" (healthy),
	// "open" (skipped), or "half-open" (probing).
	State string
}

// NumReplicas returns R, the replication factor (1 when unreplicated).
func (c *Client) NumReplicas() int {
	if len(c.replicated) == 0 {
		return 1
	}
	return c.replicated[0].NumReplicas()
}

// ReplicaStats returns per-replica traffic and fault counters, one slice
// per shard group in shard order (nil when unreplicated).
func (c *Client) ReplicaStats() [][]ReplicaIOStats {
	if len(c.replicated) == 0 {
		return nil
	}
	out := make([][]ReplicaIOStats, len(c.replicated))
	for i, grp := range c.replicated {
		ss := grp.ReplicaStats()
		out[i] = make([]ReplicaIOStats, len(ss))
		for j, s := range ss {
			out[i][j] = ReplicaIOStats(s)
		}
	}
	return out
}

// ReplicaEvents returns the replica layer's decision log — breaker
// transitions, failovers, repairs — across all shard groups, each line
// prefixed with its shard. Under a fixed fault schedule the log is a
// function of the fault events and the public geometry alone, never of the
// data; the chaos tests replay a schedule against different inputs and
// assert the logs are identical.
func (c *Client) ReplicaEvents() []string {
	var out []string
	for i, grp := range c.replicated {
		for _, ev := range grp.Events() {
			out = append(out, fmt.Sprintf("shard%d %s", i, ev))
		}
	}
	return out
}

// ShardStats returns per-shard traffic counters (nil when unsharded). The
// blocks moved sum to Stats().Total(); balanced entries are the round-robin
// striping doing its job.
func (c *Client) ShardStats() []ShardIOStats {
	if c.sharded == nil {
		return nil
	}
	ss := c.sharded.ShardStats()
	out := make([]ShardIOStats, len(ss))
	for i, s := range ss {
		out[i] = ShardIOStats(s)
	}
	return out
}

// EnableTrace starts recording the adversary's view (block addresses).
// keep bounds how many operations are retained verbatim; the running hash
// covers the full trace regardless.
func (c *Client) EnableTrace(keep int) {
	c.env.D.SetRecorder(trace.NewRecorder(keep))
}

// TraceSummary fingerprints the recorded trace: two runs with the same
// seed and geometry produce equal summaries regardless of the data values.
type TraceSummary struct {
	Len  int64
	Hash uint64
}

// TraceSummary returns the current trace fingerprint.
func (c *Client) TraceSummary() TraceSummary {
	s := c.env.D.Recorder().Summarize()
	return TraceSummary{Len: s.Len, Hash: s.Hash}
}

// CacheHighWater reports the peak private-memory use in elements; it never
// exceeds Config.CacheWords plus a small constant.
func (c *Client) CacheHighWater() int { return c.env.Cache.HighWater() }

// EnableSpans turns on phase spans: every subsequent operation opens a
// hierarchical span tree (engine rounds, core passes, ORAM access/rebuild
// phases) carrying per-span deltas of wall time, Reads/Writes/RoundTrips,
// and the crypto byte counters. Off by default and free when off; the
// per-block trace the server sees is bit-identical either way (spans are
// client-side bookkeeping, no I/O).
func (c *Client) EnableSpans() {
	if c.env.Obs == nil {
		c.env.EnableObs()
	}
}

// Spans returns the collected root spans (nil with spans disabled).
func (c *Client) Spans() []*obs.Span { return c.env.Obs.Roots() }

// SpanTree renders the collected spans as a human-readable tree, one line
// per phase with wall time, I/O deltas, and measured-vs-predicted I/O
// where an engine predictor applies.
func (c *Client) SpanTree() string { return obs.RenderTree(c.env.Obs.Roots()) }

// WriteChromeTrace writes the collected spans as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (c *Client) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, c.env.Obs.Roots())
}

// EnableAudit turns on the live obliviousness auditor (implies
// EnableSpans): audited spans fold their normalized access trace into a
// running fingerprint, compared at span end against the golden fingerprint
// recorded for the same (op, engine, n, B, M, placement) key. With learn
// true the first observation of each key becomes golden; with learn false
// load goldens first (LoadFile) and every divergence — including an
// unknown key — is recorded as a violation. Soundness presumes reproducible
// runs: equal Config.Seed and operation sequence, the regime the e2e
// adversary tests pin offline and this monitor enforces live.
func (c *Client) EnableAudit(learn bool) *obs.Auditor {
	c.EnableSpans()
	a := obs.NewAuditor(learn)
	c.env.Obs.SetAuditor(a)
	return a
}

// Array is an outsourced array of records held on the server in blocks.
type Array struct {
	c   *Client
	arr extmem.Array
	n   int64
}

// Store uploads records to the server, one element per record, padding the
// final block. The upload is a sequential write scan moving up to
// M/B−O(1) blocks per round trip.
func (c *Client) Store(recs []Record) (*Array, error) {
	b := c.env.B()
	nBlocks := extmem.CeilDiv(len(recs), b)
	if nBlocks == 0 {
		nBlocks = 1
	}
	arr := c.env.D.Alloc(nBlocks)
	sp := c.env.Obs.Start("store")
	sp.SetAttrInt("blocks", int64(nBlocks))
	sp.Audit(c.auditKey("store", nBlocks, arr.Base()))
	defer c.env.Obs.End(sp)
	c.env.Scan(extmem.Array{}, arr, c.env.ScanBatchN(1, nBlocks), func(lo int, chunk []extmem.Element) {
		for t, r := range recs[lo*b : min(lo*b+len(chunk), len(recs))] { // the padding stays empty
			chunk[t] = extmem.Element{Key: r.Key, Val: r.Val, Pos: uint64(lo*b + t), Flags: extmem.FlagOccupied}
		}
	})
	return &Array{c: c, arr: arr, n: int64(len(recs))}, nil
}

// Len returns the number of records stored.
func (a *Array) Len() int64 { return a.n }

// Blocks returns the array footprint in blocks.
func (a *Array) Blocks() int { return a.arr.Len() }

// Records downloads the occupied records in array order, reading up to
// M/B−O(1) blocks per round trip.
func (a *Array) Records() ([]Record, error) {
	sp := a.c.env.Obs.Start("records")
	sp.SetAttrInt("blocks", int64(a.arr.Len()))
	sp.Audit(a.c.auditKey("records", a.arr.Len(), a.arr.Base()))
	defer a.c.env.Obs.End(sp)
	env := a.c.env
	out := make([]Record, 0, a.n)
	env.Scan(a.arr, extmem.Array{}, env.ScanBatchN(1, a.arr.Len()), func(_ int, chunk []extmem.Element) {
		for _, e := range chunk {
			if e.Occupied() {
				out = append(out, Record{Key: e.Key, Val: e.Val})
			}
		}
	})
	return out, nil
}

// Sort sorts the array by key (ties broken by insertion order) with the
// engine named by Config.Sorter — by default the paper's randomized
// oblivious sort: O((N/B)·log_{M/B}(N/B)) I/Os and a data-independent
// trace, succeeding with high probability (a rare internal failure returns
// an error with the array unchanged in distribution-visible ways but
// possibly permuted). Every engine returns an error before any I/O when
// fewer than two blocks of cache are free at the call. Beyond that bitonic
// and zigzag never return an error. Columnsort returns one, naming the
// array's blocks, B and the free cache, before any I/O on an array past its
// size limit (r ≥ 2(s−1)² with a column and its deal buffer in the free
// cache); "auto" never picks it there.
func (a *Array) Sort() error {
	engine := a.c.sortEngine(a.arr.Len())
	sp := a.c.env.Obs.Start("sort")
	sp.SetAttr("engine", engine)
	sp.SetAttrInt("blocks", int64(a.arr.Len()))
	sp.Audit(a.c.auditKey("sort/"+engine, a.arr.Len(), a.arr.Base()))
	defer a.c.env.Obs.End(sp)
	return core.SortWith(a.c.env, a.arr, engine)
}

// auditKey names an operation together with every public input that
// determines its trace — the (op, engine, n, B, M, placement) geometry the
// auditor keys golden fingerprints by.
func (c *Client) auditKey(op string, nBlocks, base int) string {
	return fmt.Sprintf("%s/n=%d/B=%d/M=%d/base=%d", op, nBlocks, c.env.B(), c.env.M, base)
}

// sortEngine resolves the configured Sorter name, "" meaning "randomized",
// to a concrete engine for an array of nBlocks blocks (core.Engine). "auto"
// prices round trips when the store is network-backed and block volume
// otherwise; the inputs are all public (geometry, the cache free at the
// call, and backend kind), so the resolved engine — and with it the trace —
// is independent of the data.
func (c *Client) sortEngine(nBlocks int) string {
	name, backend := c.sorter, "mem"
	if name == "" {
		name = obsort.EngineRandomized
	}
	if len(c.netClients) > 0 {
		backend = "net"
	}
	return core.Engine(name, nBlocks, c.env.B(), c.env.M, c.env.M-c.env.Cache.Used(), backend)
}

// Select returns the k-th smallest record (1-based, by key with insertion-
// order ties) in O(N/B) I/Os without modifying or revealing anything about
// the data (Theorem 13).
func (a *Array) Select(k int64) (Record, error) {
	plan := core.PlanSelect(a.arr.Len(), a.arr.B(), a.c.env.M)
	sp := a.c.env.Obs.Start("select")
	sp.SetAttrInt("blocks", int64(a.arr.Len()))
	sp.SetPredicted(plan.Cost())
	sp.Audit(a.c.auditKey("select", a.arr.Len(), a.arr.Base()))
	defer a.c.env.Obs.End(sp)
	e, err := core.SelectWith(a.c.env, a.arr, k, plan)
	if err != nil {
		return Record{}, err
	}
	return Record{Key: e.Key, Val: e.Val}, nil
}

// Quantiles returns the q quantile records (ranks round(i·N/(q+1))), the
// problem of Theorem 17, by whichever costs fewer block I/Os at the array's
// geometry: one oblivious sort of the array into scratch that hands the
// ranks over as its last pass reads, or q Selects (Theorem 13), linear in
// N/B at fixed M/B and q.
func (a *Array) Quantiles(q int) ([]Record, error) {
	plan := core.PlanQuantiles(a.arr.Len(), a.arr.B(), a.c.env.M, q)
	sp := a.c.env.Obs.Start("quantiles")
	sp.SetAttrInt("blocks", int64(a.arr.Len()))
	sp.SetAttrInt("q", int64(q))
	sp.SetPredicted(plan.Cost())
	sp.Audit(a.c.auditKey(fmt.Sprintf("quantiles/q=%d", q), a.arr.Len(), a.arr.Base()))
	defer a.c.env.Obs.End(sp)
	es, err := core.QuantilesWith(a.c.env, a.arr, plan)
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(es))
	for i, e := range es {
		out[i] = Record{Key: e.Key, Val: e.Val}
	}
	return out, nil
}

// Mark applies pred to every record privately (a sequential re-encryption
// scan: the server cannot tell which records matched) and returns the
// number marked.
func (a *Array) Mark(pred func(Record) bool) (int64, error) {
	sp := a.c.env.Obs.Start("mark")
	sp.SetAttrInt("blocks", int64(a.arr.Len()))
	sp.Audit(a.c.auditKey("mark", a.arr.Len(), a.arr.Base()))
	defer a.c.env.Obs.End(sp)
	env := a.c.env
	var marked int64
	env.Scan(a.arr, a.arr, env.ScanBatchN(1, a.arr.Len()), func(_ int, chunk []extmem.Element) {
		for t := range chunk {
			chunk[t].Flags &^= extmem.FlagMarked
			if chunk[t].Occupied() && pred(Record{Key: chunk[t].Key, Val: chunk[t].Val}) {
				chunk[t].Flags |= extmem.FlagMarked
				marked++
			}
		}
	})
	return marked, nil
}

// CompactTight produces a new array of capacity/B + 1 blocks holding
// exactly the records marked by the last Mark call, in their original
// order, empties after them: Lemma 3's consolidation feeding Theorem 6's
// butterfly as it reads (Lemma 3 + Theorem 6), in core.CompactTightCost's
// block I/Os and round trips exactly. It is deterministic: the only
// declared failure is more marked records than capacity. capacity is
// public (the server sees the output size), so choose it from workload
// knowledge, not the data.
func (a *Array) CompactTight(capacity int64) (*Array, error) {
	return a.compact("compact-tight", capacity, core.CompactMarkedTight, core.CompactTightCost)
}

// CompactLoose produces a new array of 5×(capacity/B + 1) blocks holding
// the marked records among empties: the routing CompactTight runs, into the
// leading blocks, and the rest zero-filled — fewer block I/Os and round
// trips than the paper's Theorem 8 at every geometry priced, and
// deterministic: the only declared failure is more marked records than
// capacity. Callers may rely only on the marked records being somewhere in
// the output, as with any loose compaction.
func (a *Array) CompactLoose(capacity int64) (*Array, error) {
	return a.compact("compact-loose", capacity, core.CompactMarkedLoose, core.CompactLooseCost)
}

// compact runs one of the two compactions under a span of the given name,
// priced by its predictor wherever the routing can run.
func (a *Array) compact(name string, capacity int64,
	run func(*extmem.Env, extmem.Array, int) (extmem.Array, int64, error),
	cost func(n, rCap, b, m int) obs.Cost) (*Array, error) {
	env := a.c.env
	n, b := a.arr.Len(), a.arr.B()
	rCap := extmem.CeilDiv(int(capacity), b) + 1
	sp := env.Obs.Start(name)
	sp.SetAttrInt("blocks", int64(n))
	if env.M-env.Cache.Used() >= route.ConsolidateCompactFree(n, b) { // else no routing runs: the call declares the cache short
		sp.SetPredicted(cost(n, rCap, b, env.M))
	}
	sp.Audit(a.c.auditKey(name+"/cap="+strconv.FormatInt(capacity, 10), n, a.arr.Base()))
	defer env.Obs.End(sp)
	out, marked, err := run(env, a.arr, rCap)
	if err != nil {
		return nil, err
	}
	return &Array{c: a.c, arr: out, n: marked}, nil
}

// ORAM is an oblivious RAM over fixed-size word blocks: arbitrary reads
// and writes whose trace reveals nothing about the access pattern.
type ORAM struct {
	o *oram.ORAM
}

// NewORAM creates an oblivious RAM of n logical blocks of BlockSize words
// each, zero-initialized, in the shape its exact block-I/O price picks
// from n, B, M and the cache free at the call, with no knob:
//
//   - the scan, where its price is no more than the hierarchy's: every
//     access reads and rewrites all n blocks in one in-place scan, 2n block
//     I/Os in two round trips per batch of the free cache, with no hashing,
//     rebuild or overflow. A 32-block ORAM at M = 64 blocks pays 64 I/Os an
//     access this way against the hierarchy's 107, and the scan stays the
//     arm at that cache up to n ≈ 1 500;
//   - the hierarchy of hash tables otherwise (n = 4 096 at M = 64 blocks,
//     n = 64 at M = 512): an access probes one bucket per live level, and
//     level rebuilds sort with the engine named by Config.Sorter; with ""
//     or "auto" each rebuild picks one from its own geometry and the cache
//     free at its sort (a public function of n, B, M and the schedule, so
//     the trace stays deterministic in (n, B, t, seed)).
//
// The scan's trace is a function of (n, B, the free cache) alone; the
// hierarchy's is, all but its PRF-fresh bucket indices.
func (c *Client) NewORAM(n int) (*ORAM, error) {
	o, err := oram.New(c.env, n, oram.Options{Sorter: c.sorter})
	if err != nil {
		return nil, err
	}
	return &ORAM{o: o}, nil
}

// Read returns the payload of logical block i.
func (r *ORAM) Read(i int) ([]uint64, error) { return r.o.Read(i) }

// Write replaces the payload of logical block i.
func (r *ORAM) Write(i int, words []uint64) error { return r.o.Write(i, words) }

// Size returns the number of logical blocks.
func (r *ORAM) Size() int { return r.o.N() }
