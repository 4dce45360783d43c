// Package integration holds cross-package tests that would create import
// cycles if they lived next to the code they exercise (core depends on
// oram; these tests drive oram with core's randomized sorter), plus the
// whole-stack randomized suites that need every backend at once: MemStore,
// the sharded fan-out, and the real HTTP network store.
package integration

import (
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/extmem/replica"
	"oblivext/internal/extmem/shard"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
	"oblivext/internal/trace"
)

// blockB is the block size every backend runs at.
const blockB = 8

// backendCase builds an Env over one of the storage backends with a cache
// of cacheM elements. Every backend must be indistinguishable above the
// BlockStore interface, so the same deterministic workload must pass — and
// produce the same contents — on all of them.
type backendCase struct {
	name string
	make func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env
}

// httpStore serves a fresh MemStore of blocks of b elements over a loopback
// obstore and returns a client of it and the server.
func httpStore(t *testing.T, startBlocks, b int) (*netstore.Client, *netstore.Server) {
	t.Helper()
	srv := netstore.NewServer(extmem.NewMemStore(startBlocks, b), netstore.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := netstore.Dial(ts.URL, netstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// cryptReplicaPair builds an Env over a replica pair of loopback obstores
// behind client-side encryption, and returns the two servers, whose
// journals are what the adversary sees.
func cryptReplicaPair(t *testing.T, startBlocks, cacheM int, seed uint64) (*extmem.Env, []*netstore.Server) {
	t.Helper()
	var children []extmem.BlockStore
	var servers []*netstore.Server
	for range 2 {
		c, srv := httpStore(t, startBlocks, extmem.CryptChildBlockSize(blockB))
		children, servers = append(children, c), append(servers, srv)
	}
	pair, err := replica.New(children, replica.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := extmem.NewCryptStore(pair, testEncryptor(t), blockB)
	if err != nil {
		t.Fatal(err)
	}
	return extmem.NewEnvOn(cs, cacheM, seed), servers
}

func backends() []backendCase {
	return []backendCase{
		{"mem", func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env {
			return extmem.NewEnv(startBlocks, blockB, cacheM, seed)
		}},
		{"sharded-4", func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env {
			const k = 4
			children := make([]extmem.BlockStore, k)
			for i := range children {
				children[i] = extmem.NewMemStore(extmem.CeilDiv(startBlocks, k), blockB)
			}
			sh, err := shard.New(children)
			if err != nil {
				t.Fatal(err)
			}
			return extmem.NewEnvOn(sh, cacheM, seed)
		}},
		{"network", func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env {
			c, _ := httpStore(t, startBlocks, blockB)
			return extmem.NewEnvOn(c, cacheM, seed)
		}},
		// The crypt leg runs the whole randomized suite through the
		// client-side encryption decorator: every write seals under a fresh
		// nonce, every read authenticates and opens, and — via the shared
		// trace-invariance tests — the logical trace must stay bit-identical
		// to the plaintext backends'.
		{"crypt-mem", func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env {
			cs, err := extmem.NewCryptStore(
				extmem.NewMemStore(startBlocks, extmem.CryptChildBlockSize(blockB)), testEncryptor(t), blockB)
			if err != nil {
				t.Fatal(err)
			}
			return extmem.NewEnvOn(cs, cacheM, seed)
		}},
		{"crypt-network", func(t *testing.T, startBlocks, cacheM int, seed uint64) *extmem.Env {
			c, _ := httpStore(t, startBlocks, extmem.CryptChildBlockSize(blockB))
			cs, err := extmem.NewCryptStore(c, testEncryptor(t), blockB)
			if err != nil {
				t.Fatal(err)
			}
			return extmem.NewEnvOn(cs, cacheM, seed)
		}},
	}
}

// testEncryptor builds the fixed-key encryptor the crypt backends share.
func testEncryptor(t *testing.T) *extmem.Encryptor {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*29 + 5)
	}
	enc, err := extmem.NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sorters are the rebuild engines under test, by name: the auto-selecting
// default (every rebuild picks an engine from its own public geometry),
// deterministic bitonic (Lemma 2's role), and the paper's randomized sort
// (the §1 headline configuration).
var sorters = []string{obsort.EngineAuto, obsort.EngineBitonic, obsort.EngineRandomized}

// TestORAMRandomizedBackends is the deterministic-seed randomized suite:
// for every backend × ORAM shape × rebuild sorter, a seeded stream of mixed
// reads and writes is checked against an in-memory mirror, then the full
// address space is swept. Equal seeds make failures reproducible — rerun
// with the printed case name. The first two shapes take the scan arm (the
// second is the benchmark's), the other two the hierarchy, which a cache
// of 512 blocks makes the arm from n = 64.
func TestORAMRandomizedBackends(t *testing.T) {
	cases := []struct {
		n, m, ops int
		seed      uint64
		arm       string
	}{
		{n: 16, m: 512, ops: 64, seed: 1, arm: oram.ArmScan},
		{n: 32, m: 512, ops: 96, seed: 2, arm: oram.ArmScan},
		{n: 64, m: 4096, ops: 128, seed: 3, arm: oram.ArmHierarchy},
		{n: 100, m: 4096, ops: 160, seed: 4, arm: oram.ArmHierarchy},
	}
	for _, be := range backends() {
		for _, sorter := range sorters {
			for _, tc := range cases {
				// ORAM accesses are batched (≤ LiveLevels+1 round trips per
				// access instead of 2·beta·L scalar ones, two a scan), so the
				// default auto-selected engine and bitonic run the full
				// matrix on every backend, real HTTP included — no network
				// caps. The rebuild sorter does nothing on the scan arm, and
				// the randomized one keeps exactly one hierarchy over HTTP
				// (n=64) as a regression control: its rebuilds move many
				// times a deterministic engine's block volume, which over
				// loopback HTTP buys wall clock and no coverage beyond it.
				ops := tc.ops
				overHTTP := be.name == "network" || be.name == "crypt-network"
				isCrypt := strings.HasPrefix(be.name, "crypt-")
				if overHTTP && sorter == obsort.EngineRandomized && tc.n != 64 {
					continue
				}
				// The crypt legs are here to exercise the sealing path under
				// randomized workloads and pin its trace invariance — size
				// coverage belongs to the plaintext backends. Sealing
				// multiplies the cost of every I/O of the randomized sorter's
				// rebuild volume, so cap the crypt cases.
				if isCrypt && tc.n > 64 {
					continue
				}
				// Under the race detector every interaction is ~10× slower;
				// keep one representative per backend and drop the heavy
				// duplicates (they add size, not interleaving coverage).
				if raceEnabled {
					if (overHTTP || isCrypt) && (tc.n > 16 || sorter == obsort.EngineRandomized) {
						continue
					}
					if be.name == "sharded-4" && sorter == obsort.EngineRandomized && tc.n > 64 {
						continue
					}
				}
				name := fmt.Sprintf("%s/%s/n=%d/M=%d/seed=%d", be.name, sorter, tc.n, tc.m, tc.seed)
				t.Run(name, func(t *testing.T) {
					env := be.make(t, 64, tc.m, tc.seed)
					o, err := oram.New(env, tc.n, oram.Options{Sorter: sorter})
					if err != nil {
						t.Fatal(err)
					}
					if o.Arm() != tc.arm {
						t.Fatalf("the arm is the %s, want the %s", o.Arm(), tc.arm)
					}
					r := rand.New(rand.NewPCG(tc.seed, 0x6f72616d)) // "oram"
					mirror := make([][]uint64, tc.n)
					for i := 0; i < ops; i++ {
						j := r.IntN(tc.n)
						if r.IntN(3) > 0 { // writes twice as likely: churn the levels
							payload := make([]uint64, blockB)
							for w := range payload {
								payload[w] = r.Uint64()
							}
							if err := o.Write(j, payload); err != nil {
								t.Fatalf("op %d write %d: %v", i, j, err)
							}
							mirror[j] = payload
						} else {
							got, err := o.Read(j)
							if err != nil {
								t.Fatalf("op %d read %d: %v", i, j, err)
							}
							checkPayload(t, i, j, got, mirror[j])
						}
					}
					// Full sweep: every logical block, written or not.
					for j := 0; j < tc.n; j++ {
						got, err := o.Read(j)
						if err != nil {
							t.Fatalf("sweep read %d: %v", j, err)
						}
						checkPayload(t, -1, j, got, mirror[j])
					}
				})
			}
		}
	}
}

// checkPayload compares an ORAM read against the mirror; a never-written
// block must read back zeroed.
func checkPayload(t *testing.T, op, j int, got, want []uint64) {
	t.Helper()
	if len(got) != blockB {
		t.Fatalf("op %d: block %d has %d words, want %d", op, j, len(got), blockB)
	}
	for w := range got {
		expect := uint64(0)
		if want != nil {
			expect = want[w]
		}
		if got[w] != expect {
			t.Fatalf("op %d: block %d word %d = %d, want %d", op, j, w, got[w], expect)
		}
	}
}

// TestORAMTraceInvarianceAcrossBackends pins that the backend cannot change
// what the algorithms do: the Disk-level logical trace of the same seeded
// workload is bit-identical on MemStore, the sharded store, and the network
// store (each backend only changes who serves the sequence, never the
// sequence), on either arm.
func TestORAMTraceInvarianceAcrossBackends(t *testing.T) {
	for _, tc := range []struct {
		arm     string
		n, m, k int // k: accesses, two flushes of the hierarchy's 64-entry buffer
	}{{oram.ArmScan, 16, 512, 32}, {oram.ArmHierarchy, 64, 4096, 128}} {
		t.Run(tc.arm, func(t *testing.T) { traceInvarianceAcrossBackends(t, tc.n, tc.m, tc.k, tc.arm) })
	}
}

func traceInvarianceAcrossBackends(t *testing.T, n, m, ops int, arm string) {
	// Rebuilds run the default auto-selected engine: the pick is a public
	// function of each rebuild's geometry, so it resolves identically on
	// every backend and the claim covers the default configuration.
	const seed = 7
	type result struct {
		name string
		len  int64
		hash uint64
	}
	var results []result
	for _, be := range backends() {
		env := be.make(t, 64, m, seed)
		env.D.SetRecorder(trace.NewRecorder(0))
		o, err := oram.New(env, n, oram.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if o.Arm() != arm {
			t.Fatalf("%s: the arm is the %s, want the %s", be.name, o.Arm(), arm)
		}
		r := rand.New(rand.NewPCG(seed, 99))
		for i := 0; i < ops; i++ {
			j := r.IntN(n)
			switch r.IntN(3) {
			case 0:
				if err := o.Write(j, make([]uint64, blockB)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := o.Read(j); err != nil {
					t.Fatal(err)
				}
			default:
				if err := o.Dummy(); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := env.D.Recorder().Summarize()
		results = append(results, result{be.name, s.Len, s.Hash})
	}
	for _, r := range results[1:] {
		if r.len != results[0].len || r.hash != results[0].hash {
			t.Fatalf("logical trace differs across backends: %s %d/%016x vs %s %d/%016x",
				results[0].name, results[0].len, results[0].hash, r.name, r.len, r.hash)
		}
	}
}

// TestORAMAccessSequenceShapeInvariance is the cross-backend half of the
// batched-access security upgrade. For every backend it runs two access
// streams of equal length that differ in every data-dependent way (disjoint
// key sets, different read/write/Dummy mixes) and asserts: (a) the raw
// per-block trace of each stream is bit-identical across mem, sharded, and
// HTTP backends — the backend can never change what Bob is told; and
// (b) within each backend, the two streams' normalized traces — every op
// mapped to (kind, level, slot-within-bucket), erasing only the PRF-fresh
// bucket index that carries the construction's distributional randomness —
// are bit-identical, as are their exact round-trip counts. Everything the
// adversary sees except the fresh bucket draws is a deterministic function
// of (n, B, t, seed). It runs on the hierarchy, whose arm a cache of 512
// blocks makes at n = 64, through one flush of its buffer;
// TestORAMScanArmOblivious holds the scan arm to the stronger claim.
func TestORAMAccessSequenceShapeInvariance(t *testing.T) {
	const n, m, steps, seed = 64, 4096, 96, 23
	type stream struct {
		name string
		op   func(o *oram.ORAM, step int) error
	}
	streams := []stream{
		{"low-keys-rw", func(o *oram.ORAM, step int) error {
			if step%2 == 0 {
				_, err := o.Read(step % (n / 2))
				return err
			}
			return o.Write(step%(n/2), make([]uint64, blockB))
		}},
		{"high-keys-dummy", func(o *oram.ORAM, step int) error {
			if step%3 == 0 {
				return o.Dummy()
			}
			k := n/2 + step%(n/2)
			if step%3 == 1 {
				_, err := o.Read(k)
				return err
			}
			payload := make([]uint64, blockB)
			payload[0] = uint64(step)
			return o.Write(k, payload)
		}},
	}
	type result struct {
		raw   trace.Summary
		norm  uint64
		rts   int64
		beLab string
	}
	results := make(map[string][]result) // stream name -> per-backend results
	for _, be := range backends() {
		for _, st := range streams {
			env := be.make(t, 64, m, seed)
			rec := trace.NewRecorder(1 << 22)
			env.D.SetRecorder(rec)
			o, err := oram.New(env, n, oram.Options{})
			if err != nil || o.Arm() != oram.ArmHierarchy {
				t.Fatalf("(%v, %v), want the hierarchy", o, err)
			}
			rec.Enable(1 << 22)
			env.D.ResetStats()
			for step := 0; step < steps; step++ {
				if err := st.op(o, step); err != nil {
					t.Fatalf("%s/%s step %d: %v", be.name, st.name, step, err)
				}
			}
			ops := rec.Ops()
			if int64(len(ops)) != rec.Len() {
				t.Fatalf("%s/%s: recorder overflow (%d kept of %d)", be.name, st.name, len(ops), rec.Len())
			}
			ranges := o.LevelRanges()
			beta := int64(o.BucketSize())
			const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
			h := uint64(fnvOffset)
			mix := func(v uint64) {
				for i := 0; i < 8; i++ {
					h ^= v & 0xff
					h *= fnvPrime
					v >>= 8
				}
			}
			for _, op := range ops {
				lvl, slot := int64(-1), op.Addr
				for li, r := range ranges {
					if op.Addr >= int64(r[0]) && op.Addr < int64(r[1]) {
						lvl, slot = int64(li), (op.Addr-int64(r[0]))%beta
						break
					}
				}
				mix(uint64(op.Kind))
				mix(uint64(lvl))
				mix(uint64(slot))
			}
			results[st.name] = append(results[st.name], result{
				raw: rec.Summarize(), norm: h, rts: env.D.Stats().RoundTrips, beLab: be.name,
			})
		}
	}
	// (a) same stream, different backends: raw traces bit-identical.
	for name, rs := range results {
		for _, r := range rs[1:] {
			if !r.raw.Equal(rs[0].raw) {
				t.Fatalf("stream %s: raw trace differs across backends: %s %v vs %s %v",
					name, rs[0].beLab, rs[0].raw, r.beLab, r.raw)
			}
		}
	}
	// (b) same backend, different streams: normalized traces and round
	// trips identical.
	a, b := results[streams[0].name], results[streams[1].name]
	for i := range a {
		if a[i].norm != b[i].norm || a[i].rts != b[i].rts {
			t.Fatalf("backend %s: access streams distinguishable: norm %016x/%d rts vs %016x/%d rts",
				a[i].beLab, a[i].norm, a[i].rts, b[i].norm, b[i].rts)
		}
	}
}

// TestORAMWithRandomizedRebuilds keeps the paper's headline application as
// a smoke test: an ORAM whose level rebuilds use the paper's randomized
// sort, at sizes where the hierarchy is the arm, driven past 2N writes so
// the deeper levels rebuild at least once.
func TestORAMWithRandomizedRebuilds(t *testing.T) {
	for _, n := range []int{64, 100} {
		for _, sorter := range []string{obsort.EngineBitonic, obsort.EngineRandomized} {
			env := extmem.NewEnv(64, 8, 4096, uint64(n))
			o, err := oram.New(env, n, oram.Options{Sorter: sorter})
			if err != nil || o.Arm() != oram.ArmHierarchy {
				t.Fatalf("n=%d sorter=%s: (%v, %v), want the hierarchy", n, sorter, o, err)
			}
			for i := 0; i < 2*n; i++ {
				if err := o.Write(i%n, make([]uint64, 8)); err != nil {
					t.Fatalf("n=%d sorter=%s write %d: %v", n, sorter, i, err)
				}
			}
			if got := o.Rebuilds().Count; got < 3 {
				t.Fatalf("n=%d sorter=%s: %d rebuilds, want the build and two flushes", n, sorter, got)
			}
		}
	}
}

// TestORAMScanArmOblivious holds the scan arm to its claim: at a fixed
// (n, B, free cache) every access is the same in-place scan of the n
// blocks, so reads, writes and dummies of any index and value leave
// bit-identical traces — the logical one at the Disk, on MemStore and on an
// encrypted HTTP replica pair, and each server's journal of the pair, where
// sealing every rewritten block under a fresh nonce hides which one changed
// — and identical I/O counts. This is the benchmark's shape (n = 32, B = 8,
// M = 512).
func TestORAMScanArmOblivious(t *testing.T) {
	const n, m, steps, seed = 32, 512, 24, 11
	streams := []struct {
		name string
		op   func(o *oram.ORAM, r *rand.Rand, step int) error
	}{
		{"read-one-block", func(o *oram.ORAM, _ *rand.Rand, _ int) error { _, err := o.Read(0); return err }},
		{"write-random", func(o *oram.ORAM, r *rand.Rand, _ int) error {
			words := make([]uint64, blockB)
			for w := range words {
				words[w] = r.Uint64()
			}
			return o.Write(r.IntN(n), words)
		}},
		{"dummies", func(o *oram.ORAM, _ *rand.Rand, _ int) error { return o.Dummy() }},
		{"mixed", func(o *oram.ORAM, r *rand.Rand, step int) error {
			switch step % 3 {
			case 0:
				_, err := o.Read(n - 1)
				return err
			case 1:
				return o.Write(step%n, make([]uint64, blockB))
			}
			return o.Dummy()
		}},
	}
	type fingerprint struct {
		disk    trace.Summary
		servers [2]trace.Summary
		stats   obs.Counters
	}
	var logical *trace.Summary // the Disk's trace, the same on every backend
	for _, be := range []struct {
		name string
		make func(t *testing.T) (*extmem.Env, []*netstore.Server)
	}{
		{"mem", func(*testing.T) (*extmem.Env, []*netstore.Server) { return extmem.NewEnv(64, blockB, m, seed), nil }},
		{"crypt-replica-pair", func(t *testing.T) (*extmem.Env, []*netstore.Server) { return cryptReplicaPair(t, 64, m, seed) }},
	} {
		var first *fingerprint
		for _, st := range streams {
			env, servers := be.make(t)
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			o, err := oram.New(env, n, oram.Options{})
			if err != nil || o.Arm() != oram.ArmScan {
				t.Fatalf("%s: (%v, %v), want the scan arm", be.name, o, err)
			}
			rec.Enable(0) // drop the build, keep the accesses
			env.D.ResetStats()
			for _, srv := range servers {
				srv.ResetTrace()
			}
			r := rand.New(rand.NewPCG(seed, 1))
			for step := 0; step < steps; step++ {
				if err := st.op(o, r, step); err != nil {
					t.Fatalf("%s/%s step %d: %v", be.name, st.name, step, err)
				}
			}
			got := fingerprint{disk: rec.Summarize(), stats: env.D.Stats()}
			for i, srv := range servers {
				if got.servers[i] = srv.TraceSummary(); got.servers[i].Len == 0 {
					t.Fatalf("%s/%s: server %d saw no access", be.name, st.name, i)
				}
			}
			if want := int64(steps * 2 * n); got.disk.Len != want {
				t.Fatalf("%s/%s: %d accesses in the trace, want %d", be.name, st.name, got.disk.Len, want)
			}
			if first == nil {
				first = &got
			} else if got != *first {
				t.Fatalf("%s: stream %s left %+v, stream %s %+v", be.name, st.name, got, streams[0].name, *first)
			}
		}
		if logical == nil {
			logical = &first.disk
		} else if first.disk != *logical {
			t.Fatalf("%s: logical trace %+v, MemStore's %+v", be.name, first.disk, *logical)
		}
	}
}
