package oblivext

import (
	"net/http/httptest"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/trace"
)

// obstore spins up an in-process equivalent of cmd/obstore: the netstore
// server over a MemStore, on a real HTTP listener.
func obstore(t *testing.T, blocks, b int) (*netstore.Server, *httptest.Server) {
	t.Helper()
	srv := netstore.NewServer(extmem.NewMemStore(blocks, b), netstore.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// netTrace runs the standard probe workload — Sort, then Select at a fixed
// rank, then Mark+CompactTight at a fixed public capacity — over the given
// records on a network backend, and returns the client's logical trace and
// the server's independently journaled trace (excluding the upload).
func netTrace(t *testing.T, recs []Record) (client TraceSummary, server netstore.ServerTrace) {
	t.Helper()
	srv, ts := obstore(t, 4096, 8)
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 77, URL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Fingerprint the probes alone: reset both Alice's recorder and Bob's
	// journal after the upload, through the same HTTP surface cmd/obstore
	// exposes.
	c.EnableTrace(0)
	srv.ResetTrace()
	runProbes(t, arr)
	nc, err := netstore.Dial(ts.URL, netstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	st, err := nc.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	return c.TraceSummary(), st
}

// memTrace runs the identical workload against the in-process MemStore and
// returns the client-side logical trace.
func memTrace(t *testing.T, recs []Record) TraceSummary {
	t.Helper()
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(0)
	runProbes(t, arr)
	return c.TraceSummary()
}

// runProbes is the workload under audit: the paper's three headline
// operations with public parameters fixed (rank and capacity are public
// inputs; the data is what must not show).
func runProbes(t *testing.T, arr *Array) {
	t.Helper()
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Select(arr.Len() / 2); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Mark(func(r Record) bool { return r.Key%3 == 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.CompactTight(arr.Len()); err != nil {
		t.Fatal(err)
	}
}

// TestPublicNetworkAdversaryView is the end-to-end adversary test at the
// acceptance size N = 2^12: the trace Bob himself journals — in a separate
// server process boundary, not Alice's bookkeeping — is bit-identical across
// distinct same-size inputs, and identical to the logical trace of the same
// workload over the in-process MemStore.
func TestPublicNetworkAdversaryView(t *testing.T) {
	const n = 1 << 12
	varied := mkRecords(n, 1)
	constant := make([]Record, n)
	for i := range constant {
		constant[i] = Record{Key: 5, Val: uint64(i)}
	}

	clientA, serverA := netTrace(t, varied)
	clientB, serverB := netTrace(t, constant)

	// Bob's own journal must not distinguish the inputs.
	if serverA.Len != serverB.Len || serverA.Hash != serverB.Hash {
		t.Fatalf("server-side trace depends on data: %+v vs %+v", serverA, serverB)
	}
	// Bob's journal is exactly the sequence Alice's Disk layer logged.
	if clientA.Len != serverA.Len || clientA.Hash != serverA.Hash {
		t.Fatalf("server journal %+v != client logical trace %+v", serverA, clientA)
	}
	// And both equal the MemStore run: the network layer transports the
	// trace, it does not reshape it.
	mem := memTrace(t, varied)
	if mem.Len != serverA.Len || mem.Hash != serverA.Hash {
		t.Fatalf("network trace %+v != MemStore logical trace %+v", serverA, mem)
	}
	if clientB != mem {
		t.Fatalf("client traces diverge across backends: %+v vs %+v", clientB, mem)
	}
	// No faults were injected, so the server saw no replays.
	if serverA.Replays != 0 {
		t.Fatalf("unexpected replays: %+v", serverA)
	}
}

// sorterNetTrace sorts recs with the named engine over a real obstore
// server and returns Alice's logical trace and Bob's independently
// journaled trace (excluding the upload).
func sorterNetTrace(t *testing.T, engine string, recs []Record) (client TraceSummary, server netstore.ServerTrace) {
	t.Helper()
	srv, ts := obstore(t, 8192, 8)
	c, err := New(Config{BlockSize: 8, CacheWords: 1024, Seed: 77, URL: ts.URL, Sorter: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(0)
	srv.ResetTrace()
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	nc, err := netstore.Dial(ts.URL, netstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	st, err := nc.FetchServerTrace()
	if err != nil {
		t.Fatal(err)
	}
	return c.TraceSummary(), st
}

// sorterMemTrace sorts recs with the named engine on the in-process
// MemStore with the same geometry and seed, returning the logical trace.
func sorterMemTrace(t *testing.T, engine string, recs []Record) TraceSummary {
	t.Helper()
	c, err := New(Config{BlockSize: 8, CacheWords: 1024, Seed: 77, Sorter: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(0)
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	return c.TraceSummary()
}

// TestSorterEnginesNetworkAdversaryView pins the obliviousness of every
// sorter engine where it matters — over the wire, at the acceptance size
// N = 2^12, which M = 1024 admits to columnsort (8 columns of 512): the
// trace Bob himself journals is bit-identical across distinct same-size
// inputs — varied, constant, sorted and reversed keys — identical to
// Alice's logical trace, and — for the concrete engines — identical to the
// same workload's trace on the in-process MemStore. "auto" is checked for
// input-independence only: its pick is a public function of the backend
// kind, so the mem run may legitimately resolve to a different engine than
// the net run.
func TestSorterEnginesNetworkAdversaryView(t *testing.T) {
	const n = 1 << 12
	names := []string{"varied", "constant", "sorted", "reversed"}
	inputs := [][]Record{mkRecords(n, 1), make([]Record, n), make([]Record, n), make([]Record, n)}
	for i := range n {
		inputs[1][i] = Record{Key: 5, Val: uint64(i)}
		inputs[2][i] = Record{Key: uint64(i), Val: uint64(i)}
		inputs[3][i] = Record{Key: uint64(n - i), Val: uint64(i)}
	}
	for _, engine := range []string{"bitonic", "columnsort", "zigzag", "auto"} {
		t.Run(engine, func(t *testing.T) {
			var first netstore.ServerTrace
			var mem TraceSummary
			for i, recs := range inputs {
				client, server := sorterNetTrace(t, engine, recs)
				if i == 0 {
					first = server
				} else if server.Len != first.Len || server.Hash != first.Hash {
					t.Fatalf("server-side trace depends on data: %+v on %s keys, %+v on %s", server, names[i], first, names[0])
				}
				if client.Len != server.Len || client.Hash != server.Hash {
					t.Fatalf("%s: server journal %+v != client logical trace %+v", names[i], server, client)
				}
				if server.Len == 0 {
					t.Fatal("empty trace: the sort never touched the server")
				}
				if engine == "auto" {
					continue
				}
				if i == 0 {
					mem = sorterMemTrace(t, engine, recs)
				}
				if client != mem {
					t.Fatalf("%s: network trace %+v != MemStore logical trace %+v", names[i], client, mem)
				}
			}
		})
	}
}

// TestPublicNetworkBackendCorrectness runs the full public workload over the
// HTTP backend and checks results, stats, and measured network counters.
func TestPublicNetworkBackendCorrectness(t *testing.T) {
	_, ts := obstore(t, 64, 8) // deliberately small: the store must grow over the wire
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 9, URL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs := mkRecords(3000, 21)
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records after network sort, want %d", len(got), len(recs))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}

	st := c.Stats()
	ns := c.MeasuredNetworkStats()
	if len(ns) != 1 {
		t.Fatalf("%d network backends, want 1", len(ns))
	}
	if ns[0].Requests != st.RoundTrips {
		t.Fatalf("measured requests %d != Disk round trips %d", ns[0].Requests, st.RoundTrips)
	}
	if ns[0].BlocksMoved != st.Total() {
		t.Fatalf("measured blocks %d != Disk I/Os %d", ns[0].BlocksMoved, st.Total())
	}
	if ns[0].Retries != 0 {
		t.Fatalf("retries on a healthy loopback: %+v", ns[0])
	}
	if c.MeasuredNetworkTime() <= 0 || ns[0].MinRTT <= 0 || ns[0].MaxRTT < ns[0].MinRTT {
		t.Fatalf("measured times not populated: %+v", ns[0])
	}
}

// TestPublicNetworkSharded fans out to four real servers and checks the
// per-server journals are exactly the residue-class projections of the
// logical trace.
func TestPublicNetworkSharded(t *testing.T) {
	const k = 4
	servers := make([]*netstore.Server, k)
	urls := make([]string, k)
	for i := range servers {
		srv, ts := obstore(t, 1024, 8)
		servers[i], urls[i] = srv, ts.URL
	}
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 13, NumShards: k, ShardURLs: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs := mkRecords(2000, 3)
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(1 << 20)
	for i := range servers {
		servers[i].ResetTrace()
	}
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}

	// Rebuild each server's expected view: the sub-sequence of the logical
	// trace owned by its residue class, re-numbered to local addresses.
	logical := c.env.D.Recorder().Ops()
	want := make([]*trace.Recorder, k)
	for i := range want {
		want[i] = trace.NewRecorder(0)
	}
	for _, op := range logical {
		want[op.Addr%k].Record(op.Kind, op.Addr/k)
	}
	for i, srv := range servers {
		if got, exp := srv.TraceSummary(), want[i].Summarize(); !got.Equal(exp) {
			t.Fatalf("server %d journal %v != projected logical trace %v", i, got, exp)
		}
	}

	if ns := c.MeasuredNetworkStats(); len(ns) != k {
		t.Fatalf("%d per-server stats, want %d", len(ns), k)
	}
}

// TestPublicNetworkConfigValidation pins the wiring rules.
func TestPublicNetworkConfigValidation(t *testing.T) {
	_, ts := obstore(t, 16, 4) // B=4 server
	if _, err := New(Config{BlockSize: 8, URL: ts.URL}); err == nil {
		t.Error("block-size mismatch with server accepted")
	}
	if _, err := New(Config{BlockSize: 8, URL: ts.URL, Path: "/tmp/x.dat"}); err == nil {
		t.Error("URL+Path accepted")
	}
	if _, err := New(Config{BlockSize: 8, NumShards: 2, URL: ts.URL}); err == nil {
		t.Error("URL with NumShards > 1 accepted")
	}
	if _, err := New(Config{BlockSize: 8, NumShards: 2, ShardURLs: []string{ts.URL}}); err == nil {
		t.Error("ShardURLs length mismatch accepted")
	}
	// An encrypted client needs the server provisioned with the sealed
	// footprint (B+2); a plaintext-sized server must be rejected.
	_, tsPlain := obstore(t, 16, 8)
	if _, err := New(Config{BlockSize: 8, URL: tsPlain.URL, EncryptionKey: make([]byte, 32)}); err == nil {
		t.Error("encrypted client accepted a server sized for plaintext blocks")
	}
	if _, err := New(Config{BlockSize: 8, URL: "http://127.0.0.1:1", NetTimeout: 50000000, NetRetries: 1}); err == nil {
		t.Error("dial to dead server succeeded")
	}
	// Mixing: one real server, one in-memory shard.
	srv8, ts8 := obstore(t, 64, 8)
	c, err := New(Config{BlockSize: 8, CacheWords: 256, NumShards: 2, ShardURLs: []string{ts8.URL, ""}})
	if err != nil {
		t.Fatalf("mixed backends rejected: %v", err)
	}
	defer c.Close()
	arr, err := c.Store(mkRecords(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	if sum := srv8.TraceSummary(); sum.Len == 0 {
		t.Fatal("network shard of a mixed store saw no traffic")
	}
	if ns := c.MeasuredNetworkStats(); len(ns) != 1 {
		t.Fatalf("%d network stats entries for one network shard", len(ns))
	}
}
