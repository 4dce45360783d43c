package oblivext

import (
	"bytes"
	"crypto/x509"
	"encoding/binary"
	"encoding/pem"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// testKey is the deterministic 32-byte key the encrypted-backend tests use.
func testKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*13 + 1)
	}
	return key
}

// obstoreSealed spins up an in-process obstore provisioned for sealed
// blocks of b plaintext elements (the B+2 footprint an encrypted client
// needs).
func obstoreSealed(t *testing.T, blocks, b int) (*netstore.Server, *httptest.Server) {
	t.Helper()
	srv := netstore.NewServer(extmem.NewMemStore(blocks, extmem.CryptChildBlockSize(b)), netstore.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPublicEncryptedBackends runs the full probe workload (Sort, Select,
// Mark+CompactTight) with EncryptionKey set over every backend family and
// checks three things at once: the results are correct, the client-side
// logical trace equals the unencrypted MemStore run's trace (sealing is
// invisible to the adversary's view), and the crypto byte counters moved.
func TestPublicEncryptedBackends(t *testing.T) {
	const n = 1200
	recs := mkRecords(n, 31)
	want := memTrace(t, recs) // unencrypted reference trace

	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"mem", func(t *testing.T) Config {
			return Config{BlockSize: 8, CacheWords: 512, Seed: 77, EncryptionKey: testKey()}
		}},
		{"file", func(t *testing.T) Config {
			return Config{BlockSize: 8, CacheWords: 512, Seed: 77, EncryptionKey: testKey(),
				Path: filepath.Join(t.TempDir(), "enc.dat")}
		}},
		{"sharded-mixed", func(t *testing.T) Config {
			return Config{BlockSize: 8, CacheWords: 512, Seed: 77, EncryptionKey: testKey(),
				NumShards: 3, ShardPaths: []string{filepath.Join(t.TempDir(), "s0.dat"), "", ""}}
		}},
		{"http", func(t *testing.T) Config {
			_, ts := obstoreSealed(t, 4096, 8)
			return Config{BlockSize: 8, CacheWords: 512, Seed: 77, EncryptionKey: testKey(), URL: ts.URL}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg(t))
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
			if got := c.TraceSummary(); got != want {
				t.Fatalf("encrypted %s trace %+v != unencrypted mem trace %+v", tc.name, got, want)
			}
			got, err := arr.Records()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%d records back, want %d", len(got), n)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Key > got[i].Key {
					t.Fatalf("not sorted at %d", i)
				}
			}
			st := c.Stats()
			if st.BytesSealed == 0 || st.BytesOpened == 0 {
				t.Fatalf("crypto counters did not move: %+v", st)
			}
		})
	}
}

// TestPublicEncryptedServerAdversaryView is the PR 3 end-to-end property
// with encryption on: the journal a sealed-block obstore keeps is
// bit-identical across distinct same-size inputs — and identical to the
// journal of the same workload with encryption off (the decorator changes
// bytes, never addresses).
func TestPublicEncryptedServerAdversaryView(t *testing.T) {
	const n = 1 << 10
	run := func(recs []Record) netstore.ServerTrace {
		srv, ts := obstoreSealed(t, 4096, 8)
		c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 77, EncryptionKey: testKey(), URL: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
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
		return st
	}
	varied := mkRecords(n, 1)
	constant := make([]Record, n)
	for i := range constant {
		constant[i] = Record{Key: 5, Val: uint64(i)}
	}
	encA, encB := run(varied), run(constant)
	if encA.Len != encB.Len || encA.Hash != encB.Hash {
		t.Fatalf("sealed server journal depends on data: %+v vs %+v", encA, encB)
	}
	// Same workload, encryption off: the journal must be the same sequence.
	_, plain := netTrace(t, varied)
	if encA.Len != plain.Len || encA.Hash != plain.Hash {
		t.Fatalf("encryption reshaped the journal: %+v vs plaintext %+v", encA, plain)
	}
}

// sentinelRecords builds records whose key encodings are distinctive enough
// to grep for in raw server-side bytes.
func sentinelRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: 0xfeedface00c0ffee + uint64(i)*0x10001, Val: 0xdeadbeefd00dcafe ^ uint64(i)}
	}
	return out
}

// containsSentinel reports whether raw contains the little-endian encoding
// of any sentinel key or value.
func containsSentinel(raw []byte, recs []Record) bool {
	var buf [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[:], r.Key)
		if bytes.Contains(raw, buf[:]) {
			return true
		}
		binary.LittleEndian.PutUint64(buf[:], r.Val)
		if bytes.Contains(raw, buf[:]) {
			return true
		}
	}
	return false
}

// TestPublicEncryptedServerStoresNoPlaintext is the regression test for the
// gap this PR closes: a file-backed obstore serving an encrypted client
// must end up with neither its on-disk state nor its journal containing any
// plaintext Element encoding — while the identical unencrypted run is
// *required* to leak them, proving the grep finds what it looks for.
func TestPublicEncryptedServerStoresNoPlaintext(t *testing.T) {
	recs := sentinelRecords(300)
	run := func(encrypt bool) (storeBytes, journalBytes []byte) {
		dir := t.TempDir()
		b := 8
		if encrypt {
			b = extmem.CryptChildBlockSize(8)
		}
		fs, err := extmem.NewFileStore(filepath.Join(dir, "bob.dat"), 4096, b)
		if err != nil {
			t.Fatal(err)
		}
		var journal bytes.Buffer
		srv := netstore.NewServer(fs, netstore.ServerOptions{Journal: &journal})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cfg := Config{BlockSize: 8, CacheWords: 512, Seed: 9, URL: ts.URL}
		if encrypt {
			cfg.EncryptionKey = testKey()
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "bob.dat"))
		if err != nil {
			t.Fatal(err)
		}
		return raw, journal.Bytes()
	}

	plainStore, _ := run(false)
	if !containsSentinel(plainStore, recs) {
		t.Fatal("control failed: unencrypted server file does not contain the sentinels the grep looks for")
	}
	encStore, encJournal := run(true)
	if containsSentinel(encStore, recs) {
		t.Fatal("encrypted server's on-disk state contains a plaintext Element encoding")
	}
	if containsSentinel(encJournal, recs) {
		t.Fatal("server journal contains a plaintext Element encoding")
	}
	if len(encJournal) == 0 {
		t.Fatal("journal empty: the no-plaintext check checked nothing")
	}
}

// TestPublicEncryptedTamperFailsLoudly flips one ciphertext byte in the
// server's backing file and requires the client's next read of that block
// to abort with an authentication failure rather than hand the algorithms
// attacker-controlled plaintext.
func TestPublicEncryptedTamperFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bob.dat")
	fs, err := extmem.NewFileStore(path, 1024, extmem.CryptChildBlockSize(8))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(netstore.NewServer(fs, netstore.ServerOptions{}).Handler())
	defer ts.Close()
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 4, EncryptionKey: testKey(), URL: ts.URL,
		NetRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(mkRecords(100, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext byte of the array's first block, behind Alice's back.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[extmem.ElementBytes+20] ^= 1 // inside block 0's ciphertext region (past the 24-byte salt‖counter)
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reading a tampered block did not abort")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "authentication failed") {
			t.Fatalf("abort does not name the cause: %v", msg)
		}
	}()
	_, _ = arr.Records()
}

// writeCertPEM writes an httptest TLS server's certificate to a PEM file,
// standing in for the out-of-band CA distribution a real deployment does.
func writeCertPEM(t *testing.T, cert *x509.Certificate) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ca.pem")
	var buf bytes.Buffer
	if err := pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: cert.Raw}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPublicNetworkTLSAuth is the acceptance scenario end to end: an
// obstore behind TLS with bearer-token auth, an encrypted client, the full
// probe workload — plus the rejection paths (wrong token, missing token,
// untrusted certificate).
func TestPublicNetworkTLSAuth(t *testing.T) {
	const token = "test-shared-secret"
	srv := netstore.NewServer(extmem.NewMemStore(4096, extmem.CryptChildBlockSize(8)),
		netstore.ServerOptions{AuthToken: token})
	ts := httptest.NewTLSServer(srv.Handler())
	defer ts.Close()
	caPath := writeCertPEM(t, ts.Certificate())

	cfg := Config{BlockSize: 8, CacheWords: 512, Seed: 15, EncryptionKey: testKey(),
		URL: ts.URL, TLSRootCA: caPath, AuthToken: token, NetRetries: -1}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(mkRecords(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	runProbes(t, arr)
	got, err := arr.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}

	// Wrong token: rejected at dial with a permanent 401, no retries burned.
	bad := cfg
	bad.AuthToken = "wrong"
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong token not rejected with 401: %v", err)
	}
	// Missing token: same.
	bad.AuthToken = ""
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("missing token not rejected with 401: %v", err)
	}
	// Untrusted certificate: the dial must fail TLS verification.
	bad = cfg
	bad.TLSRootCA = ""
	if _, err := New(bad); err == nil {
		t.Fatal("self-signed server accepted without its CA")
	}
}
