package oblivext

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// TestFleetTopologies pins what New builds for every backend topology it
// accepts — leaf ∈ {memory, file, obstore} × {unsharded, two shards, a
// one-entry ShardPaths/ShardURLs} × {unreplicated, two replicas}, mixed
// fleets included, with and without client-side encryption: the fleet
// stores and sorts correctly, reports the configured shape, every server
// sees traffic, and the logical trace is the memory/unsharded one — the
// topology below the Disk moves blocks, it never reshapes the trace. The
// "rejects" subtests cover the configurations New does not accept.
func TestFleetTopologies(t *testing.T) {
	const b, m, n = 8, 256, 300
	// In a fleet's Config "http" stands for the URL of a fresh obstore and
	// "file" for a fresh path; run fills them in.
	fleets := []struct {
		name string
		cfg  Config
	}{
		{"mem", Config{}},
		{"mem/shards=2", Config{NumShards: 2}},
		{"mem/one-entry", Config{NumShards: 1, ShardURLs: []string{""}}},
		{"mem/replicas=2", Config{Replicas: 2}},
		{"mem/replicas=2/empty-urls", Config{Replicas: 2, ReplicaURLs: []string{"", ""}}},
		{"mem/shards=2/replicas=2", Config{NumShards: 2, Replicas: 2}},
		{"file", Config{Path: "file"}},
		{"file/shards=2", Config{NumShards: 2, ShardPaths: []string{"file", "file"}}},
		{"file/one-entry", Config{NumShards: 1, ShardPaths: []string{"file"}}},
		{"http", Config{URL: "http"}},
		{"http/shards=2", Config{NumShards: 2, ShardURLs: []string{"http", "http"}}},
		{"http/one-entry", Config{NumShards: 1, ShardURLs: []string{"http"}}},
		{"http+mem/shards=2", Config{NumShards: 2, ShardURLs: []string{"http", ""}}},
		{"http+file/shards=2", Config{NumShards: 2, ShardURLs: []string{"http", ""}, ShardPaths: []string{"", "file"}}},
		{"http/replicas=2", Config{Replicas: 2, ReplicaURLs: []string{"http", "http"}}},
		{"http+mem/replicas=2", Config{Replicas: 2, ReplicaURLs: []string{"http", ""}}},
		{"http/shards=2/replicas=2", Config{NumShards: 2, Replicas: 2, ReplicaURLs: []string{"http", "http", "http", "http"}}},
	}

	recs := mkRecords(n, 17)
	run := func(t *testing.T, cfg Config, key []byte) TraceSummary {
		t.Helper()
		serverB := b
		if key != nil {
			serverB = extmem.CryptChildBlockSize(b)
		}
		var servers []*netstore.Server
		dir := t.TempDir()
		fill := func(in []string) []string {
			out := slices.Clone(in)
			for i, s := range out {
				switch s {
				case "http":
					srv, ts := obstore(t, 1024, serverB)
					servers, out[i] = append(servers, srv), ts.URL
				case "file":
					out[i] = filepath.Join(dir, fmt.Sprintf("shard%d.dat", i))
				}
			}
			return out
		}
		cfg.URL, cfg.Path = fill([]string{cfg.URL})[0], fill([]string{cfg.Path})[0]
		cfg.ShardURLs, cfg.ShardPaths, cfg.ReplicaURLs = fill(cfg.ShardURLs), fill(cfg.ShardPaths), fill(cfg.ReplicaURLs)
		cfg.BlockSize, cfg.CacheWords, cfg.Seed, cfg.EncryptionKey, cfg.Sorter = b, m, 29, key, "bitonic"
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTrace(0)
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		got, err := arr.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || !slices.IsSortedFunc(got, func(x, y Record) int { return cmp.Compare(x.Key, y.Key) }) {
			t.Fatalf("%d records back (want %d), or not sorted", len(got), n)
		}
		if shards, replicas := max(cfg.NumShards, 1), max(cfg.Replicas, 1); c.NumShards() != shards || c.NumReplicas() != replicas {
			t.Errorf("fleet is %d shards x %d replicas, want %d x %d", c.NumShards(), c.NumReplicas(), shards, replicas)
		}
		if got := len(c.MeasuredNetworkStats()); got != len(servers) {
			t.Errorf("%d measured network backends, want %d", got, len(servers))
		}
		for i, srv := range servers {
			if srv.TraceSummary().Len == 0 {
				t.Errorf("server %d journaled nothing", i)
			}
		}
		return c.TraceSummary()
	}

	want := run(t, Config{}, nil)
	if want.Len == 0 {
		t.Fatal("reference run recorded no trace")
	}
	for _, f := range fleets {
		for name, key := range map[string][]byte{"plain": nil, "sealed": bytes.Repeat([]byte{7}, 32)} {
			t.Run(f.name+"/"+name, func(t *testing.T) {
				if got := run(t, f.cfg, key); got != want {
					t.Errorf("trace %+v != memory/unsharded %+v", got, want)
				}
			})
		}
	}
	t.Run("rejects", fleetRejections)
}

// fleetRejections has one row per rule New rejects a Config by; each error
// must name the field (or the backend) at fault.
func fleetRejections(t *testing.T) {
	_, ts4 := obstore(t, 16, 4) // a B=4 server: wrong for the default B=8 every row below runs at
	_, ts8 := obstore(t, 16, 8) // right for plaintext B=8, wrong for sealed
	dir := t.TempDir()
	rows := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"block size not a power of two", Config{BlockSize: 3}, "BlockSize"},
		{"cache below 4B", Config{BlockSize: 8, CacheWords: 8}, "CacheWords"},
		{"unknown sorter", Config{Sorter: "quick"}, "Sorter"},
		{"negative shards", Config{NumShards: -1}, "NumShards"},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"ShardPaths length", Config{NumShards: 2, ShardPaths: []string{"a"}}, "ShardPaths"},
		{"ShardURLs length", Config{NumShards: 2, ShardURLs: []string{ts8.URL}}, "ShardURLs"},
		{"URL with Path", Config{URL: ts8.URL, Path: filepath.Join(dir, "x.dat")}, "URL and Path"},
		{"URL with shards", Config{NumShards: 2, URL: ts8.URL}, "ShardURLs, not URL"},
		{"negative timeout", Config{NetTimeout: -time.Second}, "NetTimeout"},
		{"namespace alphabet", Config{Namespace: "no/slashes"}, "Namespace"},
		{"multiplex with transport", Config{Multiplex: true, HTTPTransport: http.DefaultTransport}, "Multiplex"},
		{"negative replicas", Config{Replicas: -1}, "Replicas"},
		{"ReplicaURLs without replicas", Config{ReplicaURLs: []string{ts8.URL}}, "require Replicas > 1"},
		{"replicas with URL", Config{Replicas: 2, URL: ts8.URL}, "ReplicaURLs, not URL/ShardURLs"},
		{"replicas with ShardURLs", Config{Replicas: 2, NumShards: 1, ShardURLs: []string{ts8.URL}}, "ReplicaURLs, not URL/ShardURLs"},
		{"replicas with Path", Config{Replicas: 2, Path: filepath.Join(dir, "r.dat")}, "file-backed replicas"},
		{"replicas with ShardPaths", Config{Replicas: 2, NumShards: 1, ShardPaths: []string{filepath.Join(dir, "r.dat")}}, "file-backed replicas"},
		{"ReplicaURLs length", Config{Replicas: 2, NumShards: 2, ReplicaURLs: []string{ts8.URL, ts8.URL}}, "ReplicaURLs"},
		{"short key", Config{EncryptionKey: make([]byte, 7)}, "encryption key"},
		{"TLSRootCA unreadable", Config{TLSRootCA: filepath.Join(dir, "missing.pem")}, "TLSRootCA"},
		{"TLSRootCA without certificates", Config{TLSRootCA: "go.mod"}, "TLSRootCA"},
		{"Path with shards", Config{NumShards: 2, Path: filepath.Join(dir, "p.dat")}, "ShardPaths, not Path"},
		{"bad Path", Config{Path: "/nonexistent-dir-xyz/f.dat"}, "/nonexistent-dir-xyz/f.dat"},
		{"bad ShardPaths entry", Config{NumShards: 2, ShardPaths: []string{filepath.Join(dir, "ok.dat"), "/nonexistent-dir-xyz/s1.dat"}}, "/nonexistent-dir-xyz/s1.dat"},
		{"dead server", Config{URL: "http://127.0.0.1:1", NetTimeout: 50 * time.Millisecond, NetRetries: -1}, "http://127.0.0.1:1"},
		{"server block size", Config{URL: ts4.URL}, "server block size 4 != BlockSize 8"},
		{"shard server block size", Config{NumShards: 2, ShardURLs: []string{ts8.URL, ts4.URL}}, "shard 1 server block size 4"},
		{"replica server block size", Config{Replicas: 2, ReplicaURLs: []string{ts8.URL, ts4.URL}}, "shard 0 replica 1 server block size 4"},
		{"plaintext-sized server under encryption", Config{URL: ts8.URL, EncryptionKey: make([]byte, 32)}, "sealed block size 10"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c, err := New(r.cfg)
			if err == nil {
				c.Close()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), r.want) {
				t.Fatalf("error %q does not name %q", err, r.want)
			}
		})
	}
}
