package bench

import (
	"net/http/httptest"
	"time"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// E18 measures the cost of Alice-side encryption: the same Sort, same seed,
// same geometry, run unencrypted and with the CryptStore decorator sealing
// every block (one AEAD call per write and per read) over both the in-memory
// and the real HTTP backend. The crypto-overhead line the IOStats
// BytesSealed/BytesOpened counters feed is reported alongside wall time,
// and the trace column re-checks the decorator's security contract: the
// logical trace must be bit-identical with encryption on and off.
func E18() *Table {
	const (
		n     = 1 << 13 // records
		b     = 8
		cache = 2048
		seed  = 77
	)
	t := &Table{
		ID:    "E18",
		Title: "Client-side encryption overhead: Sort (N=2^13, B=8), sealed vs plaintext",
		Headers: []string{"backend", "encrypted", "wall time", "block I/Os",
			"bytes sealed", "bytes opened", "wire expansion", "trace == plaintext mem?"},
		Metrics: map[string]float64{},
	}

	recs := make([]oblivext.Record, n)
	for i := range recs {
		recs[i] = oblivext.Record{Key: uint64(i*2654435761) % (1 << 30), Val: uint64(i)}
	}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*7 + 2)
	}

	type result struct {
		wall  time.Duration
		stats oblivext.IOStats
		sum   oblivext.TraceSummary
	}
	run := func(cfg oblivext.Config) result {
		cfg.Workers = defaultWorkers
		c, err := oblivext.New(cfg)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		arr, err := c.Store(recs)
		if err != nil {
			panic(err)
		}
		c.EnableTrace(0)
		c.ResetStats()
		start := time.Now()
		if err := arr.Sort(); err != nil {
			panic(err)
		}
		wall := time.Since(start)
		got, err := arr.Records()
		if err != nil {
			panic(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key > got[i].Key {
				panic("not sorted")
			}
		}
		return result{wall: wall, stats: c.Stats(), sum: c.TraceSummary()}
	}
	spinSealed := func() (string, func()) {
		srv := netstore.NewServer(
			extmem.NewMemStore(8192, extmem.CryptChildBlockSize(b)), netstore.ServerOptions{})
		ts := httptest.NewServer(srv.Handler())
		return ts.URL, ts.Close
	}

	base := oblivext.Config{BlockSize: b, CacheWords: cache, Seed: seed, StartBlocks: 8192}
	plainMem := run(base)

	encMemCfg := base
	encMemCfg.EncryptionKey = key
	encMem := run(encMemCfg)

	url, stop := spinSealed()
	encHTTPCfg := base
	encHTTPCfg.EncryptionKey = key
	encHTTPCfg.URL = url
	encHTTP := run(encHTTPCfg)
	stop()

	plainBytes := func(r result) float64 {
		return float64(r.stats.Total()) * float64(b) * float64(extmem.ElementBytes)
	}
	expansion := func(r result) string {
		if r.stats.BytesSealed == 0 {
			return "-"
		}
		return ratio(float64(r.stats.BytesSealed+r.stats.BytesOpened), plainBytes(r))
	}
	row := func(backend string, encrypted bool, r result) {
		enc := "no"
		if encrypted {
			enc = "yes"
		}
		tracesOK := "yes"
		if r.sum != plainMem.sum {
			tracesOK = "NO"
		}
		t.Rows = append(t.Rows, []string{backend, enc, f("%v", r.wall.Round(time.Millisecond)),
			f("%d", r.stats.Total()), f("%d", r.stats.BytesSealed), f("%d", r.stats.BytesOpened),
			expansion(r), tracesOK})
	}
	row("mem", false, plainMem)
	row("mem", true, encMem)
	row("http (obstore -b 10)", true, encHTTP)

	t.Notes = append(t.Notes,
		"Every sealed block carries a 16-byte salt, an 8-byte counter and a 16-byte GCM tag (40 bytes, padded to two elements), so the wire/stored footprint approaches (B+2)/B = 1.25x the plaintext at B=8; the wire-expansion column measures it from the BytesSealed/BytesOpened counters (reads of never-written blocks cost no crypto, which is why it lands slightly below the ceiling).",
		f("CPU cost of sealing: mem Sort went %v -> %v; over real HTTP the crypto hides behind the wire (%v total).",
			plainMem.wall.Round(time.Millisecond), encMem.wall.Round(time.Millisecond), encHTTP.wall.Round(time.Millisecond)),
		"The trace column is the security contract: the CryptStore decorator changes the bytes Bob stores, never the (kind, address) sequence he observes.")

	t.Metrics["plain_mem_wall_ms"] = float64(plainMem.wall.Milliseconds())
	t.Metrics["enc_mem_wall_ms"] = float64(encMem.wall.Milliseconds())
	t.Metrics["enc_http_wall_ms"] = float64(encHTTP.wall.Milliseconds())
	t.Metrics["enc_mem_bytes_sealed"] = float64(encMem.stats.BytesSealed)
	t.Metrics["enc_mem_bytes_opened"] = float64(encMem.stats.BytesOpened)
	t.Metrics["enc_http_bytes_sealed"] = float64(encHTTP.stats.BytesSealed)
	t.Metrics["enc_http_bytes_opened"] = float64(encHTTP.stats.BytesOpened)
	t.Metrics["wire_expansion"] = (float64(encMem.stats.BytesSealed+encMem.stats.BytesOpened) /
		plainBytes(encMem))
	t.Metrics["traces_identical"] = boolMetric(encMem.sum == plainMem.sum && encHTTP.sum == plainMem.sum)
	return t
}
