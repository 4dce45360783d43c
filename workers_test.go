package oblivext

import (
	"fmt"
	"testing"

	"oblivext/internal/oram"
)

// The Config.Workers contract, end to end through the public API: for every
// sorter engine and every worker count, the sort must produce the same
// sorted output, the per-block trace Bob observes must be bit-identical to
// the serial run's, and the private cache must stay within budget.
func TestWorkersTraceInvariantAcrossEngines(t *testing.T) {
	const n, b, cache = 1 << 10, 8, 1024
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(i*2654435761) % (1 << 20), Val: uint64(i)}
	}

	for _, engine := range []string{"randomized", "bitonic", "zigzag", "bucket"} {
		type outcome struct {
			sum  TraceSummary
			recs []Record
		}
		var serial outcome
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", engine, w), func(t *testing.T) {
				c, err := New(Config{BlockSize: b, CacheWords: cache, Seed: 42,
					Sorter: engine, Workers: w})
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
				got, err := arr.Records()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("lost records: %d of %d", len(got), n)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Key > got[i].Key {
						t.Fatalf("not sorted at %d", i)
					}
				}
				if hw := c.CacheHighWater(); hw > cache {
					t.Fatalf("cache high water %d exceeds M=%d at workers=%d", hw, cache, w)
				}
				sum := c.TraceSummary()
				if w == 1 {
					serial = outcome{sum: sum, recs: got}
					return
				}
				if sum != serial.sum {
					t.Fatalf("trace fingerprint differs from serial run: %+v vs %+v", sum, serial.sum)
				}
				for i := range got {
					if got[i] != serial.recs[i] {
						t.Fatalf("record %d differs from serial run", i)
					}
				}
			})
		}
	}
}

// Same contract with the CryptStore in the stack: parallel sealing/opening
// must not perturb the trace, the results, or the crypto byte accounting.
func TestWorkersTraceInvariantEncrypted(t *testing.T) {
	const n, b, cache = 1 << 9, 8, 1024
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64((n - i) * 13), Val: uint64(i)}
	}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i + 1)
	}

	type outcome struct {
		sum    TraceSummary
		sealed int64
	}
	var serial outcome
	for _, w := range []int{1, 4} {
		c, err := New(Config{BlockSize: b, CacheWords: cache, Seed: 7,
			EncryptionKey: key, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTrace(0)
		c.ResetStats()
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		got, err := arr.Records()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key > got[i].Key {
				t.Fatalf("workers=%d: not sorted at %d", w, i)
			}
		}
		cur := outcome{sum: c.TraceSummary(), sealed: c.Stats().BytesSealed}
		c.Close()
		if w == 1 {
			serial = cur
			continue
		}
		if cur.sum != serial.sum {
			t.Fatalf("encrypted trace differs at workers=%d: %+v vs %+v", w, cur.sum, serial.sum)
		}
		if cur.sealed != serial.sealed {
			t.Fatalf("BytesSealed %d at workers=%d, serial %d", cur.sealed, w, serial.sealed)
		}
	}
}

// ORAM accesses and rebuilds run the same parallel in-cache passes; the
// access trace must stay a function of (n, B, t, seed) alone. 64 blocks
// against a cache of 512 blocks make the hierarchy the arm, and the writes
// and reads below flush its 64-entry buffer twice.
func TestWorkersTraceInvariantORAM(t *testing.T) {
	const logical = 64
	run := func(w int) (TraceSummary, []uint64) {
		c, err := New(Config{BlockSize: 4, CacheWords: 2048, Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTrace(0)
		r, err := c.NewORAM(logical)
		if err != nil {
			t.Fatal(err)
		}
		if arm := r.o.Arm(); arm != oram.ArmHierarchy {
			t.Fatalf("the ORAM is a %s, want the hierarchy", arm)
		}
		for i := 0; i < logical; i++ {
			if err := r.Write(i, []uint64{uint64(i * 7), uint64(i), 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		var vals []uint64
		for i := 0; i < logical; i++ {
			words, err := r.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, words[0])
		}
		if got := r.o.Rebuilds().Count; got != 3 {
			t.Fatalf("%d rebuilds, want 3: the build and the buffer's 2 flushes", got)
		}
		return c.TraceSummary(), vals
	}
	sum1, vals1 := run(1)
	for _, w := range []int{2, 4} {
		sum, vals := run(w)
		if sum != sum1 {
			t.Fatalf("ORAM trace differs at workers=%d", w)
		}
		for i := range vals {
			if vals[i] != vals1[i] {
				t.Fatalf("ORAM payload %d differs at workers=%d", i, w)
			}
		}
	}
	for i, v := range vals1 {
		if v != uint64(i*7) {
			t.Fatalf("ORAM read back %d at %d, want %d", v, i, i*7)
		}
	}
}

func TestWorkersConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	c, err := New(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
