package oblivext

import (
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/oram"
)

func mkRecords(n int, seed uint64) []Record {
	r := rand.New(rand.NewPCG(seed, seed+1))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: r.Uint64() % 1_000_000, Val: uint64(i)}
	}
	return out
}

func TestPublicSortSelectQuantiles(t *testing.T) {
	c, err := New(Config{BlockSize: 8, CacheWords: 256, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := mkRecords(2000, 7)
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 2000 {
		t.Fatalf("len = %d", arr.Len())
	}
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

	med, err := arr.Select(1000)
	if err != nil {
		t.Fatal(err)
	}
	if med.Key != sorted[999].Key {
		t.Fatalf("median = %d, want %d", med.Key, sorted[999].Key)
	}

	qs, err := arr.Quantiles(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("%d quantiles", len(qs))
	}

	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records after sort, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Key != sorted[i].Key {
			t.Fatalf("position %d: %d vs %d", i, got[i].Key, sorted[i].Key)
		}
	}
}

func TestPublicSortDeterministic(t *testing.T) {
	c, _ := New(Config{BlockSize: 4, CacheWords: 64, Seed: 1, Sorter: "bitonic"})
	defer c.Close()
	recs := mkRecords(100, 3)
	arr, _ := c.Store(recs)
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, _ := arr.Records()
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPublicMarkAndCompact(t *testing.T) {
	c, _ := New(Config{BlockSize: 8, CacheWords: 1024, Seed: 9})
	defer c.Close()
	recs := mkRecords(500, 11)
	arr, _ := c.Store(recs)
	marked, err := arr.Mark(func(r Record) bool { return r.Key%10 == 3 })
	if err != nil {
		t.Fatal(err)
	}
	tight, err := arr.CompactTight(marked + 8)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tight.Records()
	if int64(len(got)) != marked {
		t.Fatalf("%d records compacted, want %d", len(got), marked)
	}
	// Order preserved: Vals (insertion indexes) strictly increasing.
	for i := 1; i < len(got); i++ {
		if got[i-1].Val >= got[i].Val {
			t.Fatalf("order broken at %d", i)
		}
	}
	for _, r := range got {
		if r.Key%10 != 3 {
			t.Fatalf("unmarked record %d leaked through", r.Key)
		}
	}

	loose, err := arr.CompactLoose(marked + 8)
	if err != nil {
		t.Fatal(err)
	}
	lr, _ := loose.Records()
	if int64(len(lr)) != marked {
		t.Fatalf("loose kept %d, want %d", len(lr), marked)
	}
}

func TestPublicTraceObliviousness(t *testing.T) {
	run := func(recs []Record) TraceSummary {
		c, _ := New(Config{BlockSize: 8, CacheWords: 256, Seed: 77})
		defer c.Close()
		c.EnableTrace(0)
		arr, _ := c.Store(recs)
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		return c.TraceSummary()
	}
	a := mkRecords(1500, 1)
	b := make([]Record, 1500)
	for i := range b {
		b[i] = Record{Key: 5, Val: uint64(i)}
	}
	sa, sb := run(a), run(b)
	if sa != sb {
		t.Fatalf("public sort trace depends on data: %+v vs %+v", sa, sb)
	}
}

func TestPublicFileBackedEncrypted(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	c, err := New(Config{
		BlockSize: 4, CacheWords: 128, Seed: 5,
		Path:          filepath.Join(t.TempDir(), "store.dat"),
		EncryptionKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := mkRecords(200, 13)
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, _ := arr.Records()
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPublicORAM(t *testing.T) {
	c, _ := New(Config{BlockSize: 4, CacheWords: 256, Seed: 3})
	defer c.Close()
	o, err := c.NewORAM(16)
	if err != nil {
		t.Fatal(err)
	}
	if o.Size() != 16 {
		t.Fatalf("size = %d", o.Size())
	}
	if err := o.Write(3, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 || v[3] != 4 {
		t.Fatalf("read back %v", v)
	}
}

// TestPublicSortEngines: every named engine sorts through the public API,
// keeps the private cache within M, and leaves one trace whatever the
// input.
func TestPublicSortEngines(t *testing.T) {
	const n, b, cache = 1 << 10, 8, 1024
	spread := make([]Record, n)
	for i := range spread {
		spread[i] = Record{Key: uint64(i*2654435761) % (1 << 20), Val: uint64(i)}
	}
	equal := make([]Record, n)
	for i := range equal {
		equal[i] = Record{Key: 7, Val: uint64(i)}
	}
	for _, engine := range []string{"randomized", "bitonic", "zigzag"} {
		t.Run(engine, func(t *testing.T) {
			var first TraceSummary
			for i, recs := range [][]Record{spread, equal} {
				c, err := New(Config{BlockSize: b, CacheWords: cache, Seed: 42, Sorter: engine})
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
				for j := 1; j < len(got); j++ {
					if got[j-1].Key > got[j].Key {
						t.Fatalf("not sorted at %d", j)
					}
				}
				if hw := c.CacheHighWater(); hw > cache {
					t.Fatalf("cache high water %d exceeds M=%d", hw, cache)
				}
				if sum := c.TraceSummary(); i == 0 {
					first = sum
				} else if sum != first {
					t.Fatalf("trace on equal keys %+v differs from %+v", sum, first)
				}
			}
		})
	}
}

// TestPublicORAMHierarchy: 64 blocks against a cache of 512 blocks make
// the hierarchy the arm; writing every block and reading it back flushes
// its 64-entry buffer twice, 3 rebuilds with the build. The payloads read
// back are the ones written, and the trace is a function of (n, B, t,
// seed) alone: other payloads leave the same one.
func TestPublicORAMHierarchy(t *testing.T) {
	const logical = 64
	run := func(mul uint64) TraceSummary {
		c, err := New(Config{BlockSize: 4, CacheWords: 2048, Seed: 3})
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
		for i := range uint64(logical) {
			if err := r.Write(int(i), []uint64{i * mul, i, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range uint64(logical) {
			words, err := r.Read(int(i))
			if err != nil {
				t.Fatal(err)
			}
			if words[0] != i*mul {
				t.Fatalf("ORAM read back %d at %d, want %d", words[0], i, i*mul)
			}
		}
		if got := r.o.Rebuilds().Count; got != 3 {
			t.Fatalf("%d rebuilds, want 3: the build and the buffer's 2 flushes", got)
		}
		return c.TraceSummary()
	}
	if a, b := run(7), run(1<<40+3); a != b {
		t.Fatalf("ORAM trace depends on the payloads: %+v vs %+v", a, b)
	}
}

// TestPublicSortColumnsortDeclaresGeometry: an explicit columnsort on an
// array past its size limit is a declared error naming the geometry, given
// before any I/O, and leaves the records as they were.
func TestPublicSortColumnsortDeclaresGeometry(t *testing.T) {
	c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 1, Sorter: "columnsort"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := mkRecords(1616*8, 3)
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	err = arr.Sort()
	if want := "n=1616 blocks of B=8 with 512 elements of cache free"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Sort() = %v, want an error naming %q", err, want)
	}
	if st := c.Stats(); st.Reads+st.Writes != 0 {
		t.Fatalf("the declared error cost %d reads and %d writes", st.Reads, st.Writes)
	}
	got, _ := arr.Records()
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v after the declared error, was %+v", i, got[i], recs[i])
		}
	}
	// The same engine sorts an array its geometry admits: 64 blocks.
	small, err := c.Store(mkRecords(64*8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Sort(); err != nil {
		t.Fatal(err)
	}
	sorted, _ := small.Records()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Key > sorted[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestPublicConfigValidation(t *testing.T) {
	if _, err := New(Config{BlockSize: 3}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
	if _, err := New(Config{BlockSize: 8, CacheWords: 8}); err == nil {
		t.Error("tiny cache accepted")
	}
	if _, err := New(Config{EncryptionKey: make([]byte, 7)}); err == nil {
		t.Error("short encryption key accepted")
	}
	if _, err := New(Config{Path: "/nonexistent-dir-xyz/f.dat"}); err == nil {
		t.Error("bad path accepted")
	}
}

func TestPublicStatsAndCache(t *testing.T) {
	c, _ := New(Config{BlockSize: 8, CacheWords: 256, Seed: 2, Sorter: "bitonic"})
	defer c.Close()
	arr, _ := c.Store(mkRecords(400, 5))
	c.ResetStats()
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Reads == 0 || st.Writes == 0 || st.Total() != st.Reads+st.Writes {
		t.Fatalf("stats %+v", st)
	}
	if hw := c.CacheHighWater(); hw > 256 {
		t.Fatalf("cache high water %d exceeds configured 256", hw)
	}
}

// TestScanEncFileCallsPriced runs the benchmark's scan_enc_file calls —
// Select of the median, Quantiles(8), Mark, CompactTight(n/3) and
// CompactLoose(n/3) over 2^16 records, B = 8, M = 4 096 — on a MemStore
// client: the block I/Os and round trips they measure are exactly the sum
// of the predictors' — SelectCost, QuantilesCost, Mark's read and write
// scans, CompactTightCost and CompactLooseCost: 169 308 I/Os in 367 round
// trips, 2.5834 a record. They were 169 308 in 507 before the scans and
// routings sent each write with the next read, 169 308 in 631 while each
// block I/O call of a deterministic sort was its own round trip (Select's
// and Quantiles' columnsort 160 each, now 98), 177 500 in 648 while
// Quantiles counted N in a scan of its own, and 209 244 in 908 (before two
// I/Os a repeated probe) while loose compaction ran Theorem 8; and
// 282 972 in 1 124 while the calls copied the array to sort it and
// consolidated it into an array to compact it loosely.
func TestScanEncFileCallsPriced(t *testing.T) {
	const n, b, m = 1 << 16, 8, 4096
	c, err := New(Config{BlockSize: b, CacheWords: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(mkRecords(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableSpans()
	c.ResetStats()
	if _, err := arr.Select(n / 2); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Quantiles(8); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Mark(func(r Record) bool { return r.Key%4 == 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.CompactTight(n / 3); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.CompactLoose(n / 3); err != nil {
		t.Fatal(err)
	}
	blocks, rCap := n/b, extmem.CeilDiv(n/3, b)+1
	mark := obs.Cost{IOs: 2 * int64(blocks), RoundTrips: extmem.TwoSidedScanRoundTrips(blocks, b, m, 1)}
	want := core.SelectCost(blocks, b, m).Add(core.QuantilesCost(blocks, b, m, 8)).Add(mark).
		Add(core.CompactTightCost(blocks, rCap, b, m)).Add(core.CompactLooseCost(blocks, rCap, b, m))
	if want != (obs.Cost{IOs: 169308, RoundTrips: 367}) {
		t.Errorf("the predictors sum to %+v, want 169 308 I/Os in 367 round trips", want)
	}
	st := c.Stats()
	if got := (obs.Cost{IOs: st.Total(), RoundTrips: st.RoundTrips}); got != want {
		t.Errorf("measured %+v, predicted %+v", got, want)
	}
}
