package oblivext

import (
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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
		StartBlocks:   4096,
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
