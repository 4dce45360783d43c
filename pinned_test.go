package oblivext

import "testing"

// TestPublicCallTracesPinned pins the per-block trace of each public call
// the benchmark's workloads make, at their geometry: 8 192 blocks of B = 8
// against M = 4 096. Each call runs on a fresh client over the same
// records, the compactions after a Mark that the row does not count. The
// values are the calls' traces, not a model of them: regrouping the blocks
// into other interactions leaves every row as it is, and adding, dropping
// or reordering a single access breaks its row.
func TestPublicCallTracesPinned(t *testing.T) {
	const n = 1 << 16
	recs := mkRecords(n, 55)
	marked := func(r Record) bool { return r.Key%4 == 0 }
	type pin struct {
		len           int64
		hash          uint64
		reads, writes int64
	}
	for _, r := range []struct {
		call string
		run  func(a *Array) error
		want pin
	}{
		{"sort", func(a *Array) error { return a.Sort() }, pin{290779, 0x23ed2c6ee259c102, 143764, 147015}},
		{"select", func(a *Array) error { _, err := a.Select(n / 2); return err }, pin{40960, 0x2d10808702ed6d25, 24576, 16384}},
		{"quantiles", func(a *Array) error { _, err := a.Quantiles(8); return err }, pin{40960, 0x2d10808702ed6d25, 24576, 16384}},
		{"mark", func(a *Array) error { _, err := a.Mark(marked); return err }, pin{16384, 0x641ef9ef1d1782a5, 8192, 8192}},
		{"compact-tight", func(a *Array) error { _, err := a.CompactTight(n / 3); return err }, pin{32768, 0xe321226c5fecf423, 16384, 16384}},
		{"compact-loose", func(a *Array) error { _, err := a.CompactLoose(n / 3); return err }, pin{38236, 0xc958d79cd1ecd24b, 16384, 21852}},
	} {
		c, err := New(Config{BlockSize: 8, CacheWords: 4096, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Store(recs)
		if err == nil && (r.call == "compact-tight" || r.call == "compact-loose") {
			_, err = a.Mark(marked)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTrace(0)
		before := c.Stats()
		if err := r.run(a); err != nil {
			t.Fatalf("%s: %v", r.call, err)
		}
		sum, st := c.TraceSummary(), c.Stats()
		if got := (pin{sum.Len, sum.Hash, st.Reads - before.Reads, st.Writes - before.Writes}); got != r.want {
			t.Errorf("%s: trace len=%d hash=%#016x, %d reads, %d writes; pinned len=%d hash=%#016x, %d reads, %d writes",
				r.call, got.len, got.hash, got.reads, got.writes, r.want.len, r.want.hash, r.want.reads, r.want.writes)
		}
		c.Close()
	}
}
