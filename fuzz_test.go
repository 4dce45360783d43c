package oblivext

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/obsort"
)

// The fuzz targets pin two invariant families at once, over randomized
// sizes, payloads, and ranks:
//
//   - correctness: the operation returns exactly the right records;
//   - trace shape: with the tape seed fixed, the access trace depends only
//     on the public parameters (N, and the capacity or nothing — never the
//     data, never the rank), checked by replaying the operation on a
//     degenerate same-size input and comparing fingerprints.
//
// The paper's randomized algorithms may fail with low probability
// (ErrSelectFailed / ErrCompactionFailed). A failure is a *public* event in
// the paper's model — Alice declares it and retries with fresh randomness —
// and the algorithm aborts at the failed check, so the observed trace is a
// prefix of the success-path trace. The trace-shape invariant therefore
// compares fingerprints between runs that completed; a failed run instead
// checks the prefix property (FuzzSelect found exactly this: a bracket miss
// at n=181 truncates the trace at the failed rank check).

func fuzzRecords(n int, seed uint64) []Record {
	r := rand.New(rand.NewPCG(seed, seed^0xdeadbeef))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: r.Uint64() % 4096, Val: uint64(i)} // dense keys: plenty of ties
	}
	return out
}

// fuzzKey derives a 32-byte encryption key from the fuzzed seed. One leg of
// every fuzz case runs with client-side encryption on, so the sealing path
// is fuzzed alongside the algorithms — and since the two legs' traces are
// compared, every case also re-proves that sealing never changes what the
// adversary sees.
func fuzzKey(seed uint64) []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(seed>>(8*(i%8))) ^ byte(i*37+11)
	}
	return key
}

// FuzzCompactTight drives both public compactions, CompactTight and
// CompactLoose, on each of its two legs.
func FuzzCompactTight(f *testing.F) {
	f.Add(uint16(100), uint64(3), uint8(10), uint8(3))
	f.Add(uint16(1), uint64(1), uint8(1), uint8(0))
	f.Add(uint16(1024), uint64(7), uint8(2), uint8(1))
	f.Add(uint16(33), uint64(9), uint8(16), uint8(15))
	f.Add(uint16(512), uint64(1234), uint8(1), uint8(0)) // marks everything
	f.Add(uint16(257), uint64(42), uint8(255), uint8(254))

	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, modRaw, remRaw uint8) {
		n := int(nRaw)%1024 + 1
		mod := uint64(modRaw)%16 + 1
		rem := uint64(remRaw) % mod
		pred := func(r Record) bool { return r.Key%mod == rem }
		capacity := int64(n) // public: chosen from workload knowledge, not data

		for _, loose := range []bool{false, true} {
			run := func(recs []Record, key []byte) (TraceSummary, []Record, error) {
				c, err := New(Config{BlockSize: 8, CacheWords: 256, Seed: 123, EncryptionKey: key})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				arr, err := c.Store(recs)
				if err != nil {
					t.Fatal(err)
				}
				c.EnableTrace(0)
				if _, err := arr.Mark(pred); err != nil {
					t.Fatal(err)
				}
				compact := arr.CompactTight
				if loose {
					compact = arr.CompactLoose
				}
				out, err := compact(capacity)
				if used := c.env.Cache.Used(); used != 0 {
					t.Fatalf("loose=%v: %d cache elements still checked out", loose, used)
				}
				if err != nil {
					return c.TraceSummary(), nil, err
				}
				if rCap := int(capacity+7)/8 + 1; loose && out.Blocks() != 5*rCap {
					t.Fatalf("n=%d: loose output of %d blocks, want 5·%d", n, out.Blocks(), rCap)
				}
				got, err := out.Records()
				if err != nil {
					t.Fatal(err)
				}
				return c.TraceSummary(), got, nil
			}

			recs := fuzzRecords(n, seed)
			traceA, got, errA := run(recs, nil)

			if errA == nil {
				var want []Record
				for _, r := range recs {
					if pred(r) {
						want = append(want, r)
					}
				}
				if loose { // a loose compaction promises the multiset alone
					slices.SortFunc(got, byKeyVal)
					slices.SortFunc(want, byKeyVal)
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d mod=%d rem=%d loose=%v: compacted %d records, want %d", n, mod, rem, loose, len(got), len(want))
				}
				for i := range want { // exact, and order-preserving when tight
					if got[i] != want[i] {
						t.Fatalf("loose=%v position %d: %+v, want %+v", loose, i, got[i], want[i])
					}
				}
			} else if !errors.Is(errA, core.ErrCompactionFailed) {
				t.Fatalf("loose=%v: unexpected error: %v", loose, errA)
			}

			// Degenerate same-size input: constant keys, so the marked count is
			// all-or-nothing — about as different from recs as it gets. This
			// leg runs with client-side encryption on, so trace equality also
			// pins that sealing is invisible to the adversary's view.
			constant := make([]Record, n)
			for i := range constant {
				constant[i] = Record{Key: 5, Val: uint64(i)}
			}
			traceB, _, errB := run(constant, fuzzKey(seed))
			if errA == nil && errB == nil && traceA != traceB {
				t.Fatalf("n=%d loose=%v: compaction trace depends on data or encryption: %+v vs %+v", n, loose, traceA, traceB)
			}
			if loose && (errA != nil || errB != nil) {
				t.Fatalf("n=%d: loose compaction within capacity failed: %v, %v", n, errA, errB)
			}
			if errA != nil || errB != nil {
				// A declared failure aborts early: its trace must be no longer
				// than the completed run's.
				if errA != nil && errB == nil && traceA.Len > traceB.Len {
					t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceA, traceB)
				}
				if errB != nil && errA == nil && traceB.Len > traceA.Len {
					t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceB, traceA)
				}
			}
			if traceA.Len == 0 {
				t.Fatal("empty trace recorded")
			}
		}
	})
}

func FuzzSort(f *testing.F) {
	// One seed per engine (engineRaw selects modulo the engine list: 0
	// randomized, 1 bitonic, 2 zigzag, 3 auto, 4 columnsort), plus boundary
	// sizes and a single-record case; 7 wraps round to zigzag.
	f.Add(uint16(100), uint64(3), uint8(0))
	f.Add(uint16(1), uint64(1), uint8(1))
	f.Add(uint16(1000), uint64(2), uint8(2))
	f.Add(uint16(64), uint64(11), uint8(3))
	f.Add(uint16(257), uint64(42), uint8(7))
	// randomized where its top level distributes (n = 1000 and 1024; n = 100
	// sorts privately), so bucket capacities, not occupancies, steer it.
	f.Add(uint16(999), uint64(5), uint8(0))
	f.Add(uint16(1023), uint64(6), uint8(0))
	// columnsort where a matrix fits the cache (800 records, 100 blocks)
	// and where none does (513 records, 65 blocks: a declared rejection).
	f.Add(uint16(799), uint64(13), uint8(4))
	f.Add(uint16(512), uint64(14), uint8(4))

	engines := []string{"randomized", "bitonic", "zigzag", "auto", "columnsort"}
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, engineRaw uint8) {
		n := int(nRaw)%1024 + 1
		engine := engines[int(engineRaw)%len(engines)]

		run := func(recs []Record, key []byte) (TraceSummary, []Record, error) {
			c, err := New(Config{BlockSize: 8, CacheWords: 512, Seed: 555, EncryptionKey: key, Sorter: engine})
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
				return c.TraceSummary(), nil, err
			}
			got, err := arr.Records()
			if err != nil {
				t.Fatal(err)
			}
			return c.TraceSummary(), got, nil
		}

		recs := fuzzRecords(n, seed)
		traceA, got, errA := run(recs, nil)

		// Columnsort declares an array no matrix fits before any I/O; the
		// geometry alone decides, so the constant input is declined too.
		if errors.Is(errA, obsort.ErrColumnGeometry) {
			traceB, _, errB := run(make([]Record, n), fuzzKey(seed))
			if engine != "columnsort" || !errors.Is(errB, obsort.ErrColumnGeometry) || traceA.Len != 0 || traceB.Len != 0 {
				t.Fatalf("engine=%s n=%d: %v after %d accesses, %v after %d: want columnsort's declared rejection before any I/O, both times",
					engine, n, errA, traceA.Len, errB, traceB.Len)
			}
			return
		}
		if errA == nil {
			want := append([]Record(nil), recs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) {
				t.Fatalf("engine=%s n=%d: %d records after sort, want %d", engine, n, len(got), len(want))
			}
			for i := range want { // stable: insertion order breaks ties
				if got[i] != want[i] {
					t.Fatalf("engine=%s n=%d position %d: %+v, want %+v", engine, n, i, got[i], want[i])
				}
			}
		} else if !errors.Is(errA, core.ErrSortFailed) {
			// Only the randomized engine may fail; the deterministic engines
			// never do.
			t.Fatalf("engine=%s: unexpected error: %v", engine, errA)
		}

		// Degenerate same-size input (all keys equal — maximal ties) with
		// client-side encryption on: neither the data nor the sealing may
		// show in the trace.
		constant := make([]Record, n)
		for i := range constant {
			constant[i] = Record{Key: 5, Val: uint64(i)}
		}
		traceB, _, errB := run(constant, fuzzKey(seed))
		if errA == nil && errB == nil && traceA != traceB {
			t.Fatalf("engine=%s n=%d: sort trace depends on data or encryption: %+v vs %+v",
				engine, n, traceA, traceB)
		}
		// A declared randomized-sort failure aborts at the failed check, so
		// its trace is a prefix of the success path's.
		if errA != nil && errB == nil && traceA.Len > traceB.Len {
			t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceA, traceB)
		}
		if errB != nil && errA == nil && traceB.Len > traceA.Len {
			t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceB, traceA)
		}
		if traceA.Len == 0 {
			t.Fatal("empty trace recorded")
		}
	})
}

func FuzzSelect(f *testing.F) {
	f.Add(uint16(100), uint16(50), uint64(1))
	f.Add(uint16(1), uint16(1), uint64(1))
	f.Add(uint16(1000), uint16(1), uint64(2))
	f.Add(uint16(777), uint16(777), uint64(3))
	f.Add(uint16(64), uint16(33), uint64(4))
	f.Add(uint16(2), uint16(2), uint64(99))

	f.Fuzz(func(t *testing.T, nRaw, kRaw uint16, seed uint64) {
		n := int(nRaw)%1024 + 1
		checkSelectTraceShape(t, 256, n, int64(kRaw)%int64(n)+1, seed)
	})
}

// TestSelectTraceShapeAtBenchmarkGeometry asserts FuzzSelect's property where
// Select narrows by sampling instead of sorting (N = 2^16, M = 4096): at
// ranks 1, N/2 and N, on random and on constant data, sealed and not, the
// trace is one and the same.
func TestSelectTraceShapeAtBenchmarkGeometry(t *testing.T) {
	const n = 1 << 16
	var want TraceSummary
	for i, k := range []int64{1, n / 2, n} {
		got := checkSelectTraceShape(t, 4096, n, k, uint64(i))
		if i > 0 && got != want {
			t.Fatalf("k=%d: trace %+v differs from rank 1's %+v", k, got, want)
		}
		want = got
	}
}

// checkSelectTraceShape selects rank k of n fuzzed records and checks the
// answer, then selects a different rank of constant records with encryption
// on and checks that the trace did not move. It returns the first trace.
func checkSelectTraceShape(t *testing.T, cacheWords, n int, k int64, seed uint64) TraceSummary {
	run := func(recs []Record, rank int64, key []byte) (TraceSummary, Record, error) {
		c, err := New(Config{BlockSize: 8, CacheWords: cacheWords, Seed: 321, EncryptionKey: key})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTrace(0)
		rec, err := arr.Select(rank)
		return c.TraceSummary(), rec, err
	}

	recs := fuzzRecords(n, seed)
	traceA, got, errA := run(recs, k, nil)

	if errA == nil {
		keys := make([]uint64, n)
		for i, r := range recs {
			keys[i] = r.Key
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		if got.Key != keys[k-1] {
			t.Fatalf("n=%d k=%d: selected key %d, want %d", n, k, got.Key, keys[k-1])
		}
	} else if !errors.Is(errA, core.ErrSelectFailed) {
		t.Fatalf("unexpected error: %v", errA)
	}

	// Same size, degenerate data, a *different* rank, and encryption on:
	// neither the values, the rank, nor the sealing may show in the
	// trace (the rank is Alice's secret; only N is public).
	constant := make([]Record, n)
	for i := range constant {
		constant[i] = Record{Key: 5, Val: uint64(i)}
	}
	otherK := int64(n) - k + 1
	traceB, _, errB := run(constant, otherK, fuzzKey(seed))
	if errA == nil && errB == nil && traceA != traceB {
		t.Fatalf("n=%d: selection trace depends on data, rank, or encryption (k=%d vs %d): %+v vs %+v",
			n, k, otherK, traceA, traceB)
	}
	if errA != nil && errB == nil && traceA.Len > traceB.Len {
		t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceA, traceB)
	}
	if errB != nil && errA == nil && traceB.Len > traceA.Len {
		t.Fatalf("failed run traced more than a completed one: %+v vs %+v", traceB, traceA)
	}
	if traceA.Len == 0 {
		t.Fatal("empty trace recorded")
	}
	return traceA
}
