package oblivext

import (
	"testing"

	"oblivext/internal/oram"
)

// TestScalarVectoredTraceInvariance is the refactor's safety contract at the
// public API level: two clients with equal seed and geometry but different
// data — one forced to scalar I/O (the Disk's SetMaxBatch(1)), one fully vectored —
// must present byte-identical access traces to the server for Sort, Select,
// CompactTight and ORAM accesses. Batching changes round trips, never the
// adversary's view.
//
// The want column pins the vectored run's trace and counters to the values
// measured before BlockStore was collapsed to the one vectored pair: the
// Disk's one-block Read/Write now travel as batches of one, and must cost
// exactly the block I/Os and round trips the scalar store methods did. (The
// Select row was re-measured when Select became sample-bracket-narrow: at
// this M = 256 it is the sort tail, core.SelectCost(250, 8, 256) = 4 834
// I/Os in 283 round trips after the store's 250 writes in 9;
// the Sort, Select and ORAMAccess rows were re-measured when obsort.Bitonic
// packed its levels into gather passes — every one of them sorts with it;
// the Sort row again when a level of the randomized Sort went to one
// butterfly compaction per bucket and a sweep sized for two failed buckets;
// the Sort and CompactTight rows once more when the butterfly went to one
// pass per routing group, its first fed by the consolidation: 149 402 →
// 128 090 and 3 751 → 2 751 accesses; the Sort and ORAMAccess rows when the
// half-buffer pipelined writer went with the prefetch option, and the
// writers of the consolidation, the deal and the ORAM rebuild began to
// flush whole buffers: the same blocks, read and written as often, in
// 19 792 → 19 240 and 37 351 → 36 837 round trips and — reads and writes
// interleaving at the new boundaries — under a new hash, still a function
// of geometry and tape alone. Select and CompactTight use no such writer
// and did not move. The ORAMAccess row alone moved when a rebuild stopped
// sorting its tables with fillers three times over and began to route: the
// network compacts the live entries out of the tables, they alone are
// sorted, and the network in reverse — or one scan, when they fit the
// cache — writes the new table: 586 442 → 29 890 accesses, 36 837 → 7 595
// round trips; and again when a source table whose live-entry bound fits
// the free cache began to be collected in one private scan instead of
// routed: 29 890 → 23 866 accesses, 7 595 → 5 109 round trips. The Sort,
// CompactTight and ORAMAccess rows moved together when each routing group
// began to sweep its residue classes laid end to end with one window sized
// from the free cache: the same blocks, in 19 240 → 8 554, 302 → 154 and
// 5 109 → 2 134 round trips, under new hashes as the per-group access order
// changed. The ORAMAccess row alone moved when a rebuild began to bucket its
// entries as it takes them out, sort them once, and install only the public
// bound on the distinct keys: 23 866 → 23 130 accesses, 2 134 → 2 096
// round trips; and again when a rebuild stopped compacting its sorted
// entries to empty stale copies a key never has, and installs the sorted
// prefix of that bound as it is: 23 130 → 22 746 accesses, 2 096 → 2 060
// round trips. The Sort row alone moved when a level below the top began to
// sort its bucket with bitonic wherever its own Quantiles would sort, and a
// level whose buckets all sort so stopped running the failure sweep:
// 124 378 → 29 012 accesses, 8 046 → 1 612 round trips; and again when a
// level took its splitters from a one-per-block sample instead of
// Quantiles, sized its buckets and deal quota from their tails, and stopped
// counting a bucket's occupancy: 29 012 → 24 054 accesses, 1 612 → 1 213
// round trips. The ORAMAccess row moved when the ORAM began to take its
// shape by price: at n = 64 and M = 256 the scan is the arm, each access
// one in-place scan of the 64 blocks, 22 746 → 6 458 accesses and 2 060 →
// 300 round trips (204 since each chunk's write carries the next read); the ORAMHierarchy row keeps the hierarchy, the arm at
// M = 4 096, through two full rebuild periods of its 64-entry buffer:
// 12 282 accesses in 298 round trips, the store's 250 writes, the build,
// and twice oram.AccessCost(64, 8, 4096, 4096)'s 5 056 I/Os in 143. The
// Sort row alone moved when a bucket that sorts directly began to be
// compacted into its slot of the level's result and sorted there, the deal
// to write every colour's quota of a batch in one request, and the deal
// batch to be priced: 24 054 → 21 906 accesses, 1 213 → 1 141 round trips.
// The Select row moved when its sort tail stopped copying the caller's
// array first and began to sort it into scratch, reading the rank off the
// sort: 4 060 → 3 560 accesses, 132 → 114 round trips. Both rows' round
// trips, and only those, moved when columnsort's and bitonic's passes began
// to send each write with the next batch's read: Sort 1 141 → 1 024,
// Select 114 → 72. The CompactTight
// row moved when a capacity past the array's length stopped costing a copy
// of the routed array: the butterfly routes into the leading blocks of the
// capacity-long output and one write-only scan zero-fills the block past
// them, 2 751 → 2 251 accesses, 154 → 137 round trips. The Sort, CompactTight
// and ORAMAccess rows' round trips, and only those, moved when every
// two-sided scan, every routing group, the deal and the shuffle began to
// send each write with the next read: Sort 1 024 → 680, CompactTight
// 137 → 81, ORAMAccess 300 → 204. The Sort row alone moved when a
// distributing level began to colour, consolidate and shuffle in one pass
// from its input: 21 906 → 20 802 accesses, 680 → 633 round trips.)
func TestScalarVectoredTraceInvariance(t *testing.T) {
	const n = 2000
	dataA := mkRecords(n, 3)
	dataB := make([]Record, n)
	for i := range dataB {
		dataB[i] = Record{Key: 42, Val: uint64(i)} // constant keys: worst case for leakage
	}

	type want struct {
		trace                     TraceSummary
		reads, writes, roundTrips int64
	}
	type op struct {
		name  string
		cache int // CacheWords; 0 means 256
		want  want
		run   func(t *testing.T, arr *Array)
	}
	ops := []op{
		{"Sort", 0, want{TraceSummary{18492, 13548347946821775380}, 8987, 9505, 612}, func(t *testing.T, arr *Array) {
			if err := arr.Sort(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Select", 0, want{TraceSummary{3500, 6074367508607816127}, 1750, 1750, 72}, func(t *testing.T, arr *Array) {
			if _, err := arr.Select(n / 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"CompactTight", 0, want{TraceSummary{2251, 4698351016488557024}, 1000, 1251, 81}, func(t *testing.T, arr *Array) {
			// The predicate (and so the marked count) differs per dataset;
			// the capacity is public and fixed, so the trace must not move.
			if _, err := arr.Mark(func(r Record) bool { return r.Key%5 == 3 }); err != nil {
				t.Fatal(err)
			}
			if _, err := arr.CompactTight(n); err != nil {
				t.Fatal(err)
			}
		}},
		{"ORAMAccess", 0, want{TraceSummary{6458, 15531404096673417224}, 3072, 3386, 204}, func(t *testing.T, arr *Array) {
			oramAccesses(t, arr, 48, oram.ArmScan)
		}},
		{"ORAMHierarchy", 4096, want{TraceSummary{12282, 14957217671241149270}, 5184, 7098, 298}, func(t *testing.T, arr *Array) {
			oramAccesses(t, arr, 128, oram.ArmHierarchy)
		}},
	}

	for _, o := range ops {
		run := func(maxBatch int, recs []Record) (TraceSummary, IOStats) {
			cache := o.cache
			if cache == 0 {
				cache = 256
			}
			c, err := New(Config{BlockSize: 8, CacheWords: cache, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.env.D.SetMaxBatch(maxBatch)
			c.EnableTrace(0)
			arr, err := c.Store(recs)
			if err != nil {
				t.Fatal(err)
			}
			o.run(t, arr)
			return c.TraceSummary(), c.Stats()
		}
		scalarTrace, scalarStats := run(1, dataA)
		vecTrace, vecStats := run(0, dataB)
		if got := (want{vecTrace, vecStats.Reads, vecStats.Writes, vecStats.RoundTrips}); got != o.want {
			t.Errorf("%s: vectored run %+v, want %+v", o.name, got, o.want)
		}
		if scalarTrace != vecTrace {
			t.Errorf("%s: scalar trace %+v != vectored trace %+v", o.name, scalarTrace, vecTrace)
		}
		if scalarStats.Reads != vecStats.Reads || scalarStats.Writes != vecStats.Writes {
			t.Errorf("%s: block I/O differs between modes: %+v vs %+v", o.name, scalarStats, vecStats)
		}
		if scalarStats.RoundTrips != scalarStats.Total() {
			t.Errorf("%s: scalar mode should make one round trip per block I/O (%d vs %d)",
				o.name, scalarStats.RoundTrips, scalarStats.Total())
		}
		if vecStats.RoundTrips*2 > scalarStats.RoundTrips {
			t.Errorf("%s: vectored mode made %d round trips, scalar %d — expected at least 2x reduction",
				o.name, vecStats.RoundTrips, scalarStats.RoundTrips)
		}
	}
}

// oramAccesses makes a 64-block ORAM, checks that its shape is arm, and
// makes a fixed logical sequence of k accesses to it, writes and reads
// alternating: on the hierarchy the probe addresses are a keyed function of
// the index, so its trace is oblivious in distribution, not bit-identical
// across sequences. On the hierarchy the k accesses must flush its buffer
// at least once, or the row would pin no rebuild.
func oramAccesses(t *testing.T, arr *Array, k int, arm string) {
	o, err := arr.c.NewORAM(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.o.Arm(); got != arm {
		t.Fatalf("the 64-block ORAM is a %s, want a %s", got, arm)
	}
	for i := 0; i < k; i++ {
		idx := i * 7 % 64
		if i%2 == 0 {
			err = o.Write(idx, make([]uint64, 8))
		} else {
			_, err = o.Read(idx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if arm == oram.ArmHierarchy && o.o.Rebuilds().Count < 2 { // the build is one
		t.Fatalf("%d accesses ran no rebuild", k)
	}
}
