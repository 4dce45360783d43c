package oblivext

import (
	"os"
	"testing"
)

// TestShardedTraceInvariance is the tentpole's safety contract at the public
// API level: for Sort, Select, and Mark+CompactTight, a client striped over
// K backends presents the identical per-logical-address trace and identical
// block I/O as the single-backend client — sharding partitions the trace
// across servers, it never changes it — and per-shard counters sum to the
// unsharded totals.
func TestShardedTraceInvariance(t *testing.T) {
	const n = 2000
	recs := mkRecords(n, 3)

	type op struct {
		name string
		run  func(t *testing.T, arr *Array)
	}
	ops := []op{
		{"Sort", func(t *testing.T, arr *Array) {
			if err := arr.Sort(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Select", func(t *testing.T, arr *Array) {
			if _, err := arr.Select(n / 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"CompactTight", func(t *testing.T, arr *Array) {
			if _, err := arr.Mark(func(r Record) bool { return r.Key%3 == 1 }); err != nil {
				t.Fatal(err)
			}
			if _, err := arr.CompactTight(n); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, o := range ops {
		run := func(shards int) (TraceSummary, IOStats, []ShardIOStats) {
			c, err := New(Config{BlockSize: 8, CacheWords: 256, Seed: 19, NumShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.EnableTrace(0)
			arr, err := c.Store(recs)
			if err != nil {
				t.Fatal(err)
			}
			o.run(t, arr)
			return c.TraceSummary(), c.Stats(), c.ShardStats()
		}
		flatTrace, flatStats, _ := run(1)
		shTrace, shStats, perShard := run(4)
		if flatTrace != shTrace {
			t.Errorf("%s: sharded trace %+v != unsharded %+v", o.name, shTrace, flatTrace)
		}
		if flatStats != shStats {
			t.Errorf("%s: sharded stats %+v != unsharded %+v", o.name, shStats, flatStats)
		}
		if len(perShard) != 4 {
			t.Fatalf("%s: ShardStats returned %d entries", o.name, len(perShard))
		}
		var blocks int64
		for _, s := range perShard {
			blocks += s.BlocksMoved
		}
		if blocks != flatStats.Total() {
			t.Errorf("%s: per-shard blocks sum %d, unsharded total %d", o.name, blocks, flatStats.Total())
		}
	}
}

// TestSingleShardPathIsFileBacked guards against ShardPaths being silently
// ignored at K=1: the named file must actually back the store.
func TestSingleShardPathIsFileBacked(t *testing.T) {
	path := t.TempDir() + "/shard0.dat"
	c, err := New(Config{BlockSize: 8, CacheWords: 256, NumShards: 1, ShardPaths: []string{path}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Store(mkRecords(100, 1)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("shard file never created: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("shard file empty — store not file-backed")
	}
}

// TestShardedCriticalPathSpeedup pins the sharded fan-out's speed-up
// mechanism in counts: K=4 shards serve the same Sort with the same trace,
// block I/Os and round trips as K=1, and the striping spreads the blocks
// evenly — the busiest shard moves at most 1.1/4 of them (the shard
// package pins the same split for every single batch).
func TestShardedCriticalPathSpeedup(t *testing.T) {
	run := func(shards int) (TraceSummary, IOStats, []ShardIOStats) {
		c, err := New(Config{BlockSize: 8, CacheWords: 2048, Seed: 5, NumShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTrace(0)
		arr, err := c.Store(mkRecords(16384, 11))
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		return c.TraceSummary(), c.Stats(), c.ShardStats()
	}
	trace1, stats1, _ := run(1)
	trace4, stats4, perShard := run(4)
	if trace1 != trace4 {
		t.Fatalf("traces differ between K=1 and K=4: %+v vs %+v", trace1, trace4)
	}
	if stats1 != stats4 {
		t.Fatalf("I/O counts differ between K=1 and K=4: %+v vs %+v", stats1, stats4)
	}
	var busiest int64
	for _, s := range perShard {
		busiest = max(busiest, s.BlocksMoved)
	}
	if float64(busiest)*4 > 1.1*float64(stats4.Total()) {
		t.Fatalf("busiest of 4 shards moved %d of %d blocks: the striping is uneven", busiest, stats4.Total())
	}
}
