package bench

import (
	"time"

	"oblivext"
)

// E15 measures the sharded fan-out: the same Sort and Select, same seed,
// same geometry, run against K ∈ {1,2,4,8} simulated remote backends with a
// per-shard latency model (RTT + per-block bandwidth charge). The modeled
// network time under sharding is the critical path — per interaction, the
// slowest shard's delay, since the K sub-batches travel in parallel — so it
// shrinks toward RTT·interactions as K grows while the serial sum stays
// put. The headline row is the acceptance target: Sort at N=2^16 with K=4
// in ≤ half the K=1 modeled time, with a bit-identical logical trace. The
// cache is the benchmark's M=4096, so that a scan batch spans every shard
// many times over (see the last note).
func E15() *Table {
	const (
		nBlocks  = 8192 // × B=8 elements = 2^16
		b        = 8
		cache    = 4096 // M = 512 blocks
		rtt      = 10 * time.Millisecond
		perBlock = 5 * time.Millisecond
		seed     = 42
	)
	t := &Table{
		ID:    "E15",
		Title: "Sharded multi-backend store: modeled time vs K parallel Bobs (N=2^16, B=8)",
		Headers: []string{"algorithm", "K", "round trips", "blocks moved", "critical-path time",
			"serial time", "speedup vs K=1", "max shard skew", "trace equal?"},
	}

	type probe struct {
		name string
		run  func(arr *oblivext.Array)
	}
	probes := []probe{
		{"randomized sort (Thm 21)", func(arr *oblivext.Array) {
			if err := arr.Sort(); err != nil {
				panic(err)
			}
		}},
		{"selection (Thm 13)", func(arr *oblivext.Array) {
			if _, err := arr.Select(nBlocks * b / 2); err != nil {
				panic(err)
			}
		}},
	}

	for _, p := range probes {
		var baseTime time.Duration
		var baseTrace oblivext.TraceSummary
		for _, k := range []int{1, 2, 4, 8} {
			c, err := oblivext.New(oblivext.Config{
				BlockSize: b, CacheWords: cache, Seed: seed, NumShards: k,
				StartBlocks: 4 * nBlocks, SimulatedRTT: rtt, SimulatedPerBlock: perBlock,
				Workers: defaultWorkers,
			})
			if err != nil {
				panic(err)
			}
			c.EnableTrace(0)
			arr, err := c.Store(mkRecordsUniform(nBlocks*b, seed))
			if err != nil {
				panic(err)
			}
			c.ResetStats()
			p.run(arr)
			st := c.Stats()
			crit, serial := c.ModeledNetworkTime(), c.SerialModeledNetworkTime()
			ts := c.TraceSummary()

			// Skew: the busiest shard's share of the blocks relative to a
			// perfect 1/K split (1.00 = perfectly balanced striping).
			skew := "-"
			if ss := c.ShardStats(); len(ss) > 0 {
				var maxBlocks int64
				for _, s := range ss {
					if s.BlocksMoved > maxBlocks {
						maxBlocks = s.BlocksMoved
					}
				}
				skew = f("%.2fx", float64(maxBlocks)*float64(k)/float64(st.Total()))
			}
			if k == 1 {
				baseTime, baseTrace = crit, ts
			}
			eq := "yes"
			if ts != baseTrace {
				eq = "NO"
			}
			t.Rows = append(t.Rows, []string{p.name, f("%d", k), f("%d", st.RoundTrips),
				f("%d", st.Total()), f("%v", crit.Round(time.Millisecond)),
				f("%v", serial.Round(time.Millisecond)), ratio(float64(baseTime), float64(crit)) + "x",
				skew, eq})
			c.Close()
		}
	}
	t.Notes = append(t.Notes,
		"The model charges each shard RTT + perBlock·(its sub-batch) per interaction; with the sub-batches in flight simultaneously the client waits for the slowest shard, so the critical path divides the bandwidth term by ~K. The serial column is what contacting the same K shards one after another would cost — it grows with K (every participating shard still pays its own RTT) and is the cost the parallel fan-out avoids. RTT is not divided — the critical path's floor as K→∞ is RTT·interactions, which is what the prefetching SeqReader then hides behind compute.",
		"Trace equality is against the K=1 run: sharding partitions the identical per-logical-address sequence across servers by addr mod K (each server sees only its residue class, re-numbered), so the adversary's per-server view is a projection of the same data-independent trace.",
		"Max shard skew is the busiest shard's block share normalized by 1/K: round-robin striping keeps the fan-out balanced, which is why the critical path tracks serial/K.",
		"The speedup needs batches much longer than K. At M=512 (64 blocks) the randomized sort's K=4 speedup is 1.78x (K=8: 2.07x): since a level compacts each bucket once with the butterfly and sweeps only two buckets' worth of cells, the long scans that striped best are gone (the K=1 time at M=512 fell from 31h47m to 13h24m, below the old K=4 time) and what is left there is short batches — the butterfly's strided windows, the sweep's one-block writes; 13.5 blocks per round trip on average — in which the RTT, which sharding does not divide, weighs most.")
	return t
}

// mkRecordsUniform builds n records with uniform keys for the public-API
// probes.
func mkRecordsUniform(n int, seed uint64) []oblivext.Record {
	recs := make([]oblivext.Record, n)
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := range recs {
		// splitmix64, matching the repo's seeded-reproducibility style.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		recs[i] = oblivext.Record{Key: z ^ (z >> 31), Val: uint64(i)}
	}
	return recs
}
