package bench

import (
	"net/http/httptest"
	"time"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/extmem/shard"
	"oblivext/internal/obsort"
	"oblivext/internal/workload"
)

// E19 races the four sorter engines — the paper's randomized sort, external
// bitonic, zig-zag (merge-split rounds over cache-sized runs), and bucket
// oblivious sort — head to head on the same seeded workloads over three
// backends: in-process memory, a 4-way sharded store, and a real HTTP
// obstore server. Block I/O is the paper's cost measure; round trips are
// what dominate wall-clock against a remote Bob, and over HTTP both the
// request count and the measured wire wait are real, not modeled.
//
// The table is what the auto-selection policy (obsort.Pick) is calibrated
// against: block volume decides on local backends, round trips on network
// ones, and the "auto picks" note records the choice Pick makes for each
// geometry so a regression in the policy shows up as a mismatch with the
// measured winner.
func E19() *Table {
	const (
		b     = 8
		cache = 4096 // M in elements; M/B = 512 blocks of cache
		seed  = 7
	)
	t := &Table{
		ID:    "E19",
		Title: "Sorter engines head-to-head (randomized vs bitonic vs zigzag vs bucket; B=8, M=4096)",
		Headers: []string{"backend", "N (elems)", "engine", "block I/O", "per block",
			"round trips", "wall"},
		Metrics: map[string]float64{},
	}

	engines := []string{obsort.EngineRandomized, obsort.EngineBitonic,
		obsort.EngineZigzag, obsort.EngineBucket}

	type result struct {
		io, rts int64
		wall    time.Duration
		sorted  bool
	}
	// run sorts nBlocks blocks of uniform keys with the named engine over
	// the named backend and measures I/O, round trips and wall time.
	run := func(backend string, nBlocks int, engine string) result {
		var store extmem.BlockStore
		cleanup := func() {}
		switch backend {
		case "mem":
			store = extmem.NewMemStore(16*nBlocks, b)
		case "sharded-4":
			children := make([]extmem.BlockStore, 4)
			for i := range children {
				children[i] = extmem.NewMemStore(4*nBlocks, b)
			}
			sh, err := shard.New(children)
			if err != nil {
				panic(err)
			}
			store = sh
		case "http":
			srv := netstore.NewServer(extmem.NewMemStore(16*nBlocks, b), netstore.ServerOptions{})
			ts := httptest.NewServer(srv.Handler())
			c, err := netstore.Dial(ts.URL, netstore.Options{})
			if err != nil {
				ts.Close()
				panic(err)
			}
			store = c
			cleanup = func() { c.Close(); ts.Close() }
		}
		defer cleanup()
		env := extmem.NewEnvOn(store, cache, seed)
		env.Workers = defaultWorkers
		a := env.D.Alloc(nBlocks)
		keys, err := workload.Keys(workload.Uniform, nBlocks*b, uint64(nBlocks))
		if err != nil {
			panic(err)
		}
		if err := workload.Fill(a, keys); err != nil {
			panic(err)
		}
		env.D.ResetStats()
		start := time.Now()
		if engine == obsort.EngineRandomized {
			if err := core.Sort(env, a, core.SortParams{}); err != nil {
				panic(err)
			}
		} else {
			obsort.PickSorter(engine)(env, a, obsort.ByKey)
		}
		wall := time.Since(start)
		st := env.D.Stats()

		// Verify after the measurement window: occupied records ascend.
		sorted := true
		buf := make([]extmem.Element, b)
		last := uint64(0)
		for i := 0; i < nBlocks && sorted; i++ {
			a.Read(i, buf)
			for _, e := range buf {
				if !e.Occupied() {
					continue
				}
				if e.Key < last {
					sorted = false
					break
				}
				last = e.Key
			}
		}
		return result{io: st.Reads + st.Writes, rts: st.RoundTrips, wall: wall, sorted: sorted}
	}

	type matrix struct {
		backend string
		sizes   []int
	}
	// HTTP runs only the acceptance size (n = 2^12 blocks): the point of the
	// wire rows is the round-trip separation, and loopback requests are slow
	// enough that the full size sweep belongs on the in-process backends.
	cases := []matrix{
		{"mem", []int{1024, 4096, 8192}},
		{"sharded-4", []int{4096}},
		{"http", []int{4096}},
	}
	allSorted := true
	results := map[string]result{} // "backend/n/engine"
	for _, mc := range cases {
		for _, nBlocks := range mc.sizes {
			for _, engine := range engines {
				r := run(mc.backend, nBlocks, engine)
				results[f("%s/%d/%s", mc.backend, nBlocks, engine)] = r
				allSorted = allSorted && r.sorted
				t.Rows = append(t.Rows, []string{mc.backend, f("%d", nBlocks*b), engine,
					f("%d", r.io), f("%.1f", float64(r.io)/float64(nBlocks)),
					f("%d", r.rts), f("%v", r.wall.Round(time.Millisecond))})
			}
		}
	}

	// Record what the auto policy picks per geometry, next to the measured
	// winner it should agree with.
	pickNotes := ""
	for _, mc := range cases {
		costModel := "mem"
		if mc.backend == "http" {
			costModel = "net"
		}
		for _, nBlocks := range mc.sizes {
			pick := obsort.Pick(nBlocks, b, cache, costModel)
			if pickNotes != "" {
				pickNotes += ", "
			}
			pickNotes += f("%s n=%d → %s", mc.backend, nBlocks*b, pick)
			// Encode the picked engine as its index in the engines list.
			for i, e := range engines {
				if e == pick {
					t.Metrics[f("%s_%d_pick", mc.backend, nBlocks)] = float64(i)
				}
			}
		}
	}

	// Acceptance metric: at n = 2^12 blocks over HTTP, at least one of the
	// new engines must beat the randomized sort on BOTH block volume and
	// round trips.
	httpRand := results["http/4096/randomized"]
	httpZig := results["http/4096/zigzag"]
	httpBuck := results["http/4096/bucket"]
	beats := func(x result) bool { return x.io < httpRand.io && x.rts < httpRand.rts }
	newEnginesWin := beats(httpZig) || beats(httpBuck)

	for _, engine := range engines {
		r := results[f("http/4096/%s", engine)]
		t.Metrics[f("http_io_%s", engine)] = float64(r.io)
		t.Metrics[f("http_rt_%s", engine)] = float64(r.rts)
		t.Metrics[f("http_wall_ms_%s", engine)] = float64(r.wall.Milliseconds())
		m := results[f("mem/8192/%s", engine)]
		t.Metrics[f("mem8192_io_%s", engine)] = float64(m.io)
	}
	t.Metrics["http_new_engine_beats_randomized"] = boolMetric(newEnginesWin)
	t.Metrics["all_outputs_sorted"] = boolMetric(allSorted)

	winNote := "NO — policy calibration is stale"
	if newEnginesWin {
		winNote = f("yes — zigzag %.1fx less I/O and %.1fx fewer round trips than randomized over HTTP; bucket %.1fx / %.1fx",
			float64(httpRand.io)/float64(httpZig.io), float64(httpRand.rts)/float64(httpZig.rts),
			float64(httpRand.io)/float64(httpBuck.io), float64(httpRand.rts)/float64(httpBuck.rts))
	}
	t.Notes = append(t.Notes,
		f("New deterministic engines beat the randomized sort on both block volume and round trips at N = 2^15 elements over HTTP: %s.", winNote),
		f("Auto picks: %s. The policy compares predicted round trips over network backends and predicted block volume elsewhere — all public functions of (n, B, M).", pickNotes),
		"Both merge-split engines move half a cache of blocks in exactly 2 vectored round trips per step, and bitonic now does the same per batch of every pass — and needs fewer of them, because one pass closes over log₂(M/2B) = 8 address bits of the network here; the randomized pipeline pays ~97 I/Os per block on each level of its recursion (three levels and a final compaction at N = 2^16: 298 per block, 18.6x bitonic's 16). Bucket's 3-pass asymptotics only overtake zigzag once log² (N/M) outgrows the bin+distribute constant — beyond this table's sizes for M = 4096.",
		f("Every engine's output verified sorted on every backend: %s.", map[bool]string{true: "yes", false: "NO"}[allSorted]))
	return t
}
