package bench

import (
	"time"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
	"oblivext/internal/trace"
)

// E14 measures the vectored-I/O refactor: the same algorithms, same seeds,
// same geometry, run once with MaxBatch=1 (one round trip per block — the
// scalar baseline every pre-batching revision effectively was) and once
// with unlimited batching, comparing round trips and asserting the traces
// are bit-identical. The headline row is the acceptance target: randomized
// Sort at N=2^16, B=8, default cache, ≥4× fewer round trips.
func E14() *Table {
	t := &Table{
		ID:    "E14",
		Title: "Vectored block I/O (round trips: scalar vs batched, identical traces)",
		Headers: []string{"algorithm", "N (elems)", "block I/O", "RT scalar", "RT batched",
			"RT reduction", "trace equal?", "modeled time @20ms RTT: scalar vs batched"},
	}

	type probe struct {
		name    string
		nBlocks int
		b, m    int
		run     func(env *extmem.Env, a extmem.Array)
	}
	probes := []probe{
		{"randomized sort (Thm 21)", 8192, 8, 64, func(env *extmem.Env, a extmem.Array) {
			if err := core.Sort(env, a, core.SortParams{}); err != nil {
				panic(err)
			}
		}},
		{"bitonic sort (Lemma 2)", 8192, 8, 64, func(env *extmem.Env, a extmem.Array) {
			obsort.Bitonic(env, a, obsort.ByKey)
		}},
		{"selection (Thm 13)", 8192, 8, 64, func(env *extmem.Env, a extmem.Array) {
			if _, err := core.Select(env, a, int64(8192*8/2)); err != nil {
				panic(err)
			}
		}},
		{"tight compaction (Thm 6)", 8192, 8, 64, func(env *extmem.Env, a extmem.Array) {
			route.CompactBlocksTight(env, a, route.PredOccupied, 0)
		}},
	}

	const rtt = 20 * time.Millisecond
	for _, p := range probes {
		n := p.nBlocks * p.b
		run := func(maxBatch int) (extmem.Stats, trace.Summary) {
			env := newEnv(16*p.nBlocks, p.b, p.m*p.b, uint64(n))
			env.D.SetMaxBatch(maxBatch)
			rec := trace.NewRecorder(0)
			env.D.SetRecorder(rec)
			a := fillUniform(env, p.nBlocks, n, uint64(n))
			env.D.ResetStats()
			p.run(env, a)
			return env.D.Stats(), rec.Summarize()
		}
		scalar, strace := run(1)
		batched, btrace := run(0)
		eq := "yes"
		if !strace.Equal(btrace) {
			eq = "NO"
		}
		t.Rows = append(t.Rows, []string{p.name, f("%d", n), f("%d", batched.Total()),
			f("%d", scalar.RoundTrips), f("%d", batched.RoundTrips),
			f("%.1fx", float64(scalar.RoundTrips)/float64(batched.RoundTrips)), eq,
			f("%v vs %v", time.Duration(scalar.RoundTrips)*rtt, time.Duration(batched.RoundTrips)*rtt)})
	}
	t.Notes = append(t.Notes,
		"Round trips are what a remote Bob charges for: every vectored store call is one interaction regardless of how many blocks it moves (LatencyStore models this as RTT + perBlock·blocks). The scalar column pins RT = Reads+Writes; the batched column shows the win from moving up to M/B−O(1) blocks per interaction.",
		"Trace equality is the safety claim: batching changes how the requests are grouped, never which (kind, address) sequence Bob observes, so the obliviousness guarantees carry over verbatim.")
	return t
}
