// Benchmarks: one testing.B entry per experiment in the index that
// `go run ./cmd/obench -list` prints (README.md, Development).
// They report both wall time and, via custom metrics, the block-I/O counts
// the paper's theorems bound (io/block is the figure of merit; wall time on
// the in-memory store is a proxy for constant factors only).
//
// cmd/obench produces the full parameter sweeps; these benchmarks pin one
// representative configuration per experiment so `go test -bench=.` tracks
// regressions.
package oblivext

import (
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/emsort"
	"oblivext/internal/extmem"
	"oblivext/internal/iblt"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
	"oblivext/internal/route"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

// benchEnv builds a fresh instrumented environment per iteration batch.
func benchEnv(blocks, b, m int, seed uint64) *extmem.Env {
	return extmem.NewEnv(blocks, b, m, seed)
}

func fillArr(env *extmem.Env, nBlocks, nKeys int, seed uint64) extmem.Array {
	a := env.D.Alloc(nBlocks)
	keys, err := workload.Keys(workload.Uniform, nKeys, seed)
	if err != nil {
		panic(err)
	}
	if err := workload.Fill(a, keys); err != nil {
		panic(err)
	}
	return a
}

func reportIO(b *testing.B, env *extmem.Env, blocks int) {
	st := env.D.Stats()
	b.ReportMetric(float64(st.Total())/float64(b.N), "io/op")
	b.ReportMetric(float64(st.Total())/float64(b.N)/float64(blocks), "io/block")
}

// BenchmarkE1IBLT inserts and lists n pairs at the paper's 3× table load.
func BenchmarkE1IBLT(b *testing.B) {
	const n = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := iblt.New(3*n, 4, 1, uint64(i))
		for k := 0; k < n; k++ {
			t.Insert(uint64(k), []uint64{uint64(k)})
		}
		if _, ok := t.ListEntries(); !ok {
			b.Fatal("listEntries failed")
		}
	}
}

// BenchmarkE2Consolidate measures Lemma 3's single scan.
func BenchmarkE2Consolidate(b *testing.B) {
	const nBlocks = 2048
	env := benchEnv(8*nBlocks, 8, 64, 1)
	a := fillArr(env, nBlocks, nBlocks*8, 1)
	if err := workload.MarkFraction(a, nBlocks*2, 3); err != nil {
		b.Fatal(err)
	}
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		route.Consolidate(env, a, extmem.Element.Marked)
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE3SparseCompact measures Theorem 4's IBLT compaction.
func BenchmarkE3SparseCompact(b *testing.B) {
	const nBlocks = 512
	env := benchEnv(16*nBlocks, 8, 1<<18, 2)
	a := env.D.Alloc(nBlocks)
	occ := make([]int, nBlocks/16)
	for i := range occ {
		occ[i] = i * 16
	}
	buf := make([]extmem.Element, 8)
	for j := 0; j < nBlocks; j++ {
		for t := range buf {
			buf[t] = extmem.Element{}
			if j%16 == 0 {
				buf[t] = extmem.Element{Key: uint64(j), Pos: uint64(j*8 + t), Flags: extmem.FlagOccupied}
			}
		}
		a.Write(j, buf)
	}
	env.D.ResetStats()
	b.ResetTimer()
	fails := 0
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, _, err := core.CompactBlocksSparse(env, a, nBlocks/16, core.SparseParams{}); err != nil {
			fails++ // Monte-Carlo failure (Lemma 1); rate checked below
		}
		env.D.Release(mark)
	}
	if fails*10 > b.N {
		b.Fatalf("sparse compaction failed %d/%d times", fails, b.N)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE4Butterfly measures Theorem 6's windowed routing network.
func BenchmarkE4Butterfly(b *testing.B) {
	const nBlocks = 2048
	env := benchEnv(4*nBlocks, 8, 512, 3)
	a := fillArr(env, nBlocks, nBlocks*8/2, 3)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.CompactBlocksTight(env, a, route.PredOccupied, 0)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE4ButterflyNaive is the ablation twin: one level per pass.
func BenchmarkE4ButterflyNaive(b *testing.B) {
	const nBlocks = 2048
	env := benchEnv(4*nBlocks, 8, 512, 3)
	a := fillArr(env, nBlocks, nBlocks*8/2, 3)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.CompactBlocksTight(env, a, route.PredOccupied, 1)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE5LooseCompact measures Theorem 8's linear compaction.
func BenchmarkE5LooseCompact(b *testing.B) {
	const nBlocks = 2048
	env := benchEnv(32*nBlocks, 8, 512, 4)
	a := env.D.Alloc(nBlocks)
	buf := make([]extmem.Element, 8)
	for j := 0; j < nBlocks; j++ {
		for t := range buf {
			buf[t] = extmem.Element{}
			if j%8 == 0 {
				buf[t] = extmem.Element{Key: uint64(j), Pos: uint64(j*8 + t), Flags: extmem.FlagOccupied}
			}
		}
		a.Write(j, buf)
	}
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, _, _, err := core.CompactBlocksLoose(env, a, nBlocks/4); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE6LogStar measures Theorem 9's log*-round compaction.
func BenchmarkE6LogStar(b *testing.B) {
	const nBlocks = 2048
	env := benchEnv(64*nBlocks, 8, 2048, 5)
	a := env.D.Alloc(nBlocks)
	buf := make([]extmem.Element, 8)
	for j := 0; j < nBlocks; j++ {
		for t := range buf {
			buf[t] = extmem.Element{}
			if j%8 == 0 {
				buf[t] = extmem.Element{Key: uint64(j), Pos: uint64(j*8 + t), Flags: extmem.FlagOccupied}
			}
		}
		a.Write(j, buf)
	}
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, _, _, err := core.CompactBlocksLogStar(env, a, nBlocks/4, core.LogStarParams{}); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE7Select measures Theorem 13's linear-I/O selection.
func BenchmarkE7Select(b *testing.B) {
	const nBlocks = 1024
	env := benchEnv(16*nBlocks, 8, 256, 6)
	a := fillArr(env, nBlocks, nBlocks*8, 6)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, err := core.Select(env, a, int64(nBlocks*4)); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE7QuickSelect is the leaky baseline twin of E7.
func BenchmarkE7QuickSelect(b *testing.B) {
	const nBlocks = 1024
	env := benchEnv(16*nBlocks, 8, 256, 6)
	a := fillArr(env, nBlocks, nBlocks*8, 6)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, err := emsort.QuickSelect(env, a, int64(nBlocks*4)); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE8Quantiles measures Theorem 17.
func BenchmarkE8Quantiles(b *testing.B) {
	const nBlocks = 1024
	env := benchEnv(32*nBlocks, 8, 256, 7)
	a := fillArr(env, nBlocks, nBlocks*8, 7)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		if _, err := core.Quantiles(env, a, 2); err != nil {
			b.Fatal(err)
		}
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE9Sort measures Theorem 21's randomized oblivious sort.
func BenchmarkE9Sort(b *testing.B) {
	const nBlocks = 512
	b.ResetTimer()
	var env *extmem.Env
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env = benchEnv(64*nBlocks, 8, 512, uint64(i))
		a := fillArr(env, nBlocks, nBlocks*8, 8)
		env.D.ResetStats()
		b.StartTimer()
		if err := core.Sort(env, a, core.SortParams{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := env.D.Stats()
		b.ReportMetric(float64(st.Total())/float64(nBlocks), "io/block")
		b.StartTimer()
	}
}

// BenchmarkE9SortBitonic is the Lemma 2 baseline twin of E9.
func BenchmarkE9SortBitonic(b *testing.B) {
	const nBlocks = 512
	env := benchEnv(4*nBlocks, 8, 512, 9)
	a := fillArr(env, nBlocks, nBlocks*8, 9)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsort.Bitonic(env, a, obsort.ByKey)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE9SortMerge is the non-oblivious optimal twin of E9.
func BenchmarkE9SortMerge(b *testing.B) {
	const nBlocks = 512
	env := benchEnv(4*nBlocks, 8, 512, 10)
	a := fillArr(env, nBlocks, nBlocks*8, 10)
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := env.D.Mark()
		emsort.MergeSort(env, a, obsort.ByKey)
		env.D.Release(mark)
	}
	reportIO(b, env, nBlocks)
}

// BenchmarkE10ORAM measures the amortized cost of oblivious RAM accesses
// with deterministic-sort rebuilds (the paper's baseline configuration).
func BenchmarkE10ORAM(b *testing.B) {
	env := benchEnv(64, 8, 512, 11)
	o, err := oram.New(env, 64, oram.Options{})
	if err != nil {
		b.Fatal(err)
	}
	env.D.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(i % 64); err != nil {
			b.Fatal(err)
		}
	}
	st := env.D.Stats()
	b.ReportMetric(float64(st.Total())/float64(b.N), "io/access")
}

// BenchmarkE13TraceInvariance measures the fixed-trace property's cost: a
// full oblivious sort including trace recording.
func BenchmarkE13TraceInvariance(b *testing.B) {
	const nBlocks = 256
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv(64*nBlocks, 8, 256, 13)
		rec := traceRecorder()
		env.D.SetRecorder(rec)
		a := fillArr(env, nBlocks, nBlocks*8, uint64(i%3)) // vary the data
		b.StartTimer()
		if err := core.Sort(env, a, core.SortParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// traceRecorder builds a hash-only recorder for the benchmarks.
func traceRecorder() *trace.Recorder { return trace.NewRecorder(0) }
