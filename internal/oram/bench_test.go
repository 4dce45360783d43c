package oram

import (
	"fmt"
	"testing"

	"oblivext/internal/extmem"
)

// BenchmarkRebuild times the two rebuilds of the benchmark's kv_mix_http
// workload (n = 32, B = 8, M = 512) and reports what each costs in block
// I/Os and round trips: level 5 merges the buffer alone and writes its
// table from the cache (384 and 15), level 6 collects both tables' live
// entries in one private scan each — their bounds, 16 and 32 blocks, fit
// the cache — sorts them and the buffer's once, and writes its table from
// the cache too, from the first 32 of the 64 sorted entries (2 080 and 113:
// 1 024 and 57 the collects and the buffer's write, 384 and 12 the sort,
// 672 and 44 the install). The
// accesses that fill the buffer run off the clock, and the last of them
// without its probe, so an iteration is the rebuild and nothing else.
func BenchmarkRebuild(b *testing.B) {
	for _, target := range []int{5, 6} {
		b.Run(fmt.Sprintf("level=%d", target), func(b *testing.B) {
			env := extmem.NewEnv(4096, 8, 512, 1)
			o, err := New(env, 32, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			var ios, rts int64
			for done, step := 0, 0; done < b.N; {
				for ; o.bufLen < o.bufCap-1; step++ {
					if err := o.Write(step%o.n, make([]uint64, o.b)); err != nil {
						b.Fatal(err)
					}
				}
				// What a Dummy access does after its probes.
				o.ts++
				o.appendBuf(1<<23-1, nil)
				o.t++
				scheduled, _ := o.scheduled(o.t / int64(o.bufCap))
				before := env.D.Stats()
				if scheduled == target {
					b.StartTimer()
				}
				err := o.rebuildOnSchedule()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if scheduled == target {
					spent := env.D.Stats().Sub(before)
					ios += spent.Total()
					rts += spent.RoundTrips
					done++
				}
			}
			b.ReportMetric(float64(ios)/float64(b.N), "ios/rebuild")
			b.ReportMetric(float64(rts)/float64(b.N), "rt/rebuild")
		})
	}
}
