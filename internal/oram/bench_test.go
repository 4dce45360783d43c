package oram

import (
	"fmt"
	"testing"

	"oblivext/internal/extmem"
)

// BenchmarkRebuild times the two rebuilds of the hierarchy at n = 256,
// B = 8, M = 4096, where it is the arm (the benchmark's kv_mix_http ORAM,
// n = 32 at M = 512, is a scan and rebuilds nothing), and reports what each
// costs in block I/Os and round trips (TestRebuildGeometryAtHierarchyShape
// pins both): level 8 merges the 128-entry buffer alone and writes its
// table from the cache (4 608 and 21), level 9 collects both tables' live
// entries in one private scan each — their bounds, 128 and 256 blocks, fit
// the cache — sorts them and the buffer's once, and writes its table from
// the cache too, from the first 256 of the 512 sorted entries (24 320 and
// 160). The accesses that fill the buffer run off the clock, and the last
// of them without its probe, so an iteration is the rebuild and nothing
// else.
func BenchmarkRebuild(b *testing.B) {
	for _, target := range []int{8, 9} {
		b.Run(fmt.Sprintf("level=%d", target), func(b *testing.B) {
			env := extmem.NewEnv(4096, 8, 4096, 1)
			o, err := New(env, 256, Options{})
			if err != nil || o.Arm() != ArmHierarchy {
				b.Fatalf("(%v, %v), want the hierarchy", o, err)
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
