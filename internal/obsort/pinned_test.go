package obsort

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

// pinnedTrace is what Bob sees of one engine call: the per-block trace's
// length and hash, and its reads and writes. How the blocks are grouped
// into interactions is not part of it.
type pinnedTrace struct {
	len           int64
	hash          uint64
	reads, writes int64
}

func pinOf(sum trace.Summary, st obs.Counters) pinnedTrace {
	return pinnedTrace{sum.Len, sum.Hash, st.Reads, st.Writes}
}

// TestEngineTracesPinned pins the per-block trace of columnsort and bitonic
// at fixed geometries: columnsort in place, from a source with its first
// pass observed, and with its last pass handed to a visitor; bitonic at
// power-of-two and padded lengths of two to four windows of the free cache
// and past them. The values are the engines' traces, not a model of them:
// a change that regroups the blocks into other interactions leaves every
// row as it is, and one that adds, drops or reorders a single access
// breaks its row.
func TestEngineTracesPinned(t *testing.T) {
	into := func(visit bool) func(n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters) {
		return func(n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters) {
			sum, st, _, _ := intoRun(t, columnsort, n, b, m, held, keys, visit)
			return sum, st
		}
	}
	inPlace := func(sort func(*extmem.Env, extmem.Array)) func(n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters) {
		return func(n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters) {
			sum, st, _, _ := heldRun(t, sort, n, b, m, held, keys)
			return sum, st
		}
	}
	engines := map[string]func(n, b, m, held int, keys []uint64) (trace.Summary, obs.Counters){
		"columnsort":         inPlace(Columnsort),
		"columnsort-first":   into(false),
		"columnsort-visitor": into(true),
		"bitonic":            inPlace(bitonicSort),
	}
	for _, r := range []struct {
		engine        string
		n, b, m, held int
		want          pinnedTrace
	}{
		// The benchmark's sort, 32 columns of 2 048.
		{"columnsort", 8192, 8, 4096, 0, pinnedTrace{49152, 0x2a972a9236e88925, 24576, 24576}},
		{"columnsort-first", 8192, 8, 4096, 0, pinnedTrace{49152, 0x68e1efcd830bab25, 24576, 24576}},
		{"columnsort-visitor", 8192, 8, 4096, 0, pinnedTrace{40960, 0x2d10808702ed6d25, 24576, 16384}},
		{"columnsort", 1024, 8, 4096, 0, pinnedTrace{6144, 0x5abf067e8f27b325, 3072, 3072}},
		{"columnsort-first", 1024, 8, 4096, 2048, pinnedTrace{6144, 0x755eda031309a625, 3072, 3072}},
		{"columnsort-visitor", 1024, 8, 4096, 2048, pinnedTrace{5120, 0xba2b0d36b8f64525, 3072, 2048}},
		{"columnsort", 64, 8, 512, 128, pinnedTrace{384, 0xa3a20a52f7be96c5, 192, 192}},
		{"columnsort-visitor", 64, 8, 512, 128, pinnedTrace{320, 0x60f5e6f59f3b3125, 192, 128}},
		{"columnsort", 20, 4, 1024, 0, pinnedTrace{120, 0x84396260d352dd6f, 60, 60}},
		{"columnsort-first", 20, 4, 1024, 0, pinnedTrace{120, 0x1e59c4953898710f, 60, 60}},
		// Bitonic: 16 windows of 512 blocks, then two, three, four, and
		// four short of their last 59 blocks.
		{"bitonic", 8192, 8, 4096, 0, pinnedTrace{114688, 0x671c700a934e0325, 57344, 57344}},
		{"bitonic", 1024, 8, 4096, 0, pinnedTrace{6144, 0xfdbd9b734adf3425, 3072, 3072}},
		{"bitonic", 1536, 8, 4096, 0, pinnedTrace{12288, 0x64d149516aced0a5, 6144, 6144}},
		{"bitonic", 2048, 8, 4096, 0, pinnedTrace{16384, 0x1412046e9a389aa5, 8192, 8192}},
		{"bitonic", 1989, 8, 4096, 0, pinnedTrace{15912, 0xbbdfc1a7d8cdc899, 7956, 7956}},
		// Held caches: windows of 32 blocks of 4 (four, the last short;
		// two), of 32 blocks of 8 (51, the last short), and of 4 blocks
		// of 8 (two, the last short).
		{"bitonic", 100, 4, 256, 64, pinnedTrace{800, 0xb246f6e6e99455a9, 400, 400}},
		{"bitonic", 64, 4, 256, 64, pinnedTrace{384, 0x9a340e860e0c0ee5, 192, 192}},
		{"bitonic", 1616, 8, 512, 128, pinnedTrace{38784, 0xed60b0d5e1ba9e35, 19392, 19392}},
		{"bitonic", 5, 8, 64, 16, pinnedTrace{30, 0x2ac9c9bee1e9feea, 15, 15}},
	} {
		name := fmt.Sprintf("%s/n=%d,b=%d,m=%d,held=%d", r.engine, r.n, r.b, r.m, r.held)
		keys := genKeys(rand.New(rand.NewPCG(uint64(r.n), 53)), r.n*r.b-3, "rand")
		sum, st := engines[r.engine](r.n, r.b, r.m, r.held, keys)
		if got := pinOf(sum, st); got != r.want {
			t.Errorf("%s: trace len=%d hash=%#016x, %d reads, %d writes; pinned len=%d hash=%#016x, %d reads, %d writes",
				name, got.len, got.hash, got.reads, got.writes, r.want.len, r.want.hash, r.want.reads, r.want.writes)
		}
	}
}
