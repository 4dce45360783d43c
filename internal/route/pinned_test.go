package route

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// pinnedTrace is what Bob sees of one routing call: the per-block trace's
// length and hash, and its reads and writes. How the blocks are grouped
// into interactions is not part of it.
type pinnedTrace struct {
	len           int64
	hash          uint64
	reads, writes int64
}

// TestRoutingTracesPinned pins the per-block trace of every routing entry
// point at geometries of two to six level groups: the compaction in place,
// fed by a plain range read of another array and by a feed of two arrays,
// the consolidating compaction, and the expansion of a prefix held apart.
// The values are the routings' traces, not a model of them: regrouping the
// blocks into other interactions leaves every row as it is, and adding,
// dropping or reordering a single access breaks its row.
func TestRoutingTracesPinned(t *testing.T) {
	ops := map[string]func(env *extmem.Env, a, other extmem.Array){
		"compact": func(env *extmem.Env, a, _ extmem.Array) { CompactBlocksTight(env, a, PredOccupied, 0) },
		"compact-into-range": func(env *extmem.Env, a, other extmem.Array) {
			CompactInto(env, other, nil, PredOccupied, a)
		},
		"compact-into-parts": func(env *extmem.Env, a, other extmem.Array) {
			half := a.Len() / 2
			CompactInto(env, other, nil, PredOccupied, a.Slice(0, half), other.Slice(half, a.Len()))
		},
		"consolidate-compact": func(env *extmem.Env, a, other extmem.Array) {
			ConsolidateCompactInto(env, a, other, extmem.Element.Occupied)
		},
		"expand": func(env *extmem.Env, a, other extmem.Array) {
			// Cell i of the compacted prefix goes back to its origin.
			ExpandInto(env, a.Slice(0, a.Len()/2), other, PredOccupied, nil)
		},
	}
	for _, r := range []struct {
		op      string
		n, b, m int
		want    pinnedTrace
	}{
		{"compact", 1000, 4, 64, pinnedTrace{10000, 0x519a02cd72d2c305, 5000, 5000}},
		{"compact", 300, 4, 128, pinnedTrace{1800, 0xd0f9e814a9252ea3, 900, 900}},
		{"compact", 8192, 8, 4096, pinnedTrace{32768, 0x18346c2f45a1730d, 16384, 16384}},
		{"compact", 8192, 8, 512, pinnedTrace{65536, 0x90fab0e1c58c23cd, 32768, 32768}},
		{"compact-into-range", 1000, 4, 64, pinnedTrace{10000, 0x07f6004fee6e2521, 5000, 5000}},
		{"compact-into-range", 3927, 8, 4096, pinnedTrace{15708, 0x4943289505f9d26a, 7854, 7854}},
		{"compact-into-parts", 1000, 4, 64, pinnedTrace{10000, 0xc56e47ba81cb1f17, 5000, 5000}},
		{"consolidate-compact", 1000, 4, 64, pinnedTrace{10000, 0x0f95d952b79263ab, 5000, 5000}},
		{"consolidate-compact", 8192, 8, 4096, pinnedTrace{32768, 0xe321226c5fecf423, 16384, 16384}},
		{"consolidate-compact", 100, 4, 64, pinnedTrace{800, 0x2d09edcb023085ff, 400, 400}},
		{"expand", 1000, 4, 64, pinnedTrace{9500, 0x2fec6207d4a57815, 4500, 5000}},
		{"expand", 640, 4, 192, pinnedTrace{3520, 0xa71723f9bb1eabb7, 1600, 1920}},
	} {
		name := fmt.Sprintf("%s/n=%d,b=%d,m=%d", r.op, r.n, r.b, r.m)
		env := newEnv(2*r.n, r.b, r.m, 5)
		a, other := env.D.Alloc(r.n), env.D.Alloc(r.n)
		rnd := rand.New(rand.NewPCG(uint64(r.n), 55))
		buildCells(a, occupiedSets(rnd, r.n, r.n/3))
		if r.op == "expand" {
			// Targets strictly increasing, in place of the origins a
			// compaction stamps: cell i of the prefix to cell 2i.
			CompactBlocksTight(env, a, PredOccupied, 0)
			buf := make([]extmem.Element, r.b)
			for i := 0; i < r.n/2; i++ {
				a.Read(i, buf)
				for e := range buf {
					buf[e].SetAux(2 * i)
				}
				a.Write(i, buf)
			}
		}
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		env.D.ResetStats()
		ops[r.op](env, a, other)
		st := env.D.Stats()
		if got := (pinnedTrace{rec.Len(), rec.Hash(), st.Reads, st.Writes}); got != r.want {
			t.Errorf("%s: trace len=%d hash=%#016x, %d reads, %d writes; pinned len=%d hash=%#016x, %d reads, %d writes",
				name, got.len, got.hash, got.reads, got.writes, r.want.len, r.want.hash, r.want.reads, r.want.writes)
		}
	}
}
