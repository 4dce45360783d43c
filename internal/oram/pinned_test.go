package oram

import (
	"testing"

	"oblivext/internal/trace"
)

// TestORAMTracesPinned pins the per-block trace of one access on the scan
// arm, whose scan runs two chunks, and of the hierarchy's accesses through
// its first three rebuilds. The values are the ORAM's traces, not a model
// of them: regrouping the blocks into other interactions leaves both rows
// as they are, and adding, dropping or reordering a single access breaks
// its row.
func TestORAMTracesPinned(t *testing.T) {
	type pin struct {
		len           int64
		hash          uint64
		reads, writes int64
	}
	for _, r := range []struct {
		arm  string
		want pin
	}{
		{ArmScan, pin{32, 0x004086a13b77f053, 16, 16}},
		{ArmHierarchy, pin{9664, 0x983f94323c9eb775, 4416, 5248}},
	} {
		env, o := newArm(t, r.arm, 7)
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		env.D.ResetStats()
		words := make([]uint64, env.B())
		for i := 0; i == 0 || r.arm == ArmHierarchy && o.Rebuilds().Count < 4; i++ {
			words[0] = uint64(i)
			if err := o.Write(i*5%o.N(), words); err != nil {
				t.Fatal(err)
			}
		}
		st := env.D.Stats()
		if got := (pin{rec.Len(), rec.Hash(), st.Reads, st.Writes}); got != r.want {
			t.Errorf("%s: trace len=%d hash=%#016x, %d reads, %d writes; pinned len=%d hash=%#016x, %d reads, %d writes",
				r.arm, got.len, got.hash, got.reads, got.writes, r.want.len, r.want.hash, r.want.reads, r.want.writes)
		}
	}
}
