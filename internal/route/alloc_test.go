package route

import (
	"testing"

	"oblivext/internal/extmem"
)

// TestRoutingAllocs pins what a warm routing allocates: its window
// bookkeeping, the live marks and one address list, and nothing else,
// at two routing groups and at four. Both address lists a write needs
// beside the next window's read are the Disk's (extmem.Batch), and neither
// the consolidation's state nor a caller's runs leave the stack.
func TestRoutingAllocs(t *testing.T) {
	for _, g := range []struct{ n, m int }{{1 << 13, 4096}, {1 << 13, 512}} {
		env, a := benchCells(g.n, g.m)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"CompactBlocksTight", func() { CompactBlocksTight(env, a, PredOccupied, 0) }},
			// A conversion that captures values, as the ORAM rebuild's
			// does, stays on its caller's stack too.
			{"CompactInto", func() {
				bump := uint64(0)
				conv := func(blk []extmem.Element) { blk[0].Val += bump }
				half := a.Len() / 2
				CompactInto(env, a, conv, PredOccupied, a.Slice(0, half), a.Slice(half, a.Len()))
			}},
			{"ConsolidateCompact", func() {
				mark := env.D.Mark()
				ConsolidateCompact(env, a, extmem.Element.Occupied)
				env.D.Release(mark)
			}},
		} {
			c.call() // warm the Disk's scratch and the store
			if got := testing.AllocsPerRun(3, c.call); got != 2 {
				t.Errorf("%s at n=%d, M=%d: %v objects a call, want 2", c.name, g.n, g.m, got)
			}
		}
	}
}
