package oram

import (
	"fmt"
	"strings"
	"testing"

	"oblivext/internal/extmem"
)

// TestRebuildRejectsTwoLiveCopies hands rebuilds what the access path never
// does — it erases a key's old copy wherever it finds it — namely two live
// copies of a key: the flushing access appends a key the buffer already
// holds without probing for it. The rebuild has no stale copy to drop, so it
// must not build a table from them: it panics, with the cache balanced,
// because it counts more live entries than the level keeps (where the
// largest level merges everything) or because the two copies sit side by
// side in the sorted prefix (everywhere else), on either arm of the install.
func TestRebuildRejectsTwoLiveCopies(t *testing.T) {
	seen := map[string]int{}
	// Geometries whose arm is the hierarchy: at n = 1 024 the flushes into
	// level 10 and into the largest expand their kept prefix.
	for _, geo := range [][3]int{{4, 512, 64}, {8, 4096, 100}, {4, 2048, 1024}} {
		b, mWords, n := geo[0], geo[1], geo[2]
		probe, err := New(extmem.NewEnv(256, b, mWords, 1), n, Options{})
		if err != nil || probe.Arm() != ArmHierarchy {
			t.Fatalf("B=%d M=%d n=%d: (%v, %v), want the hierarchy", b, mWords, n, probe, err)
		}
		// The first flush, the first into the level below the largest,
		// and the first into the largest.
		depth := probe.lmax - probe.l0 - 1
		flushes := map[int64]bool{1: true, 1 << max(depth-1, 0): true, 1 << depth: true}
		for j := range flushes {
			env := extmem.NewEnv(256, b, mWords, uint64(n))
			o, err := New(env, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			key := 0
			for step := 0; o.t < j*int64(o.bufCap)-1; step++ {
				key = step * 7 % n
				if err := o.Write(key, make([]uint64, b)); err != nil {
					t.Fatal(err)
				}
			}
			o.ts++
			o.appendBuf(uint64(key), make([]uint64, b))
			o.t++
			target, levels := o.scheduled(o.t / int64(o.bufCap))
			g := o.geometry(target, levels)
			route, want := "side by side", twoCopies(target)
			if target == o.lmax {
				route, want = "over kept", overKept(g.Kept+1, target, g.Kept)
			}
			arm := "install"
			if !g.fits(g.Kept) {
				arm = "expand"
			}
			name := fmt.Sprintf("B=%d M=%d n=%d flush %d (level %d, %s)", b, mWords, n, j, target, arm)
			if got := rejected(o); !strings.Contains(got, want) {
				t.Fatalf("%s: rebuild of two live copies panicked with %q, want %q", name, got, want)
			}
			if used := env.Cache.Used(); used != o.bufCap*b {
				t.Fatalf("%s: %d cache elements in use after the panic, want the buffer's %d", name, used, o.bufCap*b)
			}
			seen[route+", "+arm]++
		}
	}
	for _, c := range []string{"side by side, install", "side by side, expand", "over kept, install", "over kept, expand"} {
		if seen[c] == 0 {
			t.Fatalf("no rebuild met two live copies %s; met %v", c, seen)
		}
	}
}

// rejected runs the scheduled rebuild and returns what it panicked with.
func rejected(o *ORAM) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	_ = o.rebuildOnSchedule()
	return ""
}
