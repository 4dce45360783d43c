package oram

import (
	"slices"
	"testing"

	"oblivext/internal/extmem"
)

// TestRebuildKeepsFreshestCopy hands rebuilds what the access path never
// does — it erases a key's old copy wherever it finds it — namely two live
// copies of a key: the flushing access appends its key to the buffer
// without probing, so the key's copy in the tables stays live. Whichever
// arm of the install a rebuild takes, only the freshest copy may reach the
// new table, once, and every key must read back its latest words.
func TestRebuildKeepsFreshestCopy(t *testing.T) {
	arms := map[int]int{}
	for _, geo := range [][2]int{{4, 128}, {8, 512}, {8, 4096}} {
		for _, n := range []int{5, 32, 100} {
			b, mWords := geo[0], geo[1]
			env := extmem.NewEnv(256, b, mWords, uint64(n))
			o, err := New(env, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			data := make([][]uint64, n)
			for k := range data {
				data[k] = make([]uint64, b)
			}
			for step := 0; step < 4*max(n, o.bufCap); step++ {
				key, words := step*7%n, make([]uint64, b)
				words[0] = uint64(step) + 1
				data[key] = words
				if o.bufLen < o.bufCap-1 {
					if err := o.Write(key, words); err != nil {
						t.Fatal(err)
					}
					continue
				}
				o.ts++
				o.appendBuf(uint64(key), words)
				o.t++
				target, sources := o.scheduled(o.t / int64(o.bufCap))
				g := o.geometry(target, sources, true)
				arm := 1
				if g.compacts() {
					arm = 2
					if !g.fits(g.Kept) {
						arm = 3
					}
				}
				arms[arm]++
				if err := o.rebuildOnSchedule(); err != nil {
					t.Fatalf("B=%d M=%d n=%d step %d: %v", b, mWords, n, step, err)
				}
				copies := 0
				for _, e := range o.DumpLevel(target) {
					if e.Key == key {
						copies++
						if !slices.Equal(e.Words, words) {
							t.Fatalf("B=%d M=%d n=%d step %d (arm %d): key %d reached level %d with %v, want the freshest %v",
								b, mWords, n, step, arm, key, target, e.Words, words)
						}
					}
				}
				if copies != 1 {
					t.Fatalf("B=%d M=%d n=%d step %d (arm %d): key %d is in level %d %d times, want once", b, mWords, n, step, arm, key, target, copies)
				}
			}
			for k := range n {
				if got, err := o.Read(k); err != nil || !slices.Equal(got, data[k]) {
					t.Fatalf("B=%d M=%d n=%d: read %d = (%v, %v), want %v", b, mWords, n, k, got, err, data[k])
				}
			}
		}
	}
	if arms[1] == 0 || arms[2] == 0 || arms[3] == 0 {
		t.Fatalf("stale copies met the install's arms %v times; each must be taken", arms)
	}
}
