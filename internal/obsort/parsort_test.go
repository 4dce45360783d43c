package obsort

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
)

// InCachePar must be indistinguishable from InCache: same sorted order,
// same stability (equal keys keep their input order), cache returned to
// its starting balance — for every worker count, including ones that
// don't divide the buffer length.
func TestInCacheParWorkersMatchSerial(t *testing.T) {
	const n = 3 * extmem.ParMinCells
	r := rand.New(rand.NewPCG(11, 11))
	base := make([]extmem.Element, n)
	for i := range base {
		// Few distinct keys so stability is actually exercised; Pos
		// records the input order the tie-break must preserve.
		base[i] = extmem.Element{Key: uint64(r.IntN(64)), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	want := append([]extmem.Element(nil), base...)
	InCache(want, ByKey)

	for _, w := range []int{2, 3, 4, 8} {
		env := extmem.NewEnv(8, 4, 4*n, 1)
		env.Workers = w
		buf := append([]extmem.Element(nil), base...)
		before := env.Cache.Used()
		InCachePar(env, buf, ByKey)
		if after := env.Cache.Used(); after != before {
			t.Fatalf("workers=%d: scratch leaked, cache %d -> %d", w, before, after)
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("workers=%d: element %d = %+v, serial %+v", w, i, buf[i], want[i])
			}
		}
	}
}

// When the accountant can't cover the merge scratch, InCachePar must fall
// back to the serial path rather than overdraw the cache — and still sort.
func TestInCacheParFallsBackUnderCachePressure(t *testing.T) {
	const n = extmem.ParMinCells
	env := extmem.NewEnv(8, 4, n+n/2, 1)
	env.Workers = 4
	// Check out enough that free < n.
	held := env.Cache.Buf(n)
	defer env.Cache.Free(held)

	buf := make([]extmem.Element, n)
	for i := range buf {
		buf[i] = extmem.Element{Key: uint64(n - i), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	InCachePar(env, buf, ByKey)
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("cache high water %d exceeds M=%d", hw, env.M)
	}
	for i := 1; i < len(buf); i++ {
		if ByKey(buf[i], buf[i-1]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}
