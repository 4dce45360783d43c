package replica

import (
	"testing"

	"oblivext/internal/extmem"
)

// TestStaleAuthenticatedDivergence pins the freshness gap and its actual
// defense. CryptStore's MAC binds a sealed block to its address but carries
// no freshness counter, so a replica rolled back to an OLD sealed block at
// the SAME address authenticates cleanly — cryptography does not catch
// replica divergence (documented in docs/THREAT_MODEL.md). What does catch
// it, for the failure mode the fleet actually produces (a replica that
// missed writes while down), is the replica layer's dirty tracking: a
// replica is never read at an address it missed a write for until
// read-repair has overwritten it.
func TestStaleAuthenticatedDivergence(t *testing.T) {
	const b = 4
	enc, err := extmem.NewEncryptor(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	cb := extmem.CryptChildBlockSize(b)

	// Part 1: pin the gap. An old sealed block restored at the same address
	// opens without error — the MAC authenticates stale data.
	backend := extmem.NewMemStore(8, cb)
	cs, err := extmem.NewCryptStore(backend, enc, b)
	if err != nil {
		t.Fatal(err)
	}
	write := func(s extmem.BlockStore, addr int, key uint64) {
		t.Helper()
		src := make([]extmem.Element, b)
		src[0] = extmem.Element{Key: key, Flags: extmem.FlagOccupied}
		if err := extmem.WriteBlocksCtx(bg, s, []int{addr}, src); err != nil {
			t.Fatal(err)
		}
	}
	write(cs, 3, 1)
	oldWire := make([]extmem.Element, cb)
	if err := extmem.ReadBlocksCtx(bg, backend, []int{3}, oldWire); err != nil {
		t.Fatal(err)
	}
	write(cs, 3, 2)
	if err := extmem.WriteBlocksCtx(bg, backend, []int{3}, oldWire); err != nil { // Bob rolls the slot back
		t.Fatal(err)
	}
	dst := make([]extmem.Element, b)
	if err := extmem.ReadBlocksCtx(bg, cs, []int{3}, dst); err != nil {
		t.Fatalf("rollback to an old seal at the same address should AUTHENTICATE (the gap this test pins): %v", err)
	}
	if dst[0].Key != 1 {
		t.Fatalf("read back key %d; the rolled-back slot should open as the stale value 1", dst[0].Key)
	}

	// Part 2: the fleet's defense. Two replicas under one CryptStore; one
	// replica misses an update (it was down), so it diverges while holding a
	// perfectly authenticated old seal. Dirty tracking keeps reads off it,
	// and read-repair reconverges it, even with the fresher replica breaking
	// afterward.
	r0 := newFlaky(8, cb)
	r1 := newFlaky(8, cb)
	grp, err := New([]extmem.BlockStore{r0, r1}, Options{FailureThreshold: 1, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := extmem.NewCryptStore(grp, enc, b)
	if err != nil {
		t.Fatal(err)
	}
	write(cs2, 5, 10) // both replicas hold seal(10)
	r0.set(false, true)
	write(cs2, 5, 20) // r0 down: only r1 holds seal(20); r0 is dirty at 5
	r0.set(false, false)
	// r0 is back, holding stale-but-authenticated data. The next read must
	// come from r1 and repair r0 in place.
	if err := extmem.ReadBlocksCtx(bg, cs2, []int{5}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 20 {
		t.Fatalf("read served key %d — the stale authenticated replica leaked through; want 20", dst[0].Key)
	}
	if st := grp.ReplicaStats(); st[0].Dirty != 0 || st[0].Repairs == 0 {
		t.Fatalf("replica 0 not repaired: %+v", st[0])
	}
	// After repair, r0 alone must serve the current value: kill r1 and read.
	r1.set(true, true)
	if err := extmem.ReadBlocksCtx(bg, cs2, []int{5}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 20 {
		t.Fatalf("repaired replica served key %d, want 20", dst[0].Key)
	}
}
