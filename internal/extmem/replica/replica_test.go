package replica

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"oblivext/internal/chaos"
	"oblivext/internal/extmem"
)

// bg is the context the tests drive stores under when cancellation is not
// the subject.
var bg = context.Background()

// flaky is a controllable child: a MemStore whose reads/writes can be made
// to fail or dawdle, with call counters.
type flaky struct {
	*extmem.MemStore
	mu         sync.Mutex
	failReads  bool
	failWrites bool
	readDelay  time.Duration
	reads      int
	writes     int
}

func newFlaky(n, b int) *flaky { return &flaky{MemStore: extmem.NewMemStore(n, b)} }

func (f *flaky) set(failReads, failWrites bool) {
	f.mu.Lock()
	f.failReads, f.failWrites = failReads, failWrites
	f.mu.Unlock()
}

// Transfer counts each part and refuses the call when a part it carries is
// set to fail; a read part waits out readDelay first.
func (f *flaky) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	w, r := len(wAddrs) > 0, len(rAddrs) > 0
	f.mu.Lock()
	if w {
		f.writes++
	}
	if r {
		f.reads++
	}
	failW, failR, delay := w && f.failWrites, r && f.failReads, f.readDelay
	f.mu.Unlock()
	if r && delay > 0 {
		time.Sleep(delay)
	}
	switch {
	case failW:
		return errors.New("flaky: write refused")
	case failR:
		return errors.New("flaky: read refused")
	}
	return f.MemStore.Transfer(ctx, wAddrs, src, rAddrs, dst)
}

func (f *flaky) counts() (reads, writes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes
}

func block(b int, key uint64) []extmem.Element {
	out := make([]extmem.Element, b)
	for i := range out {
		out[i] = extmem.Element{Key: key, Val: uint64(i), Flags: extmem.FlagOccupied}
	}
	return out
}

// TestWriteFansOutReadsPickOne pins the basic replication contract: a write
// lands on every replica, a read costs only one of them, and both return
// correct data.
func TestWriteFansOutReadsPickOne(t *testing.T) {
	c0, c1, c2 := newFlaky(8, 4), newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1, c2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := extmem.WriteBlocksCtx(bg, s, []int{0, 3}, append(block(4, 10), block(4, 11)...)); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*flaky{c0, c1, c2} {
		if _, w := c.counts(); w != 1 {
			t.Errorf("replica %d saw %d writes, want 1 (fan-out)", i, w)
		}
	}
	dst := make([]extmem.Element, 2*4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{3, 0}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 11 || dst[4].Key != 10 {
		t.Errorf("read back keys %d,%d want 11,10", dst[0].Key, dst[4].Key)
	}
	r0, _ := c0.counts()
	r1, _ := c1.counts()
	r2, _ := c2.counts()
	if r0+r1+r2 != 1 {
		t.Errorf("read touched %d replicas, want exactly 1", r0+r1+r2)
	}
}

// TestFailoverKeepsReadOrder: when every group of a read fails, the
// failover round gathers their addresses in the order the groups left them
// and may route all of them to one replica; the blocks must still land at
// their own positions in dst. Replica 0 misses a write of block 1, so a
// read of blocks 0–3 splits into {0, 2, 3} on replica 0 and {1} on
// replica 1; both fail, and replica 2 serves [0, 2, 3, 1] in one call.
func TestFailoverKeepsReadOrder(t *testing.T) {
	c0, c1, c2 := newFlaky(8, 4), newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1, c2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var all []extmem.Element
	for k := uint64(0); k < 4; k++ {
		all = append(all, block(4, 10+k)...)
	}
	if err := extmem.WriteBlocksCtx(bg, s, []int{0, 1, 2, 3}, all); err != nil {
		t.Fatal(err)
	}
	c0.set(false, true)
	if err := extmem.WriteBlocksCtx(bg, s, []int{1}, block(4, 11)); err != nil {
		t.Fatal(err)
	}
	c0.set(true, false)
	c1.set(true, false)
	dst := make([]extmem.Element, 4*4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{0, 1, 2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if got := dst[4*i].Key; got != 10+uint64(i) {
			t.Errorf("block %d read back key %d, want %d", i, got, 10+i)
		}
	}
	if r2, _ := c2.counts(); r2 != 1 {
		t.Errorf("replica 2 served %d reads, want the one failover call", r2)
	}
}

// TestReadFailover pins failover: when the preferred replica fails a read,
// the batch reroutes to the next one, the caller sees success, and the
// failure is recorded against the right replica.
func TestReadFailover(t *testing.T) {
	c0, c1 := newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := extmem.WriteBlocksCtx(bg, s, []int{2}, block(4, 42)); err != nil {
		t.Fatal(err)
	}
	c0.set(true, false)
	dst := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{2}, dst); err != nil {
		t.Fatalf("read should fail over, got: %v", err)
	}
	if dst[0].Key != 42 {
		t.Errorf("failover read returned key %d, want 42", dst[0].Key)
	}
	st := s.ReplicaStats()
	if st[0].Failures != 1 || st[0].Failovers != 1 {
		t.Errorf("replica 0: Failures=%d Failovers=%d, want 1,1", st[0].Failures, st[0].Failovers)
	}
	if st[1].Failures != 0 {
		t.Errorf("replica 1 charged %d failures, want 0", st[1].Failures)
	}
}

// TestAllReplicasFailedSurfacesError pins the no-quorum case: when every
// replica holding current data has failed, the read errors instead of
// serving stale or fabricated blocks.
func TestAllReplicasFailedSurfacesError(t *testing.T) {
	c0, c1 := newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := extmem.WriteBlocksCtx(bg, s, []int{1}, block(4, 9)); err != nil {
		t.Fatal(err)
	}
	c0.set(true, true)
	c1.set(true, true)
	dst := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{1}, dst); err == nil {
		t.Fatal("read with every replica failing should error")
	}
}

// TestBreakerOpensAndSkips pins the circuit breaker: consecutive write
// failures open it, an open replica stops receiving traffic (its missed
// writes are marked dirty instead), and writes keep succeeding on the
// survivors.
func TestBreakerOpensAndSkips(t *testing.T) {
	c0, c1 := newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1}, Options{FailureThreshold: 2, Cooldown: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c0.set(true, true)
	for k := 0; k < 4; k++ {
		if err := extmem.WriteBlocksCtx(bg, s, []int{k}, block(4, uint64(k))); err != nil {
			t.Fatalf("write %d should succeed on the survivor: %v", k, err)
		}
	}
	if _, w := c0.counts(); w != 2 {
		t.Errorf("dead replica saw %d writes, want 2 (breaker opens after the threshold)", w)
	}
	st := s.ReplicaStats()
	if st[0].State != "open" {
		t.Errorf("replica 0 state %q, want open", st[0].State)
	}
	if st[0].Dirty != 4 {
		t.Errorf("replica 0 has %d dirty blocks, want 4 (every missed write)", st[0].Dirty)
	}
	if st[1].State != "closed" || st[1].Dirty != 0 {
		t.Errorf("replica 1 state=%q dirty=%d, want closed,0", st[1].State, st[1].Dirty)
	}
}

// TestRecoveryProbeAndReadRepair walks the full recovery arc: breaker opens,
// cooldown expires, a half-open probe write closes it, and a read of blocks
// the replica missed repairs them in place — after which the recovered
// replica serves reads with current data.
func TestRecoveryProbeAndReadRepair(t *testing.T) {
	c0, c1 := newFlaky(8, 4), newFlaky(8, 4)
	s, err := New([]extmem.BlockStore{c0, c1}, Options{FailureThreshold: 1, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	c0.set(false, true)
	// ops=1: c0 write fails -> breaker opens (threshold 1), addr 0 dirty.
	if err := extmem.WriteBlocksCtx(bg, s, []int{0}, block(4, 100)); err != nil {
		t.Fatal(err)
	}
	// ops=2: c0 skipped (open), addr 1 dirty too.
	if err := extmem.WriteBlocksCtx(bg, s, []int{1}, block(4, 101)); err != nil {
		t.Fatal(err)
	}
	if st := s.ReplicaStats(); st[0].State != "open" || st[0].Dirty != 2 {
		t.Fatalf("after two writes: state=%q dirty=%d, want open,2", st[0].State, st[0].Dirty)
	}
	c0.set(false, false) // the replica comes back
	// ops=3 >= openUntil: the write doubles as the half-open probe; success
	// closes the breaker and addr 1 is now current on both replicas.
	if err := extmem.WriteBlocksCtx(bg, s, []int{1}, block(4, 201)); err != nil {
		t.Fatal(err)
	}
	st := s.ReplicaStats()
	if st[0].State != "closed" {
		t.Fatalf("after probe write: state=%q, want closed", st[0].State)
	}
	if st[0].Dirty != 1 {
		t.Fatalf("after probe write: dirty=%d, want 1 (addr 0 still stale)", st[0].Dirty)
	}
	// Reading addr 0 must avoid the dirty replica, then repair it.
	dst := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 100 {
		t.Errorf("read of missed block returned key %d, want 100 — served stale data?", dst[0].Key)
	}
	st = s.ReplicaStats()
	if st[0].Repairs != 1 || st[0].Dirty != 0 {
		t.Errorf("after read: Repairs=%d Dirty=%d, want 1,0 (read-repair)", st[0].Repairs, st[0].Dirty)
	}
	// The repaired replica is preferred again (lowest index, closed) and
	// must serve the repaired content.
	r0Before, _ := c0.counts()
	if err := extmem.ReadBlocksCtx(bg, s, []int{0}, dst); err != nil {
		t.Fatal(err)
	}
	if r0After, _ := c0.counts(); r0After != r0Before+1 {
		t.Errorf("recovered replica did not serve the follow-up read")
	}
	if dst[0].Key != 100 {
		t.Errorf("repaired replica served key %d, want 100", dst[0].Key)
	}
}

// TestSlowReplicaKeepsItsReads pins that latency never moves a read: the
// preferred replica stalls on every read and still serves each one in full.
// The other replica sees no read, nothing fails over, and the decision log
// stays empty — routing reads fault history and public geometry, not time.
func TestSlowReplicaKeepsItsReads(t *testing.T) {
	for _, addrs := range [][]int{{5}, {1, 2, 5, 7}} {
		t.Run(fmt.Sprintf("%d blocks", len(addrs)), func(t *testing.T) {
			c0, c1 := newFlaky(8, 4), newFlaky(8, 4)
			s, err := New([]extmem.BlockStore{c0, c1}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				if err := extmem.WriteBlocksCtx(bg, s, []int{a}, block(4, uint64(70+a))); err != nil {
					t.Fatal(err)
				}
			}
			c0.readDelay = 20 * time.Millisecond
			dst := make([]extmem.Element, len(addrs)*4)
			for round := 0; round < 3; round++ {
				if err := extmem.ReadBlocksCtx(bg, s, addrs, dst); err != nil {
					t.Fatal(err)
				}
				for j, a := range addrs {
					if got := dst[j*4].Key; got != uint64(70+a) {
						t.Errorf("round %d: block %d returned key %d, want %d", round, a, got, 70+a)
					}
				}
			}
			if r0, _ := c0.counts(); r0 != 3 {
				t.Errorf("slow replica 0 served %d reads, want 3", r0)
			}
			if r1, _ := c1.counts(); r1 != 0 {
				t.Errorf("replica 1 got %d reads, want 0: latency moved a read", r1)
			}
			for i, r := range s.ReplicaStats() {
				if r.Failovers != 0 || r.Failures != 0 {
					t.Errorf("replica %d: Failovers=%d Failures=%d, want 0,0", i, r.Failovers, r.Failures)
				}
			}
			if ev := s.Events(); len(ev) != 0 {
				t.Errorf("decision log %q, want empty", ev)
			}
		})
	}
}

// driveWorkload runs a fixed read/write sequence against a replica store
// over one chaos-wrapped child, returning the decision logs.
func driveWorkload(t *testing.T, schedule chaos.Schedule) (replicaEvents, chaosDecisions []string) {
	t.Helper()
	faulty := chaos.NewStore(extmem.NewMemStore(16, 4), "r0", schedule)
	healthy := extmem.NewMemStore(16, 4)
	s, err := New([]extmem.BlockStore{faulty, healthy}, Options{FailureThreshold: 2, Cooldown: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := extmem.WriteBlocksCtx(bg, s, []int{k}, block(4, uint64(k))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	dst := make([]extmem.Element, 4)
	for k := 0; k < 10; k++ {
		if err := extmem.ReadBlocksCtx(bg, s, []int{k}, dst); err != nil {
			t.Fatalf("read %d: %v", k, err)
		}
		if dst[0].Key != uint64(k) {
			t.Fatalf("read %d returned key %d under chaos", k, dst[0].Key)
		}
	}
	return s.Events(), faulty.Decisions()
}

// TestDeterministicFailoverReplay pins the headline determinism property at
// the unit level: the same fault schedule, replayed against the same
// workload, drives the breaker and failover machinery through an identical
// decision log — no wall-clock, no randomness, nothing data-dependent.
func TestDeterministicFailoverReplay(t *testing.T) {
	schedule := chaos.Schedule{
		{Target: "r0", At: 3, For: 4, Kind: chaos.Err500},
		{Target: "r0", At: 12, For: 2, Kind: chaos.Drop},
	}
	ev1, cd1 := driveWorkload(t, schedule)
	ev2, cd2 := driveWorkload(t, schedule)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("replica decision logs diverged across replays:\nrun1: %v\nrun2: %v", ev1, ev2)
	}
	if !reflect.DeepEqual(cd1, cd2) {
		t.Errorf("chaos decision logs diverged across replays:\nrun1: %v\nrun2: %v", cd1, cd2)
	}
	if len(ev1) == 0 || len(cd1) == 0 {
		t.Errorf("schedule injected nothing (replica events %d, chaos decisions %d) — the replay assertion is vacuous",
			len(ev1), len(cd1))
	}
}

// TestGeometryValidation pins the constructor's checks.
func TestGeometryValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("zero children should be rejected")
	}
	if _, err := New([]extmem.BlockStore{extmem.NewMemStore(4, 4), extmem.NewMemStore(4, 8)}, Options{}); err == nil {
		t.Error("mismatched block sizes should be rejected")
	}
}

// TestOneBlockBatch smoke-tests a batch of one and the geometry accessors.
func TestOneBlockBatch(t *testing.T) {
	s, err := New([]extmem.BlockStore{newFlaky(8, 4), newFlaky(8, 4)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := extmem.WriteBlocksCtx(bg, s, []int{6}, block(4, 5)); err != nil {
		t.Fatal(err)
	}
	dst := make([]extmem.Element, 4)
	if err := extmem.ReadBlocksCtx(bg, s, []int{6}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].Key != 5 {
		t.Errorf("one-block read returned key %d, want 5", dst[0].Key)
	}
	if got, want := fmt.Sprint(s.NumBlocks(), s.BlockSize(), s.NumReplicas()), "8 4 2"; got != want {
		t.Errorf("geometry %s, want %s", got, want)
	}
}
