package shard

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/trace"
	"oblivext/internal/workload"
)

// bg is the context the tests drive stores under when cancellation is not
// the subject.
var bg = context.Background()

// mkSharded builds a ShardedStore of k MemStore children able to hold
// nBlocks logical blocks of b elements.
func mkSharded(t *testing.T, k, nBlocks, b int) *ShardedStore {
	t.Helper()
	children := make([]extmem.BlockStore, k)
	for i := range children {
		children[i] = extmem.NewMemStore(extmem.CeilDiv(nBlocks, k), b)
	}
	s, err := New(children)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedMatchesFlat drives identical random one-block and multi-block
// traffic through a ShardedStore and a flat MemStore and asserts every read
// observes the same bytes, for shard counts that do and do not divide the
// store size.
func TestShardedMatchesFlat(t *testing.T) {
	const nBlocks, b = 53, 4
	for _, k := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			sharded := mkSharded(t, k, nBlocks, b)
			flat := extmem.NewMemStore(nBlocks, b)
			r := rand.New(rand.NewPCG(uint64(k), 7))
			blk := make([]extmem.Element, b)
			got := make([]extmem.Element, b)
			want := make([]extmem.Element, b)
			for step := 0; step < 300; step++ {
				switch r.IntN(4) {
				case 0: // one-block write
					addr := r.IntN(nBlocks)
					for t := range blk {
						blk[t] = extmem.Element{Key: r.Uint64(), Val: uint64(step)}
					}
					if err := extmem.WriteBlocksCtx(bg, sharded, []int{addr}, blk); err != nil {
						t.Fatal(err)
					}
					if err := extmem.WriteBlocksCtx(bg, flat, []int{addr}, blk); err != nil {
						t.Fatal(err)
					}
				case 1: // one-block read
					addr := r.IntN(nBlocks)
					if err := extmem.ReadBlocksCtx(bg, sharded, []int{addr}, got); err != nil {
						t.Fatal(err)
					}
					if err := extmem.ReadBlocksCtx(bg, flat, []int{addr}, want); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d: block %d element %d: %+v != %+v", step, addr, i, got[i], want[i])
						}
					}
				case 2: // vectored write (duplicates allowed: later wins)
					cnt := 1 + r.IntN(12)
					addrs := make([]int, cnt)
					src := make([]extmem.Element, cnt*b)
					for i := range addrs {
						addrs[i] = r.IntN(nBlocks)
						for t := 0; t < b; t++ {
							src[i*b+t] = extmem.Element{Key: r.Uint64(), Val: uint64(step*100 + i)}
						}
					}
					if err := extmem.WriteBlocksCtx(bg, sharded, addrs, src); err != nil {
						t.Fatal(err)
					}
					if err := extmem.WriteBlocksCtx(bg, flat, addrs, src); err != nil {
						t.Fatal(err)
					}
				case 3: // vectored read (duplicates allowed)
					cnt := 1 + r.IntN(12)
					addrs := make([]int, cnt)
					for i := range addrs {
						addrs[i] = r.IntN(nBlocks)
					}
					g := make([]extmem.Element, cnt*b)
					w := make([]extmem.Element, cnt*b)
					if err := extmem.ReadBlocksCtx(bg, sharded, addrs, g); err != nil {
						t.Fatal(err)
					}
					if err := extmem.ReadBlocksCtx(bg, flat, addrs, w); err != nil {
						t.Fatal(err)
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("step %d: vectored read %v element %d differs", step, addrs, i)
						}
					}
				}
			}
		})
	}
}

func TestShardedGeometry(t *testing.T) {
	// Children of unequal capacity: the logical capacity is the contiguous
	// prefix every shard can serve.
	a := extmem.NewMemStore(4, 2)
	b := extmem.NewMemStore(3, 2)
	s, err := New([]extmem.BlockStore{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 (addresses 1,3,5,...) runs out first: first miss is 3*2+1=7.
	if got := s.NumBlocks(); got != 7 {
		t.Fatalf("NumBlocks = %d, want 7", got)
	}
	if err := s.GrowTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.NumBlocks(); got < 20 {
		t.Fatalf("NumBlocks after GrowTo(20) = %d", got)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) should fail")
	}
	if _, err := New([]extmem.BlockStore{extmem.NewMemStore(1, 2), extmem.NewMemStore(1, 4)}); err == nil {
		t.Fatal("mismatched block sizes should fail")
	}
}

// recStore wraps a child store and records the per-block access sequence it
// serves — the view the individual server at that shard observes — and the
// size of every call it was handed.
type recStore struct {
	extmem.BlockStore
	ops   []trace.Op
	calls []int
}

func (r *recStore) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	r.calls = append(r.calls, len(wAddrs)+len(rAddrs))
	for _, a := range wAddrs {
		r.ops = append(r.ops, trace.Op{Kind: trace.Write, Addr: int64(a)})
	}
	for _, a := range rAddrs {
		r.ops = append(r.ops, trace.Op{Kind: trace.Read, Addr: int64(a)})
	}
	return r.BlockStore.Transfer(ctx, wAddrs, src, rAddrs, dst)
}

func (r *recStore) GrowTo(n int) error { return r.BlockStore.(extmem.Growable).GrowTo(n) }

// TestShardTracePartition is the obliviousness claim of the subsystem: run
// the paper's Sort over a sharded store and check that (a) the logical trace
// the Disk records is bit-identical to the unsharded run, and (b) each
// shard's observed access sequence is exactly the residue-class projection
// of that logical trace, re-numbered to local addresses — sharding
// partitions the trace, it never reorders or changes it.
func TestShardTracePartition(t *testing.T) {
	const nBlocks, b, m, k = 64, 4, 32, 4
	seed := uint64(11)

	runSort := func(store extmem.BlockStore) (*trace.Recorder, extmem.Array) {
		env := extmem.NewEnvOn(store, m, seed)
		a := env.D.Alloc(nBlocks)
		rec := trace.NewRecorder(1 << 20)
		env.D.SetRecorder(rec) // attached before Fill so the logical trace covers everything the shards see
		keys, err := workload.Keys(workload.Uniform, nBlocks*b, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Fill(a, keys); err != nil {
			t.Fatal(err)
		}
		if err := core.Sort(env, a); err != nil {
			t.Fatal(err)
		}
		return rec, a
	}

	flatRec, _ := runSort(extmem.NewMemStore(4*nBlocks, b))

	recs := make([]*recStore, k)
	children := make([]extmem.BlockStore, k)
	for i := range children {
		recs[i] = &recStore{BlockStore: extmem.NewMemStore(4*nBlocks/k, b)}
		children[i] = recs[i]
	}
	sharded, err := New(children)
	if err != nil {
		t.Fatal(err)
	}
	shardRec, _ := runSort(sharded)

	if !flatRec.Summarize().Equal(shardRec.Summarize()) {
		t.Fatalf("logical trace changed under sharding: %v vs %v (first divergence at %d)",
			flatRec.Summarize(), shardRec.Summarize(), trace.FirstDivergence(flatRec, shardRec))
	}

	// Project the logical trace per residue class and compare with what each
	// shard's server actually saw.
	want := make([][]trace.Op, k)
	for _, op := range shardRec.Ops() {
		sh := int(op.Addr) % k
		want[sh] = append(want[sh], trace.Op{Kind: op.Kind, Addr: op.Addr / int64(k)})
	}
	var total int
	for sh := 0; sh < k; sh++ {
		if len(recs[sh].ops) != len(want[sh]) {
			t.Fatalf("shard %d saw %d accesses, projection has %d", sh, len(recs[sh].ops), len(want[sh]))
		}
		for i := range want[sh] {
			if recs[sh].ops[i] != want[sh][i] {
				t.Fatalf("shard %d access %d: saw %v, projection %v", sh, i, recs[sh].ops[i], want[sh][i])
			}
		}
		total += len(recs[sh].ops)
	}
	if total != int(shardRec.Len()) {
		t.Fatalf("shards saw %d accesses in total, logical trace has %d", total, shardRec.Len())
	}
}

// TestShardedStatsAggregation pins the accounting contract and the striping
// that makes the fan-out worth having: every participating shard is handed
// its sub-batch in exactly one call, a contiguous n-block batch gives each
// shard ⌈n/K⌉ or ⌊n/K⌋ blocks — so the slowest shard moves 1/K of the batch,
// not all of it — per-shard counters equal what each child saw and sum to
// the flat total, and one fan-out is one Disk round trip.
func TestShardedStatsAggregation(t *testing.T) {
	const k, b = 4, 4
	recs := make([]*recStore, k)
	children := make([]extmem.BlockStore, k)
	for i := range children {
		recs[i] = &recStore{BlockStore: extmem.NewMemStore(16, b)}
		children[i] = recs[i]
	}
	s, err := New(children)
	if err != nil {
		t.Fatal(err)
	}
	d := extmem.NewDisk(s)

	var batches [][]int // contiguous runs of every length, starting off a stripe boundary
	for n := 1; n <= 4*k+1; n++ {
		run := make([]int, n)
		for i := range run {
			run[i] = 3 + i
		}
		batches = append(batches, run)
	}
	var wantBlocks int64
	wantTrips := make([]int64, k)
	buf := make([]extmem.Element, 64*b)
	for _, addrs := range batches {
		n := len(addrs)
		for _, r := range recs {
			r.calls = nil
		}
		d.ReadMany(addrs, buf[:n*b])
		perShard := make([]int, k)
		for _, a := range addrs {
			perShard[a%k]++
		}
		for sh, cnt := range perShard {
			var want []int // the sizes of the calls the shard should see
			if cnt > 0 {
				want = []int{cnt}
				wantTrips[sh]++
			}
			if !slices.Equal(recs[sh].calls, want) {
				t.Fatalf("batch %v: shard %d saw calls %v, want %v", addrs, sh, recs[sh].calls, want)
			}
			if cnt != n/k && cnt != extmem.CeilDiv(n, k) {
				t.Fatalf("batch of %d: shard %d got %d blocks, want %d or %d", n, sh, cnt, n/k, extmem.CeilDiv(n, k))
			}
		}
		wantBlocks += int64(n)
	}

	if got := d.Stats().RoundTrips; got != int64(len(batches)) {
		t.Fatalf("disk round trips %d, want %d", got, len(batches))
	}
	var sumBlocks int64
	for sh, st := range s.ShardStats() {
		if st.BlocksMoved != int64(len(recs[sh].ops)) || st.RoundTrips != wantTrips[sh] {
			t.Fatalf("shard %d stats %+v, child served %d calls moving %d blocks", sh, st, wantTrips[sh], len(recs[sh].ops))
		}
		sumBlocks += st.BlocksMoved
	}
	if sumBlocks != wantBlocks {
		t.Fatalf("per-shard blocks sum %d, want %d", sumBlocks, wantBlocks)
	}

	s.ResetStats()
	for i, st := range s.ShardStats() {
		if st != (Stats{}) {
			t.Fatalf("shard %d stats not reset: %+v", i, st)
		}
	}
}
