package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"oblivext/internal/chaos"
	"oblivext/internal/extmem"
)

// ctxChild is a test double over a MemStore: it can fail
// immediately or stall until its context is canceled, recording what
// happened — the shape of a remote shard mid-outage.
type ctxChild struct {
	*extmem.MemStore
	failFast bool
	stall    bool
	canceled chan struct{} // closed when a stalled call observed cancellation
}

func newCtxChild(n, b int) *ctxChild {
	return &ctxChild{MemStore: extmem.NewMemStore(n, b), canceled: make(chan struct{})}
}

func (c *ctxChild) serve(ctx context.Context) error {
	if c.failFast {
		return errors.New("ctxChild: injected failure")
	}
	if c.stall {
		select {
		case <-ctx.Done():
			close(c.canceled)
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("ctxChild: stall outlived the test")
		}
	}
	return nil
}

func (c *ctxChild) Transfer(ctx context.Context, wAddrs []int, src []extmem.Element, rAddrs []int, dst []extmem.Element) error {
	if err := c.serve(ctx); err != nil {
		return err
	}
	return c.MemStore.Transfer(ctx, wAddrs, src, rAddrs, dst)
}

// TestFanOutCancelsStallingSibling is the regression test for the doomed
// fan-out: shard 0 fails instantly, shard 1 would stall for 10 seconds. With
// cancellation threaded through, the failure must cancel the stalled sibling
// and surface shard 0's error immediately — not after the sibling's timeout —
// and the reported error must name the real failure, not the cancellation it
// caused.
func TestFanOutCancelsStallingSibling(t *testing.T) {
	fast := newCtxChild(8, 4)
	fast.failFast = true
	slow := newCtxChild(8, 4)
	slow.stall = true
	s, err := New([]extmem.BlockStore{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	dst := make([]extmem.Element, 4*4)
	err = extmem.ReadBlocksCtx(bg, s, []int{0, 1, 2, 3}, dst) // two addrs per shard
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fan-out with a failing shard should error")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("error %q should carry shard 0's real failure, not the sibling's cancellation", err)
	}
	select {
	case <-slow.canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("stalling sibling was never canceled")
	}
	if elapsed > 5*time.Second {
		t.Errorf("fan-out took %v; the failure should have cancelled the 10s stall", elapsed)
	}

	// The write dual.
	slow2 := newCtxChild(8, 4)
	slow2.stall = true
	s2, err := New([]extmem.BlockStore{fast, slow2})
	if err != nil {
		t.Fatal(err)
	}
	src := make([]extmem.Element, 4*4)
	if err := extmem.WriteBlocksCtx(bg, s2, []int{0, 1, 2, 3}, src); err == nil {
		t.Fatal("write fan-out with a failing shard should error")
	}
	select {
	case <-slow2.canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("stalling sibling was never canceled on the write path")
	}
}

// TestFanOutCallerContext pins that the caller's own context reaches the
// children: canceling it fails the vectored call on every shard.
func TestFanOutCallerContext(t *testing.T) {
	a, b := newCtxChild(8, 4), newCtxChild(8, 4)
	a.stall, b.stall = true, true
	s, err := New([]extmem.BlockStore{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		dst := make([]extmem.Element, 4*4)
		done <- extmem.ReadBlocksCtx(ctx, s, []int{0, 1, 2, 3}, dst)
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read under a canceled context should fail")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v should wrap context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not return after its context was canceled")
	}
}

// TestFanOutCancelsChaosStall pins that cancellation reaches through a
// decorator: shard 0 is a chaos.Store that errors, shard 1 a chaos.Store
// stalling for 5 s. The fan-out's cancel must cut the stall short and the
// reported error must be shard 0's, well inside the stall.
func TestFanOutCancelsChaosStall(t *testing.T) {
	const stall = 5 * time.Second
	s, err := New([]extmem.BlockStore{
		chaos.NewStore(extmem.NewMemStore(8, 4), "bad", chaos.Schedule{{At: 0, Kind: chaos.Err500}}),
		chaos.NewStore(extmem.NewMemStore(8, 4), "slow", chaos.Schedule{{At: 0, Kind: chaos.Stall, Stall: stall}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = extmem.ReadBlocksCtx(bg, s, []int{0, 1, 2, 3}, make([]extmem.Element, 4*4))
	if elapsed := time.Since(start); elapsed > stall/2 {
		t.Errorf("fan-out took %v; shard 0's failure should have cancelled the %v stall", elapsed, stall)
	}
	if err == nil || !strings.Contains(err.Error(), "injected err500 on bad") {
		t.Errorf("error %v should carry shard 0's injected failure, not the sibling's cancellation", err)
	}
}
