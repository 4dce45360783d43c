package core

import (
	"errors"
	"testing"

	"oblivext/internal/extmem"
)

// S1 regression: every declared-failure return must leave the private-cache
// accountant exactly where it found it. A leak here compounds — the next
// pass sees less free cache, its ScanBatch shrinks, and after enough failed
// calls the one-block grace kicks in with an overdrawn accountant.
func assertCacheBalanced(t *testing.T, env *extmem.Env, name string, wantErr error, call func() error) {
	t.Helper()
	before := env.Cache.Used()
	err := call()
	if err == nil {
		t.Fatalf("%s: expected a declared failure, got nil", name)
	}
	if wantErr != nil && !errors.Is(err, wantErr) {
		t.Fatalf("%s: error %v, want %v", name, err, wantErr)
	}
	if after := env.Cache.Used(); after != before {
		t.Errorf("%s: cache checkout leaked across the error return: %d used before, %d after", name, before, after)
	}
}

func TestErrorPathsRestoreCacheCheckout(t *testing.T) {
	const blocks, b, m = 32, 4, 64

	// Quantiles: q exceeding the occupied count is a declared failure.
	{
		env := newTestEnv(blocks, b, m, 11)
		a := env.D.Alloc(blocks)
		elems := make([]extmem.Element, 4)
		for i := range elems {
			elems[i] = extmem.Element{Key: uint64(i + 1), Pos: uint64(i), Flags: extmem.FlagOccupied}
		}
		writeElems(a, elems)
		assertCacheBalanced(t, env, "Quantiles(q>N)", ErrQuantilesFailed, func() error {
			_, err := Quantiles(env, a, 8)
			return err
		})
	}

	// Quantiles: q blowing the private-memory budget fails before any pass.
	{
		env := newTestEnv(blocks, b, m, 12)
		a := env.D.Alloc(blocks)
		writeElems(a, nil)
		assertCacheBalanced(t, env, "Quantiles(q too large for M)", ErrQuantilesFailed, func() error {
			_, err := Quantiles(env, a, m)
			return err
		})
	}

	// Select: rank out of range is a declared failure.
	{
		env := newTestEnv(blocks, b, m, 13)
		a := env.D.Alloc(blocks)
		elems := make([]extmem.Element, 8)
		for i := range elems {
			elems[i] = extmem.Element{Key: uint64(i + 1), Pos: uint64(i), Flags: extmem.FlagOccupied}
		}
		writeElems(a, elems)
		assertCacheBalanced(t, env, "Select(k>N)", ErrSelectFailed, func() error {
			_, err := Select(env, a, 100)
			return err
		})
	}

	// Tight compaction: more marked cells than the declared capacity.
	{
		env := newTestEnv(blocks, b, m, 14)
		a := env.D.Alloc(blocks)
		elems := make([]extmem.Element, blocks*b)
		for i := range elems {
			elems[i] = extmem.Element{Key: uint64(i + 1), Pos: uint64(i),
				Flags: extmem.FlagOccupied | extmem.FlagMarked}
		}
		writeElems(a, elems)
		assertCacheBalanced(t, env, "CompactMarkedTight(cap too small)", ErrCompactionFailed, func() error {
			_, _, err := CompactMarkedTight(env, a, 2)
			return err
		})
	}

	// The public loose compaction: more marked cells than the capacity.
	{
		env := newTestEnv(6*blocks, b, m, 16)
		a := env.D.Alloc(blocks)
		elems := make([]extmem.Element, blocks*b)
		for i := range elems {
			elems[i] = extmem.Element{Key: uint64(i + 1), Pos: uint64(i),
				Flags: extmem.FlagOccupied | extmem.FlagMarked}
		}
		writeElems(a, elems)
		assertCacheBalanced(t, env, "CompactMarkedLoose(cap too small)", ErrCompactionFailed, func() error {
			_, _, err := CompactMarkedLoose(env, a, 2)
			return err
		})
	}
}
