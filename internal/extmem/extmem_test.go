package extmem

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"oblivext/internal/trace"
)

// bg is the context the tests drive stores under when cancellation is not
// the subject.
var bg = context.Background()

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore(4, 3)
	in := []Element{{Key: 1, Val: 2, Pos: 3, Flags: 4}, {Key: 5}, {Key: 6}}
	if err := WriteBlocksCtx(bg, s, []int{2}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 3)
	if err := ReadBlocksCtx(bg, s, []int{2}, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("element %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestMemStoreErrors(t *testing.T) {
	s := NewMemStore(2, 4)
	if err := ReadBlocksCtx(bg, s, []int{2}, make([]Element, 4)); err == nil {
		t.Error("expected out-of-range read error")
	}
	if err := ReadBlocksCtx(bg, s, []int{-1}, make([]Element, 4)); err == nil {
		t.Error("expected negative-address read error")
	}
	if err := WriteBlocksCtx(bg, s, []int{0}, make([]Element, 3)); err == nil {
		t.Error("expected wrong-size write error")
	}
}

func TestMemStoreGrow(t *testing.T) {
	s := NewMemStore(1, 2)
	in := []Element{{Key: 7}, {Key: 8}}
	if err := WriteBlocksCtx(bg, s, []int{0}, in); err != nil {
		t.Fatal(err)
	}
	if err := s.GrowTo(10); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 10 {
		t.Fatalf("NumBlocks = %d, want 10", s.NumBlocks())
	}
	out := make([]Element, 2)
	if err := ReadBlocksCtx(bg, s, []int{0}, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Key != 7 || out[1].Key != 8 {
		t.Fatalf("grow lost data: %+v", out)
	}
}

// TestMemStoreSegments drives MemStore across its segment boundaries at
// block sizes that fill a segment exactly, leave a remainder, and exceed it
// (one block a segment): runs that straddle a boundary, duplicates across
// segments, never-written blocks before and after growth, the bounds
// errors, and a growth that allocates only the segment table.
func TestMemStoreSegments(t *testing.T) {
	for _, b := range []int{1, 3, 8, 64, 1 << 16} {
		per := max(1, memSegElems/b)
		blocks := func(keys ...int) []Element {
			out := make([]Element, 0, len(keys)*b)
			for _, k := range keys {
				for i := 0; i < b; i++ {
					out = append(out, Element{Key: uint64(k), Val: uint64(i), Flags: FlagOccupied})
				}
			}
			return out
		}
		equal := func(what string, got, want []Element) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("B=%d %s: got keys %v, want %v", b, what, keysOf(got, b), keysOf(want, b))
			}
		}
		n := 3*per + 8
		s := NewMemStore(n, b)
		read := func(addrs ...int) []Element {
			t.Helper()
			dst := make([]Element, len(addrs)*b)
			for i := range dst {
				dst[i].Key = 99 // a read must overwrite the buffer, zeros included
			}
			if err := ReadBlocksCtx(bg, s, addrs, dst); err != nil {
				t.Fatalf("B=%d read %v: %v", b, addrs, err)
			}
			return dst
		}
		write := func(addrs []int, src []Element) {
			t.Helper()
			if err := WriteBlocksCtx(bg, s, addrs, src); err != nil {
				t.Fatalf("B=%d write %v: %v", b, addrs, err)
			}
		}
		// A run from two blocks before the first boundary to two past it
		// (for one block a segment, across four boundaries).
		lo := max(0, per-2)
		run := []int{lo, lo + 1, lo + 2, lo + 3, lo + 4}
		equal("never-written run", read(run...), make([]Element, len(run)*b))

		// Write only the run's tail, past the boundary: the head still
		// reads as zeros from a segment never allocated.
		write(run[2:], blocks(3, 4, 5))
		equal("half-written run", read(run...), append(make([]Element, 2*b), blocks(3, 4, 5)...))
		write(run, blocks(1, 2, 3, 4, 5))
		equal("straddling run", read(run...), blocks(1, 2, 3, 4, 5))
		equal("reversed run", read(lo+4, lo+3, lo+2, lo+1, lo), blocks(5, 4, 3, 2, 1))

		// Duplicates across segments: the later write wins.
		write([]int{per - 1, 2 * per, per - 1}, blocks(6, 7, 8))
		equal("duplicates", read(per-1, 2*per, per-1), blocks(8, 7, 8))

		// The last segment holds only the capacity's blocks (8 of them, or
		// one at one block a segment). Its last block reads as zeros before
		// a growth and after it; growth keeps every block written, and a
		// write past the short segment extends it, keeping its blocks.
		equal("last block", read(n-1), make([]Element, b))
		write([]int{n - 2}, blocks(9))
		before := read(run...)
		if err := s.GrowTo(2 * n); err != nil {
			t.Fatal(err)
		}
		if s.NumBlocks() != 2*n {
			t.Fatalf("B=%d: NumBlocks = %d after GrowTo(%d)", b, s.NumBlocks(), 2*n)
		}
		equal("contents across growth", read(run...), before)
		equal("grown blocks", read(n-2, n-1, n, 2*n-1), append(blocks(9), make([]Element, 3*b)...))
		write([]int{n - 1, n, 2*n - 1}, blocks(10, 11, 12))
		equal("grown blocks written", read(n-2, n-1, n, 2*n-1), blocks(9, 10, 11, 12))
		if err := s.GrowTo(n); err != nil || s.NumBlocks() != 2*n {
			t.Fatalf("B=%d: GrowTo below the capacity: err %v, NumBlocks %d", b, err, s.NumBlocks())
		}

		// The bounds errors name the address and the capacity, as before.
		kept := read(lo)
		for _, addr := range []int{2 * n, -1} {
			want := fmt.Sprintf("block address %d out of range [0,%d)", addr, 2*n)
			if err := ReadBlocksCtx(bg, s, []int{lo, addr}, make([]Element, 2*b)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("B=%d: read of block %d: %v, want %q", b, addr, err, want)
			}
			if err := WriteBlocksCtx(bg, s, []int{lo, addr}, blocks(12, 13)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("B=%d: write of block %d: %v, want %q", b, addr, err, want)
			}
		}
		equal("a rejected write moves nothing", read(lo), kept)
		want := fmt.Sprintf("buffer length %d != 2 blocks of %d elements", b, b)
		if err := ReadBlocksCtx(bg, s, []int{0, 1}, make([]Element, b)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("B=%d: short read buffer: %v, want %q", b, err, want)
		}

		// Reads and writes into allocated segments allocate nothing.
		buf := make([]Element, len(run)*b)
		if a := testing.AllocsPerRun(5, func() {
			_ = ReadBlocksCtx(bg, s, run, buf)
			_ = WriteBlocksCtx(bg, s, run, buf)
		}); a != 0 {
			t.Errorf("B=%d: %v allocations a read and write of written blocks, want 0", b, a)
		}

		// Growth from 1 024 blocks to 2^20 allocates the segment table and
		// nothing else: no copy, no zeroed capacity.
		g := NewMemStore(1024, b)
		write = func(addrs []int, src []Element) {
			if err := WriteBlocksCtx(bg, g, addrs, src); err != nil {
				t.Fatal(err)
			}
		}
		write([]int{0, 1023}, blocks(14, 15))
		table := int(unsafe.Sizeof([]Element{})) * CeilDiv(1<<20, per)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := g.GrowTo(1 << 20); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > uint64(table)+8<<10 {
			t.Errorf("B=%d: GrowTo(2^20) allocated %d bytes, want at most the %d-byte segment table", b, got, table)
		}
		dst := make([]Element, 3*b)
		if err := ReadBlocksCtx(bg, g, []int{0, 1023, 1<<20 - 1}, dst); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, append(blocks(14, 15), make([]Element, b)...)) {
			t.Errorf("B=%d: after GrowTo(2^20) blocks 0, 1023, 2^20-1 hold keys %v", b, keysOf(dst, b))
		}
	}
}

// TestMemStoreCloseRecycles closes a store of one full segment, every block
// written, and writes one block of a new one: the rest of the new store
// reads as zeros whether or not it got the closed store's segment, and the
// closed store refuses every access.
func TestMemStoreCloseRecycles(t *testing.T) {
	for _, b := range []int{3, 8} {
		per := memSegElems / b
		old := NewMemStore(per, b)
		full := make([]Element, per*b)
		for i := range full {
			full[i] = Element{Key: 77, Flags: FlagOccupied}
		}
		addrs := make([]int, per)
		for i := range addrs {
			addrs[i] = i
		}
		if err := WriteBlocksCtx(bg, old, addrs, full); err != nil {
			t.Fatal(err)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		if old.NumBlocks() != 0 {
			t.Errorf("B=%d: a closed store has %d blocks, want 0", b, old.NumBlocks())
		}
		if err := ReadBlocksCtx(bg, old, []int{0}, make([]Element, b)); err == nil {
			t.Errorf("B=%d: read after Close accepted", b)
		}
		s := NewMemStore(per, b)
		if err := WriteBlocksCtx(bg, s, []int{1}, full[:b]); err != nil {
			t.Fatal(err)
		}
		got := make([]Element, 2*b)
		if err := ReadBlocksCtx(bg, s, []int{0, 1}, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, append(make([]Element, b), full[:b]...)) {
			t.Errorf("B=%d: a new store reads keys %v, want [0 77]", b, keysOf(got, b))
		}
	}
}

// BenchmarkMemStoreGrowth grows a MemStore the way Disk.Alloc does, by
// doubling from 1 024 blocks to 2^17 at B = 8, and writes each allocated
// block once. B/op is what the growth commits: the written segments and
// the segment table, with no copy of the blocks already there.
func BenchmarkMemStoreGrowth(b *testing.B) {
	const bs, chunk = 8, 1024
	src := make([]Element, chunk*bs)
	b.ReportAllocs()
	for b.Loop() {
		d := NewDisk(NewMemStore(chunk, bs))
		for d.Mark() < 1<<17 {
			d.Alloc(chunk).WriteRange(0, chunk, src)
		}
	}
}

// TestMemStoreConcurrent reads one store from several goroutines while
// others open, write and close stores of their own, so that segments pass
// between stores through the pool: every read sees its own store's blocks.
func TestMemStoreConcurrent(t *testing.T) {
	const b, per = 8, memSegElems / 8
	shared := NewMemStore(2*per, b)
	want := make([]Element, b)
	for i := range want {
		want[i] = Element{Key: 5, Flags: FlagOccupied}
	}
	if err := WriteBlocksCtx(bg, shared, []int{per - 1, per}, append(want, want...)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			dst := make([]Element, 2*b)
			for range 50 {
				if err := ReadBlocksCtx(bg, shared, []int{per - 1, per}, dst); err != nil || !slices.Equal(dst, append(want, want...)) {
					t.Errorf("shared read: err %v, keys %v", err, keysOf(dst, b))
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			mine := make([]Element, b)
			for i := range mine {
				mine[i] = Element{Key: uint64(10 + g), Flags: FlagOccupied}
			}
			dst := make([]Element, 2*b)
			for range 20 {
				s := NewMemStore(per, b)
				if err := WriteBlocksCtx(bg, s, []int{1}, mine); err != nil {
					t.Error(err)
					return
				}
				if err := ReadBlocksCtx(bg, s, []int{0, 1}, dst); err != nil || !slices.Equal(dst, append(make([]Element, b), mine...)) {
					t.Errorf("goroutine %d: err %v, keys %v", g, err, keysOf(dst, b))
					return
				}
				if err := WriteBlocksCtx(bg, s, []int{0}, mine); err != nil { // the next store must not see it
					t.Error(err)
					return
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
}

// keysOf lists the key of each block's first element.
func keysOf(es []Element, b int) []uint64 {
	var ks []uint64
	for i := 0; i < len(es); i += b {
		ks = append(ks, es[i].Key)
	}
	return ks
}

func TestDiskCountsAndTrace(t *testing.T) {
	d := NewDisk(NewMemStore(8, 2))
	rec := trace.NewRecorder(100)
	d.SetRecorder(rec)
	buf := make([]Element, 2)
	d.Write(3, buf)
	d.Read(3, buf)
	d.Read(5, buf)
	st := d.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 2 reads 1 write", st)
	}
	ops := rec.Ops()
	want := []trace.Op{{Kind: trace.Write, Addr: 3}, {Kind: trace.Read, Addr: 3}, {Kind: trace.Read, Addr: 5}}
	if len(ops) != len(want) {
		t.Fatalf("trace len = %d, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, ops[i], want[i])
		}
	}
}

// TestExchangeIsWriteThenRead: an Exchange records exactly the per-block
// trace of WriteMany then ReadMany, moves the same blocks and reads back
// the same data, with dst aliasing src too, and takes one round trip fewer
// wherever the batch cap leaves room for both parts in one interaction. A
// cap limits the blocks of an interaction with both parts counted, so at a
// cap of one block — the scalar baseline — the counts are equal, one round
// trip a block, and at a cap of 4 the writes' last interaction carries the
// reads.
func TestExchangeIsWriteThenRead(t *testing.T) {
	const b = 2
	w, r := []int{3, 9, 4, 5, 6, 7}, []int{9, 0}
	src := make([]Element, len(w)*b)
	for i := range src {
		src[i] = Element{Key: uint64(i/b + 1), Flags: FlagOccupied}
	}
	run := func(limit int, exchange, alias bool) (ops []trace.Op, st obsCounters, got []Element) {
		d := NewDisk(NewMemStore(16, b))
		d.SetMaxBatch(limit)
		d.WriteMany([]int{0}, []Element{{Key: 99}, {Key: 99}})
		rec := trace.NewRecorder(100)
		d.SetRecorder(rec)
		d.ResetStats()
		in := slices.Clone(src)
		dst := make([]Element, len(r)*b)
		if alias {
			dst = in[:len(r)*b]
		}
		if exchange {
			d.Exchange(w, in, r, dst)
		} else {
			d.WriteMany(w, in)
			d.ReadMany(r, dst)
		}
		return rec.Ops(), obsCounters{d.Stats().Reads, d.Stats().Writes, d.Stats().RoundTrips}, dst
	}
	for _, c := range []struct {
		limit      int
		pair, exch int64 // round trips of the two calls and of the Exchange
	}{{0, 2, 1}, {1, 8, 8}, {4, 3, 2}} {
		ops, st, got := run(c.limit, false, false)
		if st != (obsCounters{2, 6, c.pair}) || !slices.Equal(keysOf(got, b), []uint64{2, 99}) {
			t.Fatalf("cap %d: the two calls made %+v and read %v", c.limit, st, keysOf(got, b))
		}
		for _, alias := range []bool{false, true} {
			xops, xst, xgot := run(c.limit, true, alias)
			if !slices.Equal(xops, ops) {
				t.Errorf("cap %d, alias %v: Exchange traced %v, the two calls %v", c.limit, alias, xops, ops)
			}
			if xst != (obsCounters{2, 6, c.exch}) || !slices.Equal(xgot, got) {
				t.Errorf("cap %d, alias %v: Exchange made %+v and read %v, want %d round trips and %v",
					c.limit, alias, xst, keysOf(xgot, b), c.exch, keysOf(got, b))
			}
		}
	}
}

// TestBatchChecksItsBlocks: a Batch is the Exchange of the absolute
// addresses of the array blocks it names — writes first, in the order
// added, then reads — in one round trip and no allocation once the Disk's
// lists are grown; an index outside its array, a block of another disk or
// more blocks than it was started with panic instead of reaching a
// neighbouring array.
func TestBatchChecksItsBlocks(t *testing.T) {
	const b = 2
	d := NewDisk(NewMemStore(16, b))
	a, c := d.Alloc(4), d.Alloc(4)
	rec := trace.NewRecorder(100)
	d.SetRecorder(rec)
	buf := make([]Element, 4*b)
	x := d.Batch(3)
	x.Write(c, []int{2, 0})
	x.WriteRange(c, 1, 2)
	x.ReadRange(a, 1, 3)
	x.Read(c, []int{3})
	x.Do(buf, buf)
	want := []trace.Op{{Kind: trace.Write, Addr: 6}, {Kind: trace.Write, Addr: 4}, {Kind: trace.Write, Addr: 5}, {Kind: trace.Read, Addr: 1}, {Kind: trace.Read, Addr: 2}, {Kind: trace.Read, Addr: 7}}
	if ops := rec.Ops(); !slices.Equal(ops, want) || d.Stats().RoundTrips != 1 {
		t.Fatalf("traced %v in %d round trips, want %v in 1", ops, d.Stats().RoundTrips, want)
	}
	if n := testing.AllocsPerRun(3, func() {
		x := d.Batch(3)
		x.Write(a, []int{0, 1, 2})
		x.ReadRange(c, 0, 3)
		x.Do(buf, buf)
	}); n != 0 {
		t.Errorf("a warm batch allocated %v objects", n)
	}
	other := NewDisk(NewMemStore(16, b)).Alloc(4)
	for name, add := range map[string]func(x *Batch){
		"index past the array": func(x *Batch) { x.Write(a, []int{4}) },
		"negative index":       func(x *Batch) { x.Read(a, []int{-1}) },
		"range past the array": func(x *Batch) { x.ReadRange(a, 3, 5) },
		"write past the array": func(x *Batch) { x.WriteRange(a, 3, 5) },
		"another disk":         func(x *Batch) { x.ReadRange(other, 0, 1) },
		"over its blocks":      func(x *Batch) { x.ReadRange(a, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			x := d.Batch(3)
			add(&x)
		}()
	}
}

// obsCounters is the part of a Disk's counters TestExchangeIsWriteThenRead
// compares.
type obsCounters struct{ reads, writes, roundTrips int64 }

func TestDiskAllocatorStackDiscipline(t *testing.T) {
	d := NewDisk(NewMemStore(4, 2))
	a := d.Alloc(3)
	if a.Base() != 0 || a.Len() != 3 {
		t.Fatalf("first alloc = base %d len %d", a.Base(), a.Len())
	}
	mark := d.Mark()
	b := d.Alloc(10) // forces growth
	if b.Base() != 3 {
		t.Fatalf("second alloc base = %d, want 3", b.Base())
	}
	d.Release(mark)
	c := d.Alloc(2)
	if c.Base() != 3 {
		t.Fatalf("post-release alloc base = %d, want 3", c.Base())
	}
}

func TestArraySliceAndBounds(t *testing.T) {
	d := NewDisk(NewMemStore(10, 2))
	a := d.Alloc(10)
	s := a.Slice(4, 8)
	buf := []Element{{Key: 42}, {Key: 43}}
	s.Write(0, buf)
	got := make([]Element, 2)
	a.Read(4, got)
	if got[0].Key != 42 {
		t.Fatalf("slice write not visible through parent: %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range array access")
		}
	}()
	s.Read(4, buf)
}

func TestCacheAccounting(t *testing.T) {
	c := NewCache(100, false)
	b1 := c.Buf(60)
	b2 := c.Buf(60) // over capacity, non-strict: recorded not fatal
	if c.HighWater() != 120 {
		t.Fatalf("high water = %d, want 120", c.HighWater())
	}
	c.Free(b1)
	c.Free(b2)
	if c.Used() != 0 {
		t.Fatalf("used = %d after frees, want 0", c.Used())
	}
}

// Buf hands out zeroed, pairwise disjoint buffers whatever the order of the
// frees, and a pass that checks its buffers out and back in allocates
// nothing once the slab exists.
func TestCacheBufReusesStorage(t *testing.T) {
	c := NewCache(100, false)
	fill := func(buf []Element, key uint64) {
		for i := range buf {
			buf[i] = Element{Key: key}
		}
	}
	check := func(buf []Element, key uint64) {
		t.Helper()
		for i, e := range buf {
			if e.Key != key {
				t.Fatalf("element %d holds key %d, want %d: buffers overlap or are not zeroed", i, e.Key, key)
			}
		}
	}
	a, b, over := c.Buf(40), c.Buf(30), c.Buf(50) // the third overdraws the slab
	fill(a, 1)
	fill(b, 2)
	fill(over, 3)
	c.Free(a) // out of order: a's storage stays pinned under b
	d := c.Buf(20)
	check(d, 0)
	fill(d, 4)
	check(b, 2)
	check(over, 3)
	if len(append(b, Element{})) != 31 || d[0].Key != 4 {
		t.Fatal("append to a full buffer wrote into its neighbour")
	}
	c.Free(over)
	c.Free(d)
	c.Free(b)
	if c.Used() != 0 {
		t.Fatalf("used = %d after frees, want 0", c.Used())
	}
	e := c.Buf(100) // everything popped: the whole slab is free again
	check(e, 0)
	c.Free(e)
	if got := testing.AllocsPerRun(100, func() {
		x, y := c.Buf(64), c.Buf(36)
		c.Free(y)
		c.Free(x)
	}); got != 0 {
		t.Fatalf("a balanced pass allocates %v objects, want 0", got)
	}
}

func TestCacheStrictPanics(t *testing.T) {
	c := NewCache(10, true)
	defer func() {
		if recover() == nil {
			t.Error("expected strict cache overflow panic")
		}
	}()
	c.Acquire(11)
}

func TestElementLessOrdering(t *testing.T) {
	occ := func(k, p uint64) Element { return Element{Key: k, Pos: p, Flags: FlagOccupied} }
	empty := Element{}
	cases := []struct {
		a, b Element
		want bool
	}{
		{occ(1, 0), occ(2, 0), true},
		{occ(2, 0), occ(1, 0), false},
		{occ(1, 3), occ(1, 5), true}, // tie broken by Pos
		{occ(1, 5), occ(1, 3), false},
		{occ(99, 0), empty, true}, // occupied before empty
		{empty, occ(0, 0), false},
		{empty, empty, false},
	}
	for i, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Errorf("case %d: Less(%+v,%+v) = %v, want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestElementColor(t *testing.T) {
	var e Element
	e.Flags = FlagOccupied | FlagMarked
	e.SetColor(12345)
	if e.Color() != 12345 {
		t.Fatalf("color = %d, want 12345", e.Color())
	}
	if !e.Occupied() || !e.Marked() {
		t.Fatal("SetColor clobbered flag bits")
	}
	e.SetColor(7)
	if e.Color() != 7 {
		t.Fatalf("recolor = %d, want 7", e.Color())
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(k, v, p, fl uint64, k2, v2 uint64) bool {
		in := []Element{{k, v, p, fl}, {k2, v2, k ^ v, fl >> 1}}
		buf := make([]byte, 2*ElementBytes)
		EncodeElements(buf, in)
		out := make([]Element, 2)
		DecodeElements(out, buf)
		return out[0] == in[0] && out[1] == in[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCodecWireFormat pins the bytes, not only the round trip: a golden
// element maps to its exact little-endian fields, the one-copy path equals
// the field-by-field reference at any byte offset, and Element's memory is
// exactly its four fields in wire order (what the one-copy path relies on).
func TestCodecWireFormat(t *testing.T) {
	golden := Element{Key: 0x0102030405060708, Val: 0x1112131415161718, Pos: 0x2122232425262728, Flags: 0x3132333435363738}
	want := []byte{
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
		0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,
		0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31,
	}
	got := make([]byte, ElementBytes)
	EncodeElements(got, []Element{golden})
	if !bytes.Equal(got, want) {
		t.Fatalf("golden element encodes to % x, want % x", got, want)
	}
	var back [1]Element
	DecodeElements(back[:], want)
	if back[0] != golden {
		t.Fatalf("golden bytes decode to %+v, want %+v", back[0], golden)
	}

	// codec.go pins unsafe.Sizeof(Element{}) == ElementBytes at compile time.
	var e Element
	for i, off := range []uintptr{unsafe.Offsetof(e.Key), unsafe.Offsetof(e.Val), unsafe.Offsetof(e.Pos), unsafe.Offsetof(e.Flags)} {
		if off != uintptr(8*i) {
			t.Fatalf("field %d of Element at offset %d, want %d", i, off, 8*i)
		}
	}

	// Odd offsets: the byte side is never assumed aligned.
	f := func(es []Element, o uint8) bool {
		off := 2*int(o%8) + 1
		n := len(es) * ElementBytes
		fast, ref := make([]byte, off+n), make([]byte, off+n)
		EncodeElements(fast[off:], es)
		encodePortable(ref[off:], es)
		if !bytes.Equal(fast, ref) {
			return false
		}
		dFast, dRef := make([]Element, len(es)), make([]Element, len(es))
		DecodeElements(dFast, ref[off:])
		decodePortable(dRef, ref[off:])
		return slices.Equal(dFast, dRef) && slices.Equal(dFast, es)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) { fileStoreRoundTrip(t) }

func fileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := NewFileStore(path, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := []Element{{Key: 10}, {Key: 20, Flags: FlagOccupied}, {Key: 30}, {Key: 40}}
	if err := WriteBlocksCtx(bg, s, []int{5}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 4)
	if err := ReadBlocksCtx(bg, s, []int{5}, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// Unwritten blocks read back zeroed.
	if err := ReadBlocksCtx(bg, s, []int{0}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != (Element{}) {
		t.Fatalf("unwritten block not zero: %+v", out[0])
	}
}

// TestFileStoreRunsByLength pins how a batch is served: split, in the order
// given, into maximal runs of consecutive addresses, a run of at least a
// page costs one system call and a shorter one none where the file is
// mapped (one where it is not). Both kinds round-trip, and an address a
// batch names twice holds what the later run wrote, whichever arm served
// each.
func TestFileStoreRunsByLength(t *testing.T) {
	const b = 10 // the sealed slot at B = 8: 320 bytes
	slot := b * ElementBytes
	long := CeilDiv(pageSize, slot) // the shortest run of at least a page
	s, err := NewFileStore(filepath.Join(t.TempDir(), "blocks.dat"), 64*long, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Descending run bases: runs are served in the order given, not sorted.
	var addrs []int
	longRuns, shortRuns := 0, 0
	for r := range 4 {
		base := (8 - 2*r) * 4 * long
		for i := range long + r {
			addrs = append(addrs, base+i)
		}
		longRuns++
		for i := range long - 1 - r {
			addrs = append(addrs, base+2*long+i)
		}
		shortRuns++
		addrs = append(addrs, base+3*long, base+3*long+2) // stride-2 single blocks
		shortRuns += 2
	}
	addrs = append(addrs, addrs[0]) // the first run's first block again, alone
	shortRuns++
	want := longRuns
	if s.mem == nil {
		want += shortRuns
	}
	in := mkElems(len(addrs)*b, 3)
	if err := WriteBlocksCtx(bg, s, addrs, in); err != nil {
		t.Fatal(err)
	}
	if s.calls != want {
		t.Fatalf("write of %d long and %d short runs issued %d calls, want %d", longRuns, shortRuns, s.calls, want)
	}
	out := make([]Element, len(in))
	if err := ReadBlocksCtx(bg, s, addrs, out); err != nil {
		t.Fatal(err)
	}
	if s.calls != 2*want {
		t.Fatalf("read of %d long and %d short runs issued %d calls, want %d", longRuns, shortRuns, s.calls-want, want)
	}
	last := in[len(in)-b:]
	if !slices.Equal(out[:b], last) {
		t.Fatalf("block %d holds %+v, want the later write %+v", addrs[0], out[0], last[0])
	}
	if !slices.Equal(in[b:], out[b:]) {
		t.Fatal("batch did not round-trip")
	}
}

// TestFileStoreFileImage pins the on-disk format against both arms and
// growth: after writes through the mapping and through WriteAt, before and
// after a GrowTo, the file holds exactly the slot-by-slot EncodeElements
// image of what was written, zero bytes where nothing was.
func TestFileStoreFileImage(t *testing.T) {
	const b = 10
	slot := b * ElementBytes
	long := CeilDiv(pageSize, slot)
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := NewFileStore(path, 4*long, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var model []Element
	tag := uint64(0)
	write := func(addrs ...int) {
		t.Helper()
		tag++
		src := mkElems(len(addrs)*b, tag)
		if err := WriteBlocksCtx(bg, s, addrs, src); err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			copy(model[a*b:(a+1)*b], src[i*b:(i+1)*b])
		}
	}
	seq := func(lo, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i
		}
		return out
	}
	check := func() {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(model)*ElementBytes)
		for a := range s.NumBlocks() {
			EncodeElements(want[a*slot:(a+1)*slot], model[a*b:(a+1)*b])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file of %d bytes is not the %d-byte slot image", len(got), len(want))
		}
	}
	model = make([]Element, s.NumBlocks()*b)
	write(seq(long, long)...) // one WriteAt
	write(0, 2, 4, 3*long)    // copies into the mapping
	check()
	if err := s.GrowTo(9 * long); err != nil {
		t.Fatal(err)
	}
	model = append(model, make([]Element, 5*long*b)...)
	check()
	write(seq(6*long, long+1)...)       // one WriteAt into the grown range
	write(4*long, 4*long+2, 9*long-1)   // copies into the grown range
	write(append(seq(3*long, 3), 1)...) // a run across the old end, and an old slot
	check()
}

// TestFileStoreFaultIsError truncates a mapped store's file from outside:
// a one-block run, served through the mapping, then faults, and the call
// returns an error instead of killing the process.
func TestFileStoreFaultIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.dat")
	s, err := NewFileStore(path, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.mem == nil {
		t.Skip("the file is not mapped on this system")
	}
	blk := mkElems(4, 1)
	if err := WriteBlocksCtx(bg, s, []int{40}, blk); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlocksCtx(bg, s, []int{40}, blk); err == nil {
		t.Fatal("read of a truncated mapping returned no error")
	}
	if err := WriteBlocksCtx(bg, s, []int{40}, blk); err == nil {
		t.Fatal("write into a truncated mapping returned no error")
	}
}

func TestEncryptedFileStore(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	enc, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "enc.dat")
	fs, err := NewFileStore(path, 3, CryptChildBlockSize(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCryptStore(fs, enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := []Element{{Key: 77, Flags: FlagOccupied}, {Key: 88}}
	if err := WriteBlocksCtx(bg, s, []int{1}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 2)
	if err := ReadBlocksCtx(bg, s, []int{1}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != in[0] || out[1] != in[1] {
		t.Fatal("encrypted round trip mismatch")
	}
}

// TestReEncryptionIndistinguishable checks the semantic-security property
// the paper assumes: writing the same plaintext twice produces different
// ciphertext bytes on the wire.
func TestReEncryptionIndistinguishable(t *testing.T) {
	key := make([]byte, 32)
	enc, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reenc.dat")
	fs, err := NewFileStore(path, 1, CryptChildBlockSize(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCryptStore(fs, enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := []Element{{Key: 1}, {Key: 2}}
	read := func() []byte {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := WriteBlocksCtx(bg, s, []int{0}, in); err != nil {
		t.Fatal(err)
	}
	w1 := read()
	if err := WriteBlocksCtx(bg, s, []int{0}, in); err != nil {
		t.Fatal(err)
	}
	w2 := read()
	if bytes.Equal(w1, w2) {
		t.Fatal("re-encryption of identical plaintext produced identical wire bytes")
	}
}

func TestEncryptorTamperDetection(t *testing.T) {
	key := make([]byte, 32)
	enc, _ := NewEncryptor(key)
	wire, err := enc.Seal(nil, []byte("hello block"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Open(nil, wire, 7); err != nil {
		t.Fatalf("honest open failed: %v", err)
	}
	// The seal is bound to its address: a validly sealed block served from
	// the wrong location must not authenticate.
	if _, err := enc.Open(nil, wire, 8); err == nil {
		t.Fatal("relocated block authenticated")
	}
	wire[len(wire)/2] ^= 1
	if _, err := enc.Open(nil, wire, 7); err == nil {
		t.Fatal("tampered block authenticated")
	}
}

// TestEncryptorNonceUnique pins nonce uniqueness by construction: 10^5
// seals from 4 goroutines carry pairwise distinct (salt, counter) pairs, and
// two Encryptors over one key draw distinct salts yet open each other's
// blocks.
func TestEncryptorNonceUnique(t *testing.T) {
	key := make([]byte, 32)
	a, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 4, 25000
	plain := []byte("same block every time")
	heads := make([][][saltSize + counterSize]byte, goroutines)
	var wg sync.WaitGroup
	for g := range heads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heads[g] = make([][saltSize + counterSize]byte, each)
			var wire []byte
			for i := range heads[g] {
				wire, _ = a.Seal(wire[:0], plain, uint64(i))
				heads[g][i] = [saltSize + counterSize]byte(wire)
			}
		}()
	}
	wg.Wait()
	seen := make(map[[saltSize + counterSize]byte]bool, goroutines*each)
	for _, hs := range heads {
		for _, h := range hs {
			if seen[h] {
				t.Fatalf("(salt, counter) %x used twice", h)
			}
			seen[h] = true
		}
	}

	b, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	fromA, _ := a.Seal(nil, plain, 3)
	fromB, _ := b.Seal(nil, plain, 3)
	if bytes.Equal(fromA[:saltSize], fromB[:saltSize]) {
		t.Fatal("two Encryptors over one key drew the same salt")
	}
	// b's one-slot foreign cache misses, hits, and is bypassed for its own.
	for _, tc := range []struct {
		name string
		enc  *Encryptor
		wire []byte
	}{
		{"b opens a's", b, fromA}, {"b opens a's again", b, fromA},
		{"b opens its own", b, fromB}, {"a opens b's", a, fromB},
	} {
		got, err := tc.enc.Open(nil, tc.wire, 3)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%s: got %q, err %v", tc.name, got, err)
		}
	}
	other, err := NewEncryptor(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(nil, fromA, 3); err == nil {
		t.Fatal("a block opened under a different master key")
	}
}

func TestEnvGeometry(t *testing.T) {
	e := NewEnv(16, 8, 64, 1)
	if e.B() != 8 || e.MBlocks() != 8 {
		t.Fatalf("B=%d m=%d, want 8 and 8", e.B(), e.MBlocks())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for M < 2B")
		}
	}()
	NewEnv(16, 8, 15, 1)
}

func TestHelperMath(t *testing.T) {
	if CeilDiv(7, 3) != 3 || CeilDiv(6, 3) != 2 || CeilDiv(1, 3) != 1 {
		t.Error("CeilDiv wrong")
	}
	if CeilLog2(1) != 0 || CeilLog2(2) != 1 || CeilLog2(3) != 2 || CeilLog2(1024) != 10 {
		t.Error("CeilLog2 wrong")
	}
	if FloorLog2(1) != 0 || FloorLog2(7) != 2 || FloorLog2(8) != 3 {
		t.Error("FloorLog2 wrong")
	}
}
