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
	if err := s.WriteBlocks(bg, []int{2}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 3)
	if err := s.ReadBlocks(bg, []int{2}, out); err != nil {
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
	if err := s.ReadBlocks(bg, []int{2}, make([]Element, 4)); err == nil {
		t.Error("expected out-of-range read error")
	}
	if err := s.ReadBlocks(bg, []int{-1}, make([]Element, 4)); err == nil {
		t.Error("expected negative-address read error")
	}
	if err := s.WriteBlocks(bg, []int{0}, make([]Element, 3)); err == nil {
		t.Error("expected wrong-size write error")
	}
}

func TestMemStoreGrow(t *testing.T) {
	s := NewMemStore(1, 2)
	in := []Element{{Key: 7}, {Key: 8}}
	if err := s.WriteBlocks(bg, []int{0}, in); err != nil {
		t.Fatal(err)
	}
	if err := s.GrowTo(10); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 10 {
		t.Fatalf("NumBlocks = %d, want 10", s.NumBlocks())
	}
	out := make([]Element, 2)
	if err := s.ReadBlocks(bg, []int{0}, out); err != nil {
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
			if err := s.ReadBlocks(bg, addrs, dst); err != nil {
				t.Fatalf("B=%d read %v: %v", b, addrs, err)
			}
			return dst
		}
		write := func(addrs []int, src []Element) {
			t.Helper()
			if err := s.WriteBlocks(bg, addrs, src); err != nil {
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
			if err := s.ReadBlocks(bg, []int{lo, addr}, make([]Element, 2*b)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("B=%d: read of block %d: %v, want %q", b, addr, err, want)
			}
			if err := s.WriteBlocks(bg, []int{lo, addr}, blocks(12, 13)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("B=%d: write of block %d: %v, want %q", b, addr, err, want)
			}
		}
		equal("a rejected write moves nothing", read(lo), kept)
		want := fmt.Sprintf("buffer length %d != 2 blocks of %d elements", b, b)
		if err := s.ReadBlocks(bg, []int{0, 1}, make([]Element, b)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("B=%d: short read buffer: %v, want %q", b, err, want)
		}

		// Reads and writes into allocated segments allocate nothing.
		buf := make([]Element, len(run)*b)
		if a := testing.AllocsPerRun(5, func() {
			_ = s.ReadBlocks(bg, run, buf)
			_ = s.WriteBlocks(bg, run, buf)
		}); a != 0 {
			t.Errorf("B=%d: %v allocations a read and write of written blocks, want 0", b, a)
		}

		// Growth from 1 024 blocks to 2^20 allocates the segment table and
		// nothing else: no copy, no zeroed capacity.
		g := NewMemStore(1024, b)
		write = func(addrs []int, src []Element) {
			if err := g.WriteBlocks(bg, addrs, src); err != nil {
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
		if err := g.ReadBlocks(bg, []int{0, 1023, 1<<20 - 1}, dst); err != nil {
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
		if err := old.WriteBlocks(bg, addrs, full); err != nil {
			t.Fatal(err)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		if old.NumBlocks() != 0 {
			t.Errorf("B=%d: a closed store has %d blocks, want 0", b, old.NumBlocks())
		}
		if err := old.ReadBlocks(bg, []int{0}, make([]Element, b)); err == nil {
			t.Errorf("B=%d: read after Close accepted", b)
		}
		s := NewMemStore(per, b)
		if err := s.WriteBlocks(bg, []int{1}, full[:b]); err != nil {
			t.Fatal(err)
		}
		got := make([]Element, 2*b)
		if err := s.ReadBlocks(bg, []int{0, 1}, got); err != nil {
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
	if err := shared.WriteBlocks(bg, []int{per - 1, per}, append(want, want...)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			dst := make([]Element, 2*b)
			for range 50 {
				if err := shared.ReadBlocks(bg, []int{per - 1, per}, dst); err != nil || !slices.Equal(dst, append(want, want...)) {
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
				if err := s.WriteBlocks(bg, []int{1}, mine); err != nil {
					t.Error(err)
					return
				}
				if err := s.ReadBlocks(bg, []int{0, 1}, dst); err != nil || !slices.Equal(dst, append(make([]Element, b), mine...)) {
					t.Errorf("goroutine %d: err %v, keys %v", g, err, keysOf(dst, b))
					return
				}
				if err := s.WriteBlocks(bg, []int{0}, mine); err != nil { // the next store must not see it
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
	if err := s.WriteBlocks(bg, []int{5}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 4)
	if err := s.ReadBlocks(bg, []int{5}, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// Unwritten blocks read back zeroed.
	if err := s.ReadBlocks(bg, []int{0}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != (Element{}) {
		t.Fatalf("unwritten block not zero: %+v", out[0])
	}
}

// TestFileStoreOneCallPerRun pins the batch splitting a gather pass relies
// on: 256 blocks in 8 consecutive runs of 32 cost 8 system calls each way,
// in the order given, and round-trip intact.
func TestFileStoreOneCallPerRun(t *testing.T) {
	const b, runs, per = 2, 8, 32
	s, err := NewFileStore(filepath.Join(t.TempDir(), "blocks.dat"), 1024, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var addrs []int
	for r := range runs {
		// Descending run bases: runs are split in the order given, not sorted.
		for i := range per {
			addrs = append(addrs, (runs-r)*100+i)
		}
	}
	in := make([]Element, len(addrs)*b)
	for i := range in {
		in[i] = Element{Key: uint64(i), Flags: FlagOccupied}
	}
	if err := s.WriteBlocks(bg, addrs, in); err != nil {
		t.Fatal(err)
	}
	if s.calls != runs {
		t.Fatalf("write of %d blocks in %d runs issued %d calls", len(addrs), runs, s.calls)
	}
	out := make([]Element, len(in))
	if err := s.ReadBlocks(bg, addrs, out); err != nil {
		t.Fatal(err)
	}
	if s.calls != 2*runs {
		t.Fatalf("read of %d blocks in %d runs issued %d calls", len(addrs), runs, s.calls-runs)
	}
	if !slices.Equal(in, out) {
		t.Fatal("batch did not round-trip")
	}
	one := make([]Element, b)
	if err := s.ReadBlocks(bg, []int{addrs[per]}, one); err != nil || one[0] != in[per*b] {
		t.Fatalf("block %d holds %+v (err %v), want %+v", addrs[per], one[0], err, in[per*b])
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
	if err := s.WriteBlocks(bg, []int{1}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 2)
	if err := s.ReadBlocks(bg, []int{1}, out); err != nil {
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
	if err := s.WriteBlocks(bg, []int{0}, in); err != nil {
		t.Fatal(err)
	}
	w1 := read()
	if err := s.WriteBlocks(bg, []int{0}, in); err != nil {
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
