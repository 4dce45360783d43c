package extmem

import (
	"context"
	"fmt"

	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

// CryptCounters is implemented by stores that seal blocks client-side (the
// CryptStore); a Disk over such a store folds the byte counters into its
// Stats so one snapshot carries the whole client-side picture.
type CryptCounters interface {
	BytesSealed() int64
	BytesOpened() int64
	ResetCryptStats()
}

// Disk is Bob's storage as the algorithms see it: a block store instrumented
// with I/O counters, an optional trace recorder capturing the adversary's
// view, and a bump allocator handing out scratch arenas. All methods panic
// on geometry violations: in this simulator an out-of-range access is a bug
// in the algorithm, not an environmental error.
//
// Store calls are issued under context.Background(): the algorithms' access
// sequence is fixed by the public geometry, so an access once issued runs
// to completion or panics — cancellation exists only below the Disk,
// between the stores of one fan-out.
type Disk struct {
	store    BlockStore
	b        int
	stats    obs.Counters
	rec      *trace.Recorder
	obs      *obs.Collector
	top      int
	topMax   int    // largest top any Alloc reached
	maxBatch int    // blocks per vectored store call; 0 = unlimited, 1 = scalar
	addrs    []int  // scratch for building vectored address lists
	idx      []int  // caller-filled block-index scratch, as long as addrs
	one      [1]int // address list of a one-block Read/Write
}

// NewDisk wraps a block store. The allocator starts at block 0.
func NewDisk(store BlockStore) *Disk {
	return &Disk{store: store, b: store.BlockSize()}
}

// B returns the block size in elements.
func (d *Disk) B() int { return d.b }

// SetMaxBatch caps how many blocks a single vectored store call may move:
// 0 (the default) leaves batches bounded only by the caller's cache budget,
// 1 degrades ReadMany/WriteMany to one round trip per block — the scalar
// baseline. The per-block trace is identical for every setting; only the
// round-trip grouping changes.
func (d *Disk) SetMaxBatch(n int) {
	if n < 0 {
		panic("extmem: negative batch cap")
	}
	d.maxBatch = n
}

// chunk returns the number of blocks of a remaining request to put in the
// next store call.
func (d *Disk) chunk(remaining int) int {
	if d.maxBatch > 0 && remaining > d.maxBatch {
		return d.maxBatch
	}
	return remaining
}

// Stats returns the cumulative I/O counters: the block I/Os an algorithm
// performed — the quantity every theorem in the paper bounds — and the store
// interactions (round trips) they were batched into, the quantity that
// dominates wall-clock time when Bob is remote, with the crypto byte
// counters folded in when the store seals blocks client-side.
func (d *Disk) Stats() obs.Counters {
	st := d.stats
	if cc, ok := d.store.(CryptCounters); ok {
		st.BytesSealed = cc.BytesSealed()
		st.BytesOpened = cc.BytesOpened()
	}
	return st
}

// ResetStats zeroes the I/O counters, including a sealing store's byte
// counters so a Stats snapshot stays internally consistent.
func (d *Disk) ResetStats() {
	d.stats = obs.Counters{}
	if cc, ok := d.store.(CryptCounters); ok {
		cc.ResetCryptStats()
	}
}

// SetRecorder attaches (or with nil detaches) a trace recorder.
func (d *Disk) SetRecorder(r *trace.Recorder) { d.rec = r }

// Recorder returns the attached trace recorder, if any.
func (d *Disk) Recorder() *trace.Recorder { return d.rec }

// SetObs attaches (or with nil detaches) a span collector; every block
// access is folded into the open spans' audit fingerprints.
func (d *Disk) SetObs(c *obs.Collector) { d.obs = c }

// Obs returns the attached span collector, if any.
func (d *Disk) Obs() *obs.Collector { return d.obs }

// Read copies block addr into dst and logs the access (one round trip): a
// batch of one, issued through the Disk-owned address scratch so the
// algorithms' one-block accesses allocate nothing.
func (d *Disk) Read(addr int, dst []Element) {
	d.one[0] = addr
	d.ReadMany(d.one[:], dst)
}

// Write copies src into block addr and logs the access (one round trip).
func (d *Disk) Write(addr int, src []Element) {
	d.one[0] = addr
	d.WriteMany(d.one[:], src)
}

// ReadMany copies blocks addrs[i] into dst[i*B:(i+1)*B], issuing vectored
// store calls of at most MaxBatch blocks each. The recorded trace is the
// identical per-block sequence the scalar loop would produce — batching
// changes what the server must be told per interaction, never what it
// learns — and Reads advances by len(addrs) while RoundTrips advances by
// the number of store calls.
func (d *Disk) ReadMany(addrs []int, dst []Element) {
	if len(dst) != len(addrs)*d.b {
		panic(fmt.Sprintf("extmem: vectored read buffer %d != %d blocks of %d", len(dst), len(addrs), d.b))
	}
	for lo := 0; lo < len(addrs); {
		n := d.chunk(len(addrs) - lo)
		if err := d.store.ReadBlocks(context.Background(), addrs[lo:lo+n], dst[lo*d.b:(lo+n)*d.b]); err != nil {
			panic(fmt.Sprintf("extmem: vectored read: %v", err))
		}
		d.stats.Reads += int64(n)
		d.stats.RoundTrips++
		for _, a := range addrs[lo : lo+n] {
			d.rec.Record(trace.Read, int64(a))
			d.obs.Access('R', int64(a))
		}
		lo += n
	}
}

// WriteMany copies src[i*B:(i+1)*B] into blocks addrs[i]; the vectored dual
// of ReadMany with the same trace and accounting guarantees.
func (d *Disk) WriteMany(addrs []int, src []Element) {
	if len(src) != len(addrs)*d.b {
		panic(fmt.Sprintf("extmem: vectored write buffer %d != %d blocks of %d", len(src), len(addrs), d.b))
	}
	for lo := 0; lo < len(addrs); {
		n := d.chunk(len(addrs) - lo)
		if err := d.store.WriteBlocks(context.Background(), addrs[lo:lo+n], src[lo*d.b:(lo+n)*d.b]); err != nil {
			panic(fmt.Sprintf("extmem: vectored write: %v", err))
		}
		d.stats.Writes += int64(n)
		d.stats.RoundTrips++
		for _, a := range addrs[lo : lo+n] {
			d.rec.Record(trace.Write, int64(a))
			d.obs.Access('W', int64(a))
		}
		lo += n
	}
}

// grow sizes the address and index scratch for batches of n blocks. Both
// grow together, to a power of two of blocks, so a batch one block wider
// than the scans before it — a 512-block gather after 511-block scans —
// reuses what they grew, and a caller's index list is as long as any batch
// the Disk has moved.
func (d *Disk) grow(n int) {
	if cap(d.addrs) < n {
		c := 1 << CeilLog2(n)
		d.addrs, d.idx = make([]int, c), make([]int, c)
	}
}

// IndexScratch returns a Disk-owned list of n array block indices for the
// caller to fill and pass to Array.ReadMany and WriteMany, which build
// their address lists in other scratch. It stays the caller's until the
// next IndexScratch call.
func (d *Disk) IndexScratch(n int) []int {
	d.grow(n)
	return d.idx[:n]
}

// runAddrs fills the scratch address list with the run [base, base+n).
func (d *Disk) runAddrs(base, n int) []int {
	d.grow(n)
	as := d.addrs[:n]
	for i := range as {
		as[i] = base + i
	}
	return as
}

// ReadRun reads the contiguous blocks [base, base+n) into dst.
func (d *Disk) ReadRun(base, n int, dst []Element) {
	d.ReadMany(d.runAddrs(base, n), dst)
}

// WriteRun writes dst into the contiguous blocks [base, base+n).
func (d *Disk) WriteRun(base, n int, src []Element) {
	d.WriteMany(d.runAddrs(base, n), src)
}

// Alloc reserves n fresh blocks and returns them as an Array. Allocation is
// a client-side bookkeeping operation (no I/O, no trace): the request
// pattern of every algorithm here depends only on N, M and B, so allocation
// reveals nothing. Growable stores grow on demand, by doubling; an
// in-memory store grows without copying and commits memory one segment at
// a time, on the first write into it.
func (d *Disk) Alloc(n int) Array {
	if n < 0 {
		panic("extmem: negative allocation")
	}
	if d.top+n > d.store.NumBlocks() {
		g, ok := d.store.(Growable)
		if !ok {
			panic(fmt.Sprintf("extmem: allocation of %d blocks exceeds store capacity %d (top %d)",
				n, d.store.NumBlocks(), d.top))
		}
		grow := d.store.NumBlocks() * 2
		if grow < d.top+n {
			grow = d.top + n
		}
		if err := g.GrowTo(grow); err != nil {
			panic(fmt.Sprintf("extmem: store growth failed: %v", err))
		}
	}
	a := Array{d: d, base: d.top, n: n}
	d.top += n
	d.topMax = max(d.topMax, d.top)
	return a
}

// Mark returns the current allocation watermark; pass it to Release to free
// every arena allocated since (stack discipline, as the recursive algorithms
// need).
func (d *Disk) Mark() int { return d.top }

// Release frees all arenas allocated after the given watermark.
func (d *Disk) Release(mark int) {
	if mark < 0 || mark > d.top {
		panic("extmem: bad release watermark")
	}
	d.top = mark
}

// Since returns every block allocated after the given watermark as one
// Array: the concatenation, in allocation order, of the arenas a caller
// stacked there.
func (d *Disk) Since(mark int) Array {
	if mark < 0 || mark > d.top {
		panic("extmem: bad watermark")
	}
	return Array{d: d, base: mark, n: d.top - mark}
}

// HighWater returns the most blocks that were ever allocated at once: the
// scratch footprint of everything run on this Disk. Like allocation itself
// it is client-side bookkeeping (no I/O, no trace).
func (d *Disk) HighWater() int { return d.topMax }

// Array is a view over a contiguous run of blocks on a Disk. All the
// paper's algorithms operate on Arrays; Slice carves subarrays without
// copying, exactly as the paper reuses regions of A.
type Array struct {
	d    *Disk
	base int
	n    int
}

// Len returns the array length in blocks.
func (a Array) Len() int { return a.n }

// B returns the block size in elements.
func (a Array) B() int { return a.d.b }

// Base returns the absolute block address of the array's first block.
func (a Array) Base() int { return a.base }

// Disk returns the underlying disk.
func (a Array) Disk() *Disk { return a.d }

// Read copies block i of the array into dst.
func (a Array) Read(i int, dst []Element) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("extmem: array read index %d out of range [0,%d)", i, a.n))
	}
	a.d.Read(a.base+i, dst)
}

// Write copies src into block i of the array.
func (a Array) Write(i int, src []Element) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("extmem: array write index %d out of range [0,%d)", i, a.n))
	}
	a.d.Write(a.base+i, src)
}

// ReadMany copies blocks is[i] of the array into dst[i*B:(i+1)*B] through
// the disk's vectored path.
func (a Array) ReadMany(is []int, dst []Element) {
	a.d.ReadMany(a.absAddrs(is), dst)
}

// WriteMany copies src[i*B:(i+1)*B] into blocks is[i] of the array through
// the disk's vectored path.
func (a Array) WriteMany(is []int, src []Element) {
	a.d.WriteMany(a.absAddrs(is), src)
}

// ReadRange reads the contiguous blocks [lo, hi) of the array into dst
// (len(dst) == (hi-lo)*B).
func (a Array) ReadRange(lo, hi int, dst []Element) {
	if lo < 0 || hi < lo || hi > a.n {
		panic(fmt.Sprintf("extmem: bad range read [%d,%d) of %d", lo, hi, a.n))
	}
	a.d.ReadRun(a.base+lo, hi-lo, dst)
}

// WriteRange writes src into the contiguous blocks [lo, hi) of the array.
func (a Array) WriteRange(lo, hi int, src []Element) {
	if lo < 0 || hi < lo || hi > a.n {
		panic(fmt.Sprintf("extmem: bad range write [%d,%d) of %d", lo, hi, a.n))
	}
	a.d.WriteRun(a.base+lo, hi-lo, src)
}

// absAddrs maps array-relative block indices to absolute disk addresses in
// the disk's scratch list.
func (a Array) absAddrs(is []int) []int {
	a.d.grow(len(is))
	as := a.d.addrs[:len(is)]
	for i, idx := range is {
		if idx < 0 || idx >= a.n {
			panic(fmt.Sprintf("extmem: array access index %d out of range [0,%d)", idx, a.n))
		}
		as[i] = a.base + idx
	}
	return as
}

// Slice returns the subarray [lo, hi).
func (a Array) Slice(lo, hi int) Array {
	if lo < 0 || hi < lo || hi > a.n {
		panic(fmt.Sprintf("extmem: bad slice [%d,%d) of %d", lo, hi, a.n))
	}
	return Array{d: a.d, base: a.base + lo, n: hi - lo}
}
