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
	maxBatch int    // blocks per store interaction; 0 = unlimited, 1 = scalar
	addrs    []int  // scratch for building address lists (an exchange's writes)
	raddrs   []int  // an exchange's reads, as long as addrs
	idx      []int  // caller-filled block-index scratch, as long as addrs
	one      [1]int // address list of a one-block Read/Write
}

// NewDisk wraps a block store. The allocator starts at block 0.
func NewDisk(store BlockStore) *Disk {
	return &Disk{store: store, b: store.BlockSize()}
}

// B returns the block size in elements.
func (d *Disk) B() int { return d.b }

// SetMaxBatch caps how many blocks a single store interaction may move,
// both parts of an Exchange counted together: 0 (the default) leaves
// batches bounded only by the caller's cache budget, 1 degrades every call
// to one round trip per block — the scalar baseline. The per-block trace is
// identical for every setting; only the round-trip grouping changes.
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

// ReadMany copies blocks addrs[i] into dst[i*B:(i+1)*B]: an Exchange with
// nothing to write.
func (d *Disk) ReadMany(addrs []int, dst []Element) { d.Exchange(nil, nil, addrs, dst) }

// WriteMany copies src[i*B:(i+1)*B] into blocks addrs[i]: an Exchange with
// nothing to read.
func (d *Disk) WriteMany(addrs []int, src []Element) { d.Exchange(addrs, src, nil, nil) }

// Exchange writes src[i*B:(i+1)*B] into blocks wAddrs[i], then reads blocks
// rAddrs[j] into dst[j*B:(j+1)*B], in store interactions of at most
// MaxBatch blocks each, both parts counted: with no cap, one interaction
// for both. The recorded trace is the per-block sequence of WriteMany(wAddrs)
// then ReadMany(rAddrs) — batching changes what the server must be told per
// interaction, never what it learns — and Writes and Reads advance by the
// parts' lengths while RoundTrips advances by the number of store calls:
// one fewer than the two calls would make whenever both parts are non-empty
// and the cap leaves room. dst may alias src: every write is handed to the
// store before any read fills dst.
func (d *Disk) Exchange(wAddrs []int, src []Element, rAddrs []int, dst []Element) {
	if len(src) != len(wAddrs)*d.b || len(dst) != len(rAddrs)*d.b {
		panic(fmt.Sprintf("extmem: exchange buffers %d and %d != %d and %d blocks of %d",
			len(src), len(dst), len(wAddrs), len(rAddrs), d.b))
	}
	for w, r := 0, 0; w < len(wAddrs) || r < len(rAddrs); {
		nw := d.chunk(len(wAddrs) - w)
		nr := len(rAddrs) - r
		if d.maxBatch > 0 {
			nr = min(nr, d.maxBatch-nw)
		}
		wa, ra := wAddrs[w:w+nw], rAddrs[r:r+nr]
		if err := d.store.Transfer(context.Background(), wa, src[w*d.b:(w+nw)*d.b], ra, dst[r*d.b:(r+nr)*d.b]); err != nil {
			panic(fmt.Sprintf("extmem: transfer of %d writes and %d reads: %v", nw, nr, err))
		}
		d.stats.Writes += int64(nw)
		d.stats.Reads += int64(nr)
		d.stats.RoundTrips++
		for _, a := range wa {
			d.rec.Record(trace.Write, int64(a))
			d.obs.Access('W', int64(a))
		}
		for _, a := range ra {
			d.rec.Record(trace.Read, int64(a))
			d.obs.Access('R', int64(a))
		}
		w, r = w+nw, r+nr
	}
}

// grow sizes the address and index scratch for batches of n blocks. All
// three lists grow together, to a power of two of blocks, so a batch one
// block wider than the scans before it — a 512-block gather after 511-block
// scans — reuses what they grew, and a caller's index list is as long as
// any batch the Disk has moved.
func (d *Disk) grow(n int) {
	if cap(d.idx) < n {
		c := 1 << CeilLog2(n)
		as := make([]int, 2*c)
		d.addrs, d.raddrs, d.idx = as[:c:c], as[c:], make([]int, c)
	}
}

// ExchangeScratch returns the Disk's two address lists, n entries each, for
// a caller that builds an Exchange's absolute write and read addresses
// itself, as a gather pass does batch after batch without another list.
// They are the lists ReadRun, WriteRun and the Array methods build their
// addresses in, so they stay the caller's until its next call of one of
// those.
func (d *Disk) ExchangeScratch(n int) (w, r []int) {
	d.grow(n)
	return d.addrs[:n], d.raddrs[:n]
}

// Batch gathers one Exchange out of array blocks: the blocks to write, then
// the blocks to read, each named by its array and its index there and
// checked as Array.ReadMany checks it, on this Disk. It builds the absolute
// addresses in the Disk's two address lists (ExchangeScratch), so a pass
// that sends a write with the next read of other blocks needs no list of
// its own; they stay the Batch's until the Disk's next call that builds
// addresses.
type Batch struct {
	d    *Disk
	w, r []int
}

// Batch starts an exchange of at most n blocks each way.
func (d *Disk) Batch(n int) Batch {
	w, r := d.ExchangeScratch(n)
	return Batch{d, w[:0:n], r[:0:n]}
}

// Write adds blocks is of a to the blocks to write.
func (x *Batch) Write(a Array, is []int) { x.w = x.add(x.w, a, is, 0, 0) }

// Read adds blocks is of a to the blocks to read.
func (x *Batch) Read(a Array, is []int) { x.r = x.add(x.r, a, is, 0, 0) }

// WriteRange adds blocks [lo, hi) of a to the blocks to write.
func (x *Batch) WriteRange(a Array, lo, hi int) {
	if lo < 0 || hi < lo || hi > a.n {
		panic(fmt.Sprintf("extmem: bad range write [%d,%d) of %d", lo, hi, a.n))
	}
	x.w = x.add(x.w, a, nil, lo, hi)
}

// ReadRange adds blocks [lo, hi) of a to the blocks to read.
func (x *Batch) ReadRange(a Array, lo, hi int) {
	if lo < 0 || hi < lo || hi > a.n {
		panic(fmt.Sprintf("extmem: bad range read [%d,%d) of %d", lo, hi, a.n))
	}
	x.r = x.add(x.r, a, nil, lo, hi)
}

// add appends the addresses of blocks is of a, then of the run [lo, hi).
func (x *Batch) add(as []int, a Array, is []int, lo, hi int) []int {
	k := len(is) + hi - lo
	if k > 0 && a.d != x.d {
		panic("extmem: batch of blocks on different disks")
	}
	if len(as)+k > cap(as) {
		panic(fmt.Sprintf("extmem: batch over its %d blocks", cap(as)))
	}
	for _, i := range is {
		if i < 0 || i >= a.n {
			panic(fmt.Sprintf("extmem: array access index %d out of range [0,%d)", i, a.n))
		}
		as = append(as, a.base+i)
	}
	for i := lo; i < hi; i++ {
		as = append(as, a.base+i)
	}
	return as
}

// Do writes the leading blocks of src over the blocks to write, then reads
// the blocks to read into the leading blocks of dst, in one Exchange. dst
// may alias src.
func (x *Batch) Do(src, dst []Element) {
	b := x.d.b
	x.d.Exchange(x.w, src[:len(x.w)*b], x.r, dst[:len(x.r)*b])
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
	return fillRun(d.addrs[:n], base)
}

// fillRun sets as[i] = base+i and returns as.
func fillRun(as []int, base int) []int {
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

// Exchange writes src over every block of a, then reads every block of
// from, an array on the same disk, into dst: one Disk.Exchange, one round
// trip for both. Either array may be empty. dst may alias src.
func (a Array) Exchange(src []Element, from Array, dst []Element) {
	a.sameDisk(from)
	a.d.grow(max(a.n, from.n))
	a.d.Exchange(fillRun(a.d.addrs[:a.n], a.base), src, fillRun(a.d.raddrs[:from.n], from.base), dst)
}

// sameDisk panics unless from, when it holds blocks, is on a's disk.
func (a Array) sameDisk(from Array) {
	if from.n > 0 && from.d != a.d {
		panic("extmem: exchange between arrays on different disks")
	}
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
