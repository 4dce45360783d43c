package extmem

// Scan is the one way to stream an array: blocks [0, n) move through fn in
// order, a chunk of at most k blocks at a time, each chunk read from src
// with one vectored call, handed to fn in a private buffer, and written to
// the same positions of dst with one vectored call. Either side may be the
// zero Array, which makes the four uses the four combinations:
//
//	env.Scan(a, Array{}, k, fn)  read-only
//	env.Scan(a, a, k, fn)        in place (read, modify, write back)
//	env.Scan(src, dst, k, fn)    copy through fn
//	env.Scan(Array{}, a, k, fn)  write-only
//
// n is dst's length when there is a dst and src's otherwise. Whatever part
// of a chunk src does not cover reads as empty elements: all of it in a
// write-only scan, the tail of a copy from a shorter src. The chunk is read
// whole before it is written, so a copy may overlap as long as dst lies at
// or below src. A nil fn moves the blocks untouched.
//
// A two-sided scan sends each chunk's write and the next chunk's read in
// one interaction (Array.Exchange into the same buffer: the store takes the
// write first), so the per-block trace is the chunk-by-chunk one while the
// round trips are ⌈n/k⌉ on one side and ⌈n/k⌉+1 on two
// (TwoSidedScanRoundTrips), where src has a block to read. src and dst are
// then on one Disk.
//
// k is the caller's to choose — e.ScanBatchN(buffers, n) with its own
// count of the chunk buffers the pass holds at once, taken before any of
// them is checked out — because it fixes the pass's round trips. Scan
// checks the one k-block buffer out of the cache and returns it even when
// fn panics. fn runs on the calling goroutine and may issue I/O of its own;
// the trace is then the interleaving the code spells out: a chunk's read,
// fn's I/O, the chunk's write.
func (e *Env) Scan(src, dst Array, k int, fn func(lo int, chunk []Element)) {
	n := src.n
	if dst.d != nil {
		n = dst.n
	}
	if n == 0 {
		return
	}
	if k < 1 {
		panic("extmem: Scan needs a chunk of at least one block")
	}
	b := e.B()
	buf := e.Cache.Buf(min(k, n) * b)
	defer e.Cache.Free(buf)
	got := 0 // elements of the chunk src filled
	if rhi := min(k, n, src.n); rhi > 0 {
		got = rhi * b
		src.ReadRange(0, rhi, buf[:got])
	}
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		chunk := buf[:(hi-lo)*b]
		clear(chunk[got:])
		if fn != nil {
			fn(lo, chunk)
		}
		// The next chunk is [hi, hi+k); src has [hi, rhi) of it.
		rhi := min(hi+k, n, src.n)
		if dst.d != nil && hi < rhi {
			got = (rhi - hi) * b
			dst.Slice(lo, hi).Exchange(chunk, src.Slice(hi, rhi), buf[:got])
			continue
		}
		if dst.d != nil {
			dst.WriteRange(lo, hi, chunk)
		}
		got = 0
		if hi < rhi {
			got = (rhi - hi) * b
			src.ReadRange(hi, rhi, buf[:got])
		}
	}
}
