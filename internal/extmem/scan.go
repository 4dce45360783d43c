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
// k is the caller's to choose — e.ScanBatchN(buffers, n) with its own
// count of the chunk buffers the pass holds at once, taken before any of
// them is checked out — because it fixes the pass's round trips: ⌈n/k⌉ per
// side. Scan checks the one k-block buffer out of the cache and returns it
// even when fn panics. fn runs on the calling goroutine and may issue I/O
// of its own; the trace is then the interleaving the code spells out.
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
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		chunk := buf[:(hi-lo)*b]
		got := 0
		if rhi := min(hi, src.n); lo < rhi { // never, of the zero Array
			got = (rhi - lo) * b
			src.ReadRange(lo, rhi, chunk[:got])
		}
		clear(chunk[got:])
		if fn != nil {
			fn(lo, chunk)
		}
		if dst.d != nil {
			dst.WriteRange(lo, hi, chunk)
		}
	}
}
