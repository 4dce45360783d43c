package extmem

import (
	"slices"
	"testing"

	"oblivext/internal/trace"
)

// refScan is Scan with every chunk's read and write sent on their own, as
// it ran before a write carried the next chunk's read: the reference
// FuzzScan checks Scan against.
func refScan(e *Env, src, dst Array, k int, fn func(lo int, chunk []Element)) {
	n := src.n
	if dst.d != nil {
		n = dst.n
	}
	b := e.B()
	buf := make([]Element, min(k, n)*b)
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		chunk := buf[:(hi-lo)*b]
		got := 0
		if rhi := min(hi, src.n); lo < rhi {
			got = (rhi - lo) * b
			src.ReadRange(lo, rhi, chunk[:got])
		}
		clear(chunk[got:])
		fn(lo, chunk)
		if dst.d != nil {
			dst.WriteRange(lo, hi, chunk)
		}
	}
}

// FuzzScan runs Scan and refScan side by side over the same store: a
// random length, chunk, block size, source and destination — read-only,
// in place, a copy between disjoint arrays, a copy down onto an
// overlapping destination at or below the source, write-only — a source
// shorter or longer than the destination, and an fn that reads and writes
// blocks of its own. Both must show fn the same chunks and leave the same
// trace and the same store; Scan must take ⌈n/k⌉+1 round trips where it
// reads and writes, ⌈n/k⌉ where it does one, beside fn's own.
func FuzzScan(f *testing.F) {
	f.Add(uint8(11), uint8(3), uint8(4), uint8(1), uint8(0), uint8(2), false)
	f.Add(uint8(11), uint8(3), uint8(4), uint8(4), uint8(7), uint8(2), true)
	f.Add(uint8(9), uint8(4), uint8(2), uint8(2), uint8(5), uint8(0), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, nIn, kIn, bIn, mode, srcIn, shift uint8, fnIO bool) {
		n, k, b := int(nIn%48), 1+int(kIn%12), 1+int(bIn%4)
		const pad = 64 // room for sources longer than n and shifted copies
		run := func(scan func(e *Env, src, dst Array, k int, fn func(int, []Element))) (ops []trace.Op, seen, disk []Element, rt int64, srcReads int) {
			e := NewEnv(4*pad, b, 64*b, 1)
			all := e.D.Alloc(3 * pad)
			all.WriteRange(0, all.Len(), mkElems(all.Len()*b, 9))
			a, aux := all.Slice(0, 2*pad), all.Slice(2*pad, 3*pad)
			var src, dst Array
			srcLen := int(srcIn) % (n + 8)
			switch mode % 5 {
			case 0: // read-only
				src = a.Slice(0, n)
			case 1: // in place
				src = a.Slice(0, n)
				dst = src
			case 2: // a copy between disjoint arrays, the source of any length
				src, dst = a.Slice(0, srcLen), a.Slice(pad, pad+n)
			case 3: // a copy down: dst at or below an overlapping src
				d := int(shift) % (n + 1)
				src, dst = a.Slice(d, d+min(srcLen, n)), a.Slice(0, n)
			default: // write-only
				dst = a.Slice(0, n)
			}
			rec := trace.NewRecorder(1 << 16)
			e.D.SetRecorder(rec)
			e.D.ResetStats()
			blk := make([]Element, b)
			fn := func(lo int, chunk []Element) {
				seen = append(seen, chunk...)
				for i := range chunk {
					chunk[i].Val = chunk[i].Val*3 + uint64(lo)
				}
				if fnIO {
					aux.Read(lo%aux.Len(), blk)
					blk[0].Key++
					aux.Write((lo+5)%aux.Len(), blk)
				}
			}
			scan(e, src, dst, k, fn)
			if used := e.Cache.Used(); used != 0 {
				t.Fatalf("%d elements left checked out", used)
			}
			rt = e.D.Stats().RoundTrips
			disk = make([]Element, all.Len()*b)
			e.D.SetRecorder(nil)
			all.ReadRange(0, all.Len(), disk)
			nn := src.n
			if dst.d != nil {
				nn = dst.n
			}
			return rec.Ops(), seen, disk, rt, min(src.n, nn)
		}
		gotOps, gotSeen, gotDisk, gotRT, reads := run((*Env).Scan)
		wantOps, wantSeen, wantDisk, refRT, _ := run(refScan)
		if !slices.Equal(gotOps, wantOps) {
			t.Fatalf("trace %v, the unpaired loop's %v", gotOps, wantOps)
		}
		if !slices.Equal(gotSeen, wantSeen) {
			t.Fatal("fn was shown other chunks than the unpaired loop's")
		}
		if !slices.Equal(gotDisk, wantDisk) {
			t.Fatal("the store differs from what the unpaired loop leaves")
		}
		want := refRT
		if m := mode % 5; (m == 1 || m == 2 || m == 3) && reads > 0 {
			// One write a chunk, the first chunk's read, and fn's own.
			chunks := int64(CeilDiv(n, k))
			want = chunks + 1
			if fnIO {
				want += 2 * chunks
			}
		}
		if gotRT != want {
			t.Fatalf("%d round trips, want %d (the unpaired loop's %d)", gotRT, want, refRT)
		}
	})
}
