package extmem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/trace"
)

// TestScan pins the one scan skeleton in each of its four modes at every
// length around a chunk boundary: the exact (kind, address) sequence — each
// chunk read whole, then written whole — one round trip a chunk on one
// side and one more on two, each chunk's write carrying the next chunk's
// read, what fn is shown and what lands on the disk, no allocation, and a cache
// with nothing checked out afterwards, whether fn returns or panics.
func TestScan(t *testing.T) {
	const b, k = 4, 3
	modes := []struct {
		name     string
		from, to bool // a source array, a destination array
		same     bool // the destination is the source
	}{
		{"read-only", true, false, false},
		{"in-place", true, true, true},
		{"copy", true, true, false},
		{"write-only", false, true, false},
	}
	for _, m := range modes {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3*k + 2} {
			t.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(t *testing.T) {
				env := NewEnv(64, b, 16*b, 1)
				a, other := env.D.Alloc(n), env.D.Alloc(n)
				data := mkElems(n*b, 5)
				if n > 0 {
					a.WriteRange(0, n, data)
				}
				var src, dst Array
				if m.from {
					src = a
				}
				if m.to {
					dst = other
					if m.same {
						dst = a
					}
				}
				rec := trace.NewRecorder(1 << 10)
				env.D.SetRecorder(rec)
				env.D.ResetStats()

				var want []trace.Op
				sides := 0
				for _, side := range []bool{m.from, m.to} {
					if side {
						sides++
					}
				}
				for lo := 0; lo < n; lo += k {
					for i := lo; m.from && i < min(lo+k, n); i++ {
						want = append(want, trace.Op{Kind: trace.Read, Addr: int64(src.Base() + i)})
					}
					for i := lo; m.to && i < min(lo+k, n); i++ {
						want = append(want, trace.Op{Kind: trace.Write, Addr: int64(dst.Base() + i)})
					}
				}

				next := 0
				env.Scan(src, dst, k, func(lo int, chunk []Element) {
					if lo != next || len(chunk) != (min(lo+k, n)-lo)*b {
						t.Fatalf("chunk at %d of %d elements, want %d of %d", lo, len(chunk), next, (min(next+k, n)-next)*b)
					}
					next += len(chunk) / b
					for i := range chunk {
						var shown Element
						if m.from {
							shown = data[lo*b+i]
						}
						if chunk[i] != shown {
							t.Fatalf("element %d of the chunk at %d is %+v, want %+v", i, lo, chunk[i], shown)
						}
						chunk[i].Val++
					}
				})
				if next != n {
					t.Fatalf("fn saw %d of %d blocks", next, n)
				}
				if got := rec.Ops(); !slices.Equal(got, want) {
					t.Fatalf("trace %v, want %v", got, want)
				}
				rt := int64(CeilDiv(n, k))
				if sides == 2 && n > 0 {
					rt++
				}
				if got := env.D.Stats().RoundTrips; got != rt {
					t.Fatalf("%d round trips, want %d", got, rt)
				}
				if used := env.Cache.Used(); used != 0 {
					t.Fatalf("%d elements still checked out", used)
				}
				if m.to && n > 0 {
					got := make([]Element, n*b)
					dst.ReadRange(0, n, got)
					for i, e := range got {
						w := Element{Val: 1}
						if m.from {
							w = data[i]
							w.Val++
						}
						if e != w {
							t.Fatalf("element %d landed as %+v, want %+v", i, e, w)
						}
					}
				}

				// fn does not escape, so a callback closing over its caller's
				// variables stays off the heap, and so does every chunk.
				env.D.SetRecorder(nil)
				elems := 0
				if allocs := testing.AllocsPerRun(10, func() {
					env.Scan(src, dst, k, func(_ int, chunk []Element) { elems += len(chunk) })
				}); allocs != 0 {
					t.Fatalf("%v allocs per scan, want 0", allocs)
				}

				// A panic in fn, mid-scan where there is a second chunk,
				// propagates and leaves the accountant balanced.
				if n == 0 {
					return
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("fn's panic did not propagate")
						}
					}()
					env.Scan(src, dst, k, func(lo int, _ []Element) {
						if lo > 0 || n <= k {
							panic("mid-scan failure")
						}
					})
				}()
				if used := env.Cache.Used(); used != 0 {
					t.Fatalf("%d elements still checked out after a panic in fn", used)
				}
			})
		}
	}
}

// TestScanShortSource pins the copy from a source shorter — or longer —
// than the destination: the scan runs the destination's length, reads what
// the source has of each chunk, and shows the rest as empty elements.
func TestScanShortSource(t *testing.T) {
	const b, k = 4, 3
	for _, n := range []int{0, 2, 4, 7, 9} { // source blocks; the destination has 7
		env := NewEnv(64, b, 16*b, 1)
		src, dst := env.D.Alloc(n), env.D.Alloc(7)
		data := mkElems(n*b, 6)
		if n > 0 {
			src.WriteRange(0, n, data)
		}
		dst.WriteRange(0, 7, mkElems(7*b, 7)) // stale contents the copy must replace
		env.D.ResetStats()
		env.Scan(src, dst, k, nil)
		if st := env.D.Stats(); st.Reads != int64(min(n, 7)) || st.Writes != 7 {
			t.Fatalf("source of %d: %d reads and %d writes, want %d and 7", n, st.Reads, st.Writes, min(n, 7))
		}
		got := make([]Element, 7*b)
		dst.ReadRange(0, 7, got)
		for i, e := range got {
			var w Element
			if i < n*b {
				w = data[i]
			}
			if e != w {
				t.Fatalf("source of %d: element %d landed as %+v, want %+v", n, i, e, w)
			}
		}
	}
}

// S3: in strict mode, a scan started against an overdrawn cache must panic
// up front with the overdraft spelled out, not hand out memory the
// accountant doesn't have.
func TestScanBatchStrictOverdrawPanics(t *testing.T) {
	env := &Env{D: NewDisk(NewMemStore(16, 4)), Cache: NewCache(32, true), M: 32}
	env.Cache.Acquire(30) // 2 elements free < one 4-element block
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("strict-mode ScanBatch on an overdrawn cache did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "overdrawn") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	env.ScanBatch(1)
}

// The non-strict counterpart: the documented one-block grace. The scan
// proceeds at scalar granularity and the overdraft lands in HighWater.
func TestScanBatchNonStrictGrace(t *testing.T) {
	env := &Env{D: NewDisk(NewMemStore(16, 4)), Cache: NewCache(32, false), M: 32}
	env.Cache.Acquire(30)
	if k := env.ScanBatch(1); k != 1 {
		t.Fatalf("overdrawn non-strict ScanBatch = %d, want the one-block grace", k)
	}
	// A healthy cache in strict mode stays panic-free.
	env2 := &Env{D: NewDisk(NewMemStore(16, 4)), Cache: NewCache(32, true), M: 32}
	if k := env2.ScanBatch(1); k < 1 {
		t.Fatalf("healthy strict ScanBatch = %d", k)
	}
}

// TestScanTracesPinned pins the per-block trace of each of Scan's four uses
// over n = 11 blocks in chunks of k = 3 (not a multiple), of an overlapping
// copy with dst two blocks below src, of a copy from a shorter source, and
// of scans whose fn reads and writes blocks of its own between the chunk's
// read and its write. The values are Scan's traces, not a model of them:
// regrouping the blocks into other interactions leaves every row as it is,
// and adding, dropping or reordering a single access breaks its row.
func TestScanTracesPinned(t *testing.T) {
	const b, k, n = 4, 3, 11
	type pin struct {
		len           int64
		hash          uint64
		reads, writes int64
	}
	for _, r := range []struct {
		name string
		run  func(env *Env, a, aux Array)
		want pin
	}{
		{"read-only", func(env *Env, a, _ Array) { env.Scan(a.Slice(0, n), Array{}, k, nil) }, pin{11, 0x0b4ec77195e930e0, 11, 0}},
		{"in-place", func(env *Env, a, _ Array) { env.Scan(a.Slice(0, n), a.Slice(0, n), k, nil) }, pin{22, 0x3ef628aa0d6a54b6, 11, 11}},
		{"copy", func(env *Env, a, aux Array) { env.Scan(a.Slice(0, n), aux.Slice(0, n), k, nil) }, pin{22, 0x6574d07f8548126e, 11, 11}},
		{"write-only", func(env *Env, a, _ Array) { env.Scan(Array{}, a.Slice(0, n), k, nil) }, pin{11, 0xd4a4cba464f836ad, 0, 11}},
		{"copy-overlapping-down", func(env *Env, a, _ Array) { env.Scan(a.Slice(2, n+2), a.Slice(0, n), k, nil) }, pin{22, 0xef95679451ca99a8, 11, 11}},
		{"copy-short-source", func(env *Env, a, aux Array) { env.Scan(a.Slice(0, 7), aux.Slice(0, n), k, nil) }, pin{18, 0x4c2c837d4fddb250, 7, 11}},
		{"in-place-fn-io", func(env *Env, a, aux Array) {
			blk := make([]Element, b)
			env.Scan(a.Slice(0, n), a.Slice(0, n), k, func(lo int, _ []Element) {
				aux.Read(lo, blk)
				aux.Write(n+lo, blk)
			})
		}, pin{30, 0x6a4dd6d4a87f9a42, 15, 15}},
		{"copy-fn-io", func(env *Env, a, aux Array) {
			blk := make([]Element, b)
			env.Scan(a.Slice(0, n), aux.Slice(0, n), k, func(lo int, _ []Element) { a.Read(n+lo%3, blk) })
		}, pin{26, 0x3e24c7b7e962ad7a, 15, 11}},
	} {
		env := NewEnv(64, b, 16*b, 1)
		a, aux := env.D.Alloc(2*n+2), env.D.Alloc(2*n+2)
		a.WriteRange(0, a.Len(), mkElems(a.Len()*b, 3))
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		env.D.ResetStats()
		r.run(env, a, aux)
		st := env.D.Stats()
		if got := (pin{rec.Len(), rec.Hash(), st.Reads, st.Writes}); got != r.want {
			t.Errorf("%s: trace len=%d hash=%#016x, %d reads, %d writes; pinned len=%d hash=%#016x, %d reads, %d writes",
				r.name, got.len, got.hash, got.reads, got.writes, r.want.len, r.want.hash, r.want.reads, r.want.writes)
		}
	}
}
