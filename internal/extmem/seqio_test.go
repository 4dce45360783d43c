package extmem

import "testing"

// TestSeqWriterRetarget pins the deal-step usage: one writer retargeted
// across independent destination arrays, flushed between retargets.
func TestSeqWriterRetarget(t *testing.T) {
	const b, n, targets = 4, 6, 3
	d := NewDisk(NewMemStore(targets*n, b))
	arrs := make([]Array, targets)
	for c := range arrs {
		arrs[c] = d.Alloc(n)
	}
	w := NewSeqWriter(arrs[0], 0, make([]Element, 4*b))
	for c := 0; c < targets; c++ {
		w.Retarget(arrs[c], 0)
		for i := 0; i < n; i++ {
			if got := w.Pos(); got != i {
				t.Fatalf("target %d: Pos() = %d before block %d", c, got, i)
			}
			blk := w.Next()
			for t := range blk {
				blk[t] = Element{Key: uint64(c*1000 + i)}
			}
		}
		w.Flush()
		w.Flush() // idempotent
	}
	got := make([]Element, n*b)
	for c := 0; c < targets; c++ {
		arrs[c].ReadRange(0, n, got)
		for i := 0; i < n; i++ {
			if got[i*b].Key != uint64(c*1000+i) {
				t.Fatalf("target %d block %d holds key %d", c, i, got[i*b].Key)
			}
		}
	}
}

// TestSeqWriterRetargetUnflushedPanics pins the misuse guard.
func TestSeqWriterRetargetUnflushedPanics(t *testing.T) {
	d := NewDisk(NewMemStore(8, 4))
	a := d.Alloc(8)
	w := NewSeqWriter(a, 0, make([]Element, 4*4))
	w.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("Retarget with unflushed blocks did not panic")
		}
	}()
	w.Retarget(a, 4)
}
