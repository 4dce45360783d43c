package extmem

import "fmt"

// SeqWriter streams sequentially produced blocks to an Array through a
// caller-provided cache buffer, flushing each full buffer as one vectored
// write on the calling goroutine. It exists for producer loops whose output
// positions advance one block at a time but whose natural structure
// (multi-phase emit logic, interleaved sources, several destinations) does
// not line up with the chunks of a write-only Scan.
//
// The buffer must be a positive multiple of the array's block size and must
// be checked out of the Cache by the caller (SeqWriter does no accounting of
// its own). Call Flush before freeing the buffer.
type SeqWriter struct {
	a    Array
	buf  []Element
	b    int
	next int // array index the first buffered block will be written to
	fill int // blocks currently buffered
}

// NewSeqWriter returns a writer that will write its first block at index
// start of a.
func NewSeqWriter(a Array, start int, buf []Element) *SeqWriter {
	b := a.B()
	if len(buf) == 0 || len(buf)%b != 0 {
		panic(fmt.Sprintf("extmem: SeqWriter buffer %d not a positive multiple of block size %d", len(buf), b))
	}
	return &SeqWriter{a: a, buf: buf, b: b, next: start}
}

// Next returns the slot for the next output block; the caller fills it with
// exactly B elements. A full buffer is flushed before the slot is handed
// out, so the returned slice is valid until the following Next or Flush.
func (w *SeqWriter) Next() []Element {
	if (w.fill+1)*w.b > len(w.buf) {
		w.Flush()
	}
	s := w.buf[w.fill*w.b : (w.fill+1)*w.b]
	w.fill++
	return s
}

// Pos returns the array index the next Next() slot will be written to.
func (w *SeqWriter) Pos() int { return w.next + w.fill }

// Retarget points the writer at a new destination: subsequent blocks go to
// index start of a. Buffered blocks must have been flushed first.
func (w *SeqWriter) Retarget(a Array, start int) {
	if w.fill != 0 {
		panic("extmem: SeqWriter retarget with unflushed blocks")
	}
	w.a = a
	w.next = start
}

// Flush writes the buffered blocks with one vectored call.
func (w *SeqWriter) Flush() {
	if w.fill == 0 {
		return
	}
	w.a.WriteRange(w.next, w.next+w.fill, w.buf[:w.fill*w.b])
	w.next += w.fill
	w.fill = 0
}
