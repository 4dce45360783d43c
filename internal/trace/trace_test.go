package trace

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(2)
	r.Record(Read, 1)
	r.Record(Write, 2)
	r.Record(Read, 3)
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if got := len(r.Ops()); got != 2 {
		t.Fatalf("retained = %d, want cap 2", got)
	}
	if r.Ops()[0] != (Op{Read, 1}) {
		t.Fatalf("op0 = %v", r.Ops()[0])
	}
}

func TestNilAndDisabledRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Read, 1) // must not panic
	if r.Len() != 0 || r.Hash() != 0 || r.Enabled() {
		t.Fatal("nil recorder not inert")
	}
	var zero Recorder
	zero.Record(Write, 5)
	if zero.Len() != 0 {
		t.Fatal("zero-value recorder recorded without Enable")
	}
}

func TestSummaryEquality(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	seq := []Op{{Read, 10}, {Write, 20}, {Read, 10}, {Write, 99}}
	for _, op := range seq {
		a.Record(op.Kind, op.Addr)
		b.Record(op.Kind, op.Addr)
	}
	if !a.Summarize().Equal(b.Summarize()) {
		t.Fatal("identical traces produced different summaries")
	}
	b.Record(Read, 1)
	if a.Summarize().Equal(b.Summarize()) {
		t.Fatal("different-length traces compared equal")
	}
}

func TestSummaryDistinguishesOrder(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	a.Record(Read, 1)
	a.Record(Read, 2)
	b.Record(Read, 2)
	b.Record(Read, 1)
	if a.Summarize().Equal(b.Summarize()) {
		t.Fatal("reordered traces compared equal")
	}
}

func TestSummaryDistinguishesKind(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	a.Record(Read, 7)
	b.Record(Write, 7)
	if a.Summarize().Equal(b.Summarize()) {
		t.Fatal("read vs write at same address compared equal")
	}
}

func TestFirstDivergence(t *testing.T) {
	a, b := NewRecorder(10), NewRecorder(10)
	a.Record(Read, 1)
	a.Record(Read, 2)
	b.Record(Read, 1)
	b.Record(Read, 3)
	if got := FirstDivergence(a, b); got != 1 {
		t.Fatalf("divergence = %d, want 1", got)
	}
	c, d := NewRecorder(10), NewRecorder(10)
	c.Record(Write, 4)
	d.Record(Write, 4)
	if got := FirstDivergence(c, d); got != -1 {
		t.Fatalf("divergence of equal traces = %d, want -1", got)
	}
	d.Record(Read, 9)
	if got := FirstDivergence(c, d); got != 1 {
		t.Fatalf("divergence on prefix = %d, want 1", got)
	}
}

func TestOpString(t *testing.T) {
	if s := (Op{Read, 42}).String(); s != "R@42" {
		t.Fatalf("op string = %q", s)
	}
	if s := (Summary{Len: 3, Hash: 0xff}).String(); s == "" {
		t.Fatal("empty summary string")
	}
}

// The recorder's hash is FNV-1a over each access's kind byte and its
// address's eight little-endian bytes, the fold obs fingerprints share.
func TestHashIsFNV1a(t *testing.T) {
	r := NewRecorder(0)
	ref := fnv.New64a()
	for i, addr := range []int64{0, 7, -1, 1 << 40} {
		k := []Kind{Read, Write}[i%2]
		r.Record(k, addr)
		ref.Write(binary.LittleEndian.AppendUint64([]byte{byte(k)}, uint64(addr)))
	}
	if r.Hash() != ref.Sum64() {
		t.Fatalf("recorder hash %#x, FNV-1a %#x", r.Hash(), ref.Sum64())
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Record(Read, 9) }); allocs != 0 {
		t.Fatalf("Record allocates %.0f objects with no ops retained", allocs)
	}
}
