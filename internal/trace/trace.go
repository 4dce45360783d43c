// Package trace records the sequence of block addresses an algorithm
// presents to the storage server, which is exactly the adversary's view in
// the paper's model (§1): Bob sees the sequence and location of all of
// Alice's disk accesses but not their contents.
//
// The obliviousness tests fix the random tape, vary the input data, and
// assert the traces are identical; Recorder keeps a running 64-bit hash so
// that holds even for traces far too long to store.
package trace

import "fmt"

// Kind distinguishes read accesses from write accesses in the trace.
type Kind byte

const (
	// Read is a block read access.
	Read Kind = 'R'
	// Write is a block write access.
	Write Kind = 'W'
)

// Op is a single access in the adversary's view: an operation kind and a
// block address.
type Op struct {
	Kind Kind
	Addr int64
}

// String renders the op as e.g. "R@42".
func (o Op) String() string { return fmt.Sprintf("%c@%d", o.Kind, o.Addr) }

// FNVOffset is the FNV-1a offset basis: the hash of an empty trace.
const FNVOffset = 14695981039346656037

const fnvPrime = 1099511628211

// FoldKind folds an access's kind alone into the running FNV-1a hash h.
func FoldKind(h uint64, k Kind) uint64 { return (h ^ uint64(k)) * fnvPrime }

// Fold folds one access into the running FNV-1a hash h: its kind, then its
// address's eight bytes, least significant first.
func Fold(h uint64, k Kind, addr int64) uint64 {
	h = FoldKind(h, k)
	x := uint64(addr)
	for range 8 {
		h = (h ^ x&0xff) * fnvPrime
		x >>= 8
	}
	return h
}

// Recorder accumulates an access trace. The zero value records nothing and
// is safe to use; call Enable (optionally with a retention cap) to start
// recording. A running FNV-1a hash summarises arbitrarily long traces.
type Recorder struct {
	enabled bool
	hash    uint64
	n       int64
	keep    int // how many ops to retain verbatim; 0 = none
	ops     []Op
}

// NewRecorder returns an enabled recorder that retains up to keep ops
// verbatim (keep <= 0 retains none; the hash and count are always kept).
func NewRecorder(keep int) *Recorder {
	r := &Recorder{}
	r.Enable(keep)
	return r
}

// Enable starts recording, retaining up to keep ops verbatim.
func (r *Recorder) Enable(keep int) {
	r.enabled = true
	r.hash = FNVOffset
	r.n = 0
	r.keep = keep
	r.ops = nil
}

// Enabled reports whether the recorder is accumulating accesses.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Record appends one access to the trace.
func (r *Recorder) Record(k Kind, addr int64) {
	if r == nil || !r.enabled {
		return
	}
	r.hash = Fold(r.hash, k, addr)
	r.n++
	if len(r.ops) < r.keep {
		r.ops = append(r.ops, Op{k, addr})
	}
}

// Len returns the number of accesses recorded.
func (r *Recorder) Len() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Hash returns the running hash of the full trace.
func (r *Recorder) Hash() uint64 {
	if r == nil {
		return 0
	}
	return r.hash
}

// Ops returns the retained prefix of the trace.
func (r *Recorder) Ops() []Op {
	if r == nil {
		return nil
	}
	return r.ops
}

// Summary is a compact fingerprint of a trace: its length and hash. Two
// traces are (with overwhelming probability) identical iff their Summaries
// are equal, which is the property the obliviousness tests check.
type Summary struct {
	Len  int64
	Hash uint64
}

// Summarize returns the recorder's fingerprint.
func (r *Recorder) Summarize() Summary { return Summary{Len: r.Len(), Hash: r.Hash()} }

// Equal reports whether two fingerprints match.
func (s Summary) Equal(o Summary) bool { return s.Len == o.Len && s.Hash == o.Hash }

// String renders the fingerprint.
func (s Summary) String() string { return fmt.Sprintf("len=%d hash=%016x", s.Len, s.Hash) }

// FirstDivergence returns the index of the first differing retained op
// between two recorders, or -1 if their retained prefixes agree. It is a
// debugging aid for failed obliviousness tests.
func FirstDivergence(a, b *Recorder) int {
	ao, bo := a.Ops(), b.Ops()
	n := len(ao)
	if len(bo) < n {
		n = len(bo)
	}
	for i := 0; i < n; i++ {
		if ao[i] != bo[i] {
			return i
		}
	}
	if len(ao) != len(bo) {
		return n
	}
	return -1
}
