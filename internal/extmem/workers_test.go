package extmem

import (
	"slices"
	"strings"
	"testing"
)

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

// Parallel sealing/opening must be element-identical to the serial path,
// keep exact byte counters, and never repeat a nonce: the scratch is per
// worker and the seal and byte counters are atomic, so a vectored call
// fanned over any number of workers round-trips the same plaintext,
// accounts the same bytes and leaves n distinct (salt, counter) pairs in
// the child, exactly as the same call run serially.
func TestCryptStoreParallelMatchesSerial(t *testing.T) {
	const b, n = 4, 64
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	in := mkElems(n*b, 9)
	wire := int64(n * testEncryptor(t).WireSize(b*ElementBytes))

	for _, w := range []int{1, 2, 4, 8} {
		s := newCryptMem(t, n, b)
		s.SetWorkers(w)
		if err := s.WriteBlocks(bg, idx, in); err != nil {
			t.Fatal(err)
		}
		out := make([]Element, n*b)
		if err := s.ReadBlocks(bg, idx, out); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out, in) {
			t.Fatalf("workers=%d: round trip differs from the plaintext written", w)
		}
		if s.BytesSealed() != wire || s.BytesOpened() != wire {
			t.Fatalf("workers=%d: counters sealed=%d opened=%d, want %d each",
				w, s.BytesSealed(), s.BytesOpened(), wire)
		}
		nonces := map[string]bool{}
		for _, addr := range idx {
			nonces[string(childSlot(t, s.child, addr)[:saltSize+counterSize])] = true
		}
		if len(nonces) != n {
			t.Fatalf("workers=%d: %d distinct (salt, counter) pairs over %d seals", w, len(nonces), n)
		}
	}
}

// A tampered block must surface as an authentication error from the
// parallel path too, and reads of intact blocks keep succeeding.
func TestCryptStoreParallelTamperDetected(t *testing.T) {
	const b, n = 4, 16
	child := NewMemStore(n, CryptChildBlockSize(b))
	s, err := NewCryptStore(child, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(4)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if err := s.WriteBlocks(bg, idx, mkElems(n*b, 3)); err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext element of block 5 behind the decorator's back.
	tampered := make([]Element, CryptChildBlockSize(b))
	if err := child.ReadBlocks(bg, []int{5}, tampered); err != nil {
		t.Fatal(err)
	}
	tampered[1].Key ^= 1
	if err := child.WriteBlocks(bg, []int{5}, tampered); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, n*b)
	if err := s.ReadBlocks(bg, idx, out); err == nil {
		t.Fatal("vectored read of a tampered block succeeded")
	}
	intact := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if err := s.ReadBlocks(bg, intact, out[:len(intact)*b]); err != nil {
		t.Fatalf("intact blocks unreadable after tamper: %v", err)
	}
}
