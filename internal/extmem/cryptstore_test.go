package extmem

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

func testEncryptor(t testing.TB) *Encryptor {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	enc, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func newCryptMem(t testing.TB, nBlocks, b int) *CryptStore {
	t.Helper()
	s, err := NewCryptStore(NewMemStore(nBlocks, CryptChildBlockSize(b)), testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// childSlot reads block addr of a CryptStore's child as raw bytes.
func childSlot(t *testing.T, child BlockStore, addr int) []byte {
	t.Helper()
	raw := make([]Element, child.BlockSize())
	if err := ReadBlocksCtx(bg, child, []int{addr}, raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(raw)*ElementBytes)
	EncodeElements(buf, raw)
	return buf
}

// setChildSlot overwrites block addr of a CryptStore's child with raw bytes.
func setChildSlot(t *testing.T, child BlockStore, addr int, buf []byte) {
	t.Helper()
	raw := make([]Element, child.BlockSize())
	DecodeElements(raw, buf)
	if err := WriteBlocksCtx(bg, child, []int{addr}, raw); err != nil {
		t.Fatal(err)
	}
}

func TestCryptStoreGeometry(t *testing.T) {
	s := newCryptMem(t, 10, 4)
	if s.BlockSize() != 4 || s.NumBlocks() != 10 {
		t.Fatalf("geometry B=%d n=%d, want 4 and 10", s.BlockSize(), s.NumBlocks())
	}
	// A child of the wrong block size is refused.
	if _, err := NewCryptStore(NewMemStore(10, 4), testEncryptor(t), 4); err == nil {
		t.Fatal("plaintext-sized child accepted")
	}
	if _, err := NewCryptStore(NewMemStore(10, CryptChildBlockSize(4)), nil, 4); err == nil {
		t.Fatal("nil encryptor accepted")
	}
}

func TestCryptStoreRoundTripAndZeroConvention(t *testing.T) { cryptRoundTrip(t) }

func cryptRoundTrip(t *testing.T) {
	const b = 4
	s := newCryptMem(t, 8, b)
	in := mkElems(3*b, 5)
	if err := WriteBlocksCtx(bg, s, []int{1, 4, 6}, in); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, 3*b)
	if err := ReadBlocksCtx(bg, s, []int{6, 1, 4}, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b; i++ {
		if out[i] != in[2*b+i] || out[b+i] != in[i] || out[2*b+i] != in[b+i] {
			t.Fatalf("vectored round trip mismatch at %d", i)
		}
	}
	// Never-written blocks read back zeroed, not as an authentication
	// failure.
	zero := make([]Element, b)
	if err := ReadBlocksCtx(bg, s, []int{0}, zero); err != nil {
		t.Fatalf("never-written block: %v", err)
	}
	for i, e := range zero {
		if e != (Element{}) {
			t.Fatalf("never-written block element %d = %+v", i, e)
		}
	}
	// Same after growth.
	if err := s.GrowTo(16); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlocksCtx(bg, s, []int{15}, zero); err != nil {
		t.Fatalf("grown block: %v", err)
	}
}

// TestCryptStoreChildSeesOnlyCiphertext pins the decorator's reason to
// exist: the child store never holds a recognizable plaintext encoding, and
// rewriting identical plaintext yields different child bytes (fresh nonces).
func TestCryptStoreChildSeesOnlyCiphertext(t *testing.T) {
	const b = 4
	child := NewMemStore(4, CryptChildBlockSize(b))
	s, err := NewCryptStore(child, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := []Element{{Key: 0xfeedfacecafebeef, Val: 0x0123456789abcdef, Pos: 42, Flags: FlagOccupied},
		{Key: 1}, {Key: 2}, {Key: 3}}
	if err := WriteBlocksCtx(bg, s, []int{2}, sentinel); err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, b*ElementBytes)
	EncodeElements(plain, sentinel)
	w1 := childSlot(t, child, 2)
	if bytes.Contains(w1, plain[:ElementBytes]) {
		t.Fatal("child store contains the plaintext element encoding")
	}
	if err := WriteBlocksCtx(bg, s, []int{2}, sentinel); err != nil {
		t.Fatal(err)
	}
	if w2 := childSlot(t, child, 2); bytes.Equal(w1, w2) {
		t.Fatal("rewriting identical plaintext produced identical child bytes (nonce reuse)")
	}
}

// TestCryptStoreTamperDetection flips every bit of a written child slot in
// turn — salt, counter, ciphertext, tag and the zero pad — and requires
// each read to fail loudly, not return garbage, and to leave the caller's
// block zeroed: no decrypted byte of a forged block reaches it, not even
// when the forgery is in the pad, outside the AEAD.
func TestCryptStoreTamperDetection(t *testing.T) { cryptTamperTable(t) }

func cryptTamperTable(t *testing.T) {
	const b = 4
	child := NewMemStore(4, CryptChildBlockSize(b))
	s, err := NewCryptStore(child, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	in := mkElems(b, 7)
	if err := WriteBlocksCtx(bg, s, []int{1}, in); err != nil {
		t.Fatal(err)
	}
	wire := s.enc.WireSize(b * ElementBytes)
	regions := []struct {
		name string
		end  int
	}{
		{"salt", saltSize},
		{"counter", saltSize + counterSize},
		{"ciphertext", wire - tagSize},
		{"tag", wire},
		{"pad", CryptChildBlockSize(b) * ElementBytes},
	}
	honest := childSlot(t, child, 1)
	if len(honest) != regions[len(regions)-1].end || wire == len(honest) {
		t.Fatalf("slot is %d bytes, sealed image %d: the table needs a pad to cover", len(honest), wire)
	}
	out := make([]Element, b)
	region := 0
	for off := range honest {
		if off == regions[region].end {
			region++
		}
		for bit := 0; bit < 8; bit++ {
			forged := bytes.Clone(honest)
			forged[off] ^= 1 << bit
			setChildSlot(t, child, 1, forged)
			for i := range out {
				out[i] = Element{Key: 0x5e, Val: 0x5e, Pos: 0x5e, Flags: 0x5e}
			}
			err := ReadBlocksCtx(bg, s, []int{1}, out)
			if err == nil || !strings.Contains(err.Error(), "authentication failed") {
				t.Fatalf("%s byte %d bit %d flipped: read returned %v, want authentication failed",
					regions[region].name, off, bit, err)
			}
			if slices.ContainsFunc(out, func(e Element) bool { return e != Element{} }) {
				t.Fatalf("%s byte %d bit %d flipped: failed read left %+v in the caller's block, want it zeroed",
					regions[region].name, off, bit, out)
			}
		}
	}
	// Corruption is contained (per-block envelopes): the rest of the store
	// still serves, and so does the slot once the honest image is back.
	if err := ReadBlocksCtx(bg, s, []int{0}, out); err != nil {
		t.Fatalf("unrelated block after tamper: %v", err)
	}
	setChildSlot(t, child, 1, honest)
	if err := ReadBlocksCtx(bg, s, []int{1}, out); err != nil || !slices.Equal(out, in) {
		t.Fatalf("honest image restored: err %v, got %+v", err, out)
	}
}

// TestPortableArm runs the codec's field-by-field arm — the one a
// big-endian host takes, and the one that stages sealed blocks in the
// store's scratch — on whatever host the tests run: the CryptStore round
// trip and tamper table, the FileStore round trip, and blocks written under
// one arm read back under the other, sealed and plain. It flips a package
// variable, so it must not run in parallel.
func TestPortableArm(t *testing.T) {
	defer func(le bool) { hostLE = le }(hostLE)
	hostLE = false
	t.Run("CryptRoundTrip", cryptRoundTrip)
	t.Run("CryptTamperTable", cryptTamperTable)
	t.Run("FileStoreRoundTrip", fileStoreRoundTrip)

	const b = 4
	sealed := newCryptMem(t, 4, b)
	file, err := NewFileStore(filepath.Join(t.TempDir(), "blocks"), 4, b)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, arm := range []struct {
		name        string
		write, read bool // hostLE when writing, when reading
	}{{"portable to native", false, true}, {"native to portable", true, false}} {
		for _, s := range []BlockStore{sealed, file} {
			in, out := mkElems(2*b, 9), make([]Element, 2*b)
			hostLE = arm.write
			err := WriteBlocksCtx(bg, s, []int{3, 1}, in)
			hostLE = arm.read
			if err == nil {
				err = ReadBlocksCtx(bg, s, []int{3, 1}, out)
			}
			if err != nil || !slices.Equal(out, in) {
				t.Fatalf("%T, %s: err %v, read %+v, wrote %+v", s, arm.name, err, out, in)
			}
		}
	}
}

// TestCryptStoreZeroAllocs pins the sealed path's allocation budget: a warm
// read-only, write-only or two-part Transfer allocates nothing, whatever
// the batch.
func TestCryptStoreZeroAllocs(t *testing.T) {
	const b, n = 8, 128
	s := newCryptMem(t, n, b)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	buf := mkElems(n*b, 4)
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"write", func() error { return WriteBlocksCtx(bg, s, idx, buf) }},
		{"read", func() error { return ReadBlocksCtx(bg, s, idx, buf) }},
		{"write and read", func() error { return s.Transfer(bg, idx, buf, idx, buf) }},
	} {
		call := func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm: sizes the staging buffer
		if a := testing.AllocsPerRun(10, call); a != 0 {
			t.Errorf("%s of %d blocks: %v allocs, want 0", c.name, n, a)
		}
	}
}

// TestCryptStorePairedTransferFitsOneSidedWarmth pins the staging's halves:
// once a write-only transfer of k blocks has sized it — an upload ahead of
// the scans that follow — a transfer that writes k blocks and reads k more,
// a paired scan's, allocates nothing, at k on either side of a power of two.
// A staging sized by the two parts' sum would grow inside that call.
func TestCryptStorePairedTransferFitsOneSidedWarmth(t *testing.T) {
	const b = 8
	for _, k := range []int{1, 3, 255, 256, 511} {
		w, r := make([]int, k), make([]int, k)
		for i := range w {
			w[i], r[i] = i, k+i
		}
		src, dst := mkElems(k*b, 4), make([]Element, k*b)
		// The first paired call of a store is the one measured, so each
		// trial takes a fresh one: AllocsPerRun would warm it up first. The
		// fewest of a few trials is taken, so that what the runtime or a
		// collection allocates beside the call does not count.
		least := uint64(1 << 62)
		for range 5 {
			s := newCryptMem(t, 2*k, b)
			// Two k-block writes: the child's blocks are all written before
			// the call measured.
			for _, addrs := range [][]int{r, w} {
				if err := WriteBlocksCtx(bg, s, addrs, src); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := s.Transfer(bg, w, src, r, dst)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least != 0 {
			t.Errorf("k=%d: %d allocs for k writes and k reads after a k-block write, want 0", k, least)
		}
	}
}

// TestCryptStoreRelocationDetected pins the address binding: a server that
// transposes two validly sealed blocks must trigger an authentication
// failure, not serve silently relocated data.
func TestCryptStoreRelocationDetected(t *testing.T) {
	const b = 4
	child := NewMemStore(8, CryptChildBlockSize(b))
	s, err := NewCryptStore(child, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocksCtx(bg, s, []int{2, 5}, mkElems(2*b, 3)); err != nil {
		t.Fatal(err)
	}
	// Bob swaps the sealed images of blocks 2 and 5.
	cb := CryptChildBlockSize(b)
	b2, b5 := make([]Element, cb), make([]Element, cb)
	if err := ReadBlocksCtx(bg, child, []int{2}, b2); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlocksCtx(bg, child, []int{5}, b5); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocksCtx(bg, child, []int{2}, b5); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocksCtx(bg, child, []int{5}, b2); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, b)
	if err := ReadBlocksCtx(bg, s, []int{2}, out); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("relocated block served: %v", err)
	}
}

// TestCryptStoreTraceAndRoundTripNeutral pins that the decorator is
// invisible to the adversary's view: the same Disk workload produces a
// bit-identical per-block trace and identical round-trip counts with and
// without encryption.
func TestCryptStoreTraceAndRoundTripNeutral(t *testing.T) {
	const b = 4
	workload := func(store BlockStore) (trace.Summary, obs.Counters) {
		d := NewDisk(store)
		rec := trace.NewRecorder(0)
		d.SetRecorder(rec)
		buf := make([]Element, 3*b)
		d.WriteMany([]int{2, 5, 7}, mkElems(3*b, 1))
		d.ReadMany([]int{7, 2, 5}, buf)
		d.Write(3, buf[:b])
		d.Read(3, buf[:b])
		d.ReadRun(2, 3, buf)
		return rec.Summarize(), d.Stats()
	}
	plainSum, plainStats := workload(NewMemStore(16, b))
	cryptSum, cryptStats := workload(newCryptMem(t, 16, b))
	if !plainSum.Equal(cryptSum) {
		t.Fatalf("encryption changed the trace: %+v vs %+v", plainSum, cryptSum)
	}
	// The crypto byte counters are the one legitimate difference: Stats
	// folds them in from the sealing store, and only the encrypted run has
	// any. Everything else must be identical.
	if cryptStats.BytesSealed == 0 || cryptStats.BytesOpened == 0 {
		t.Fatalf("encrypted run reported no crypto bytes: %+v", cryptStats)
	}
	cryptStats.BytesSealed, cryptStats.BytesOpened = 0, 0
	if plainStats != cryptStats {
		t.Fatalf("encryption changed the I/O accounting: %+v vs %+v", plainStats, cryptStats)
	}
}

func TestCryptStoreByteCounters(t *testing.T) {
	const b = 4
	s := newCryptMem(t, 8, b)
	wire := int64(testEncryptor(t).WireSize(b * ElementBytes))
	if err := WriteBlocksCtx(bg, s, []int{0, 1, 2}, mkElems(3*b, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.BytesSealed(); got != 3*wire {
		t.Fatalf("BytesSealed = %d, want %d", got, 3*wire)
	}
	buf := make([]Element, 2*b)
	if err := ReadBlocksCtx(bg, s, []int{1, 2}, buf); err != nil {
		t.Fatal(err)
	}
	// A never-written block costs no crypto.
	if err := ReadBlocksCtx(bg, s, []int{7}, buf[:b]); err != nil {
		t.Fatal(err)
	}
	if got := s.BytesOpened(); got != 2*wire {
		t.Fatalf("BytesOpened = %d, want %d", got, 2*wire)
	}
	s.ResetCryptStats()
	if s.BytesSealed() != 0 || s.BytesOpened() != 0 {
		t.Fatal("ResetCryptStats left counters non-zero")
	}
}

// TestCryptStoreBatchTamperDetected seals a batch in one vectored call —
// one distinct (salt, counter) pair per block — then tampers with one block
// of it: reading the batch fails with an authentication error, and reading
// the intact blocks keeps succeeding.
func TestCryptStoreBatchTamperDetected(t *testing.T) {
	const b, n = 4, 16
	child := NewMemStore(n, CryptChildBlockSize(b))
	s, err := NewCryptStore(child, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if err := WriteBlocksCtx(bg, s, idx, mkElems(n*b, 3)); err != nil {
		t.Fatal(err)
	}
	nonces := map[string]bool{}
	for _, addr := range idx {
		nonces[string(childSlot(t, child, addr)[:saltSize+counterSize])] = true
	}
	if len(nonces) != n {
		t.Fatalf("%d distinct (salt, counter) pairs over %d seals", len(nonces), n)
	}
	// Flip a ciphertext element of block 5 behind the decorator's back.
	tampered := make([]Element, CryptChildBlockSize(b))
	if err := ReadBlocksCtx(bg, child, []int{5}, tampered); err != nil {
		t.Fatal(err)
	}
	tampered[1].Key ^= 1
	if err := WriteBlocksCtx(bg, child, []int{5}, tampered); err != nil {
		t.Fatal(err)
	}
	out := make([]Element, n*b)
	if err := ReadBlocksCtx(bg, s, idx, out); err == nil {
		t.Fatal("vectored read of a tampered block succeeded")
	}
	intact := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if err := ReadBlocksCtx(bg, s, intact, out[:len(intact)*b]); err != nil {
		t.Fatalf("intact blocks unreadable after tamper: %v", err)
	}
}

// TestWiderBatchReusesScratch pins the growth rule of the sealed file path's
// per-batch scratch — the Disk's address and index lists, the CryptStore's
// staging and the FileStore's wire buffer — at a power of two of blocks: a
// 512-block batch, a cache-wide bitonic gather at B = 8, M = 4096, after the
// 511-block batches a scan of that cache makes, allocates nothing.
func TestWiderBatchReusesScratch(t *testing.T) {
	const b = 8
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "blocks"), 1024, CryptChildBlockSize(b))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs, err := NewCryptStore(fs, testEncryptor(t), b)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisk(cs)
	buf := mkElems(512*b, 5)
	d.WriteRun(0, 511, buf[:511*b])
	d.ReadRun(0, 511, buf[:511*b])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := d.IndexScratch(512)
	for i := range idx {
		idx[i] = 2 * i
	}
	d.WriteMany(idx, buf)
	d.ReadMany(idx, buf)
	d.WriteRun(512, 512, buf)
	d.ReadRun(512, 512, buf)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("512-block batches after 511-block ones: %d allocations, want 0", n)
	}
}
