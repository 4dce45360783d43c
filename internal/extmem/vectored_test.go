package extmem

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"oblivext/internal/trace"
)

func mkElems(n int, tag uint64) []Element {
	out := make([]Element, n)
	for i := range out {
		out[i] = Element{Key: tag*1000 + uint64(i), Val: uint64(i) * 7, Pos: uint64(i), Flags: FlagOccupied}
	}
	return out
}

func TestMemStoreVectored(t *testing.T) {
	s := NewMemStore(16, 4)
	data := mkElems(3*4, 1)

	// Contiguous write + scattered read.
	if err := WriteBlocksCtx(bg, s, []int{5, 6, 7}, data); err != nil {
		t.Fatal(err)
	}
	got := make([]Element, 3*4)
	if err := ReadBlocksCtx(bg, s, []int{7, 5, 6}, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got[i] != data[8+i] || got[4+i] != data[i] || got[8+i] != data[4+i] {
			t.Fatalf("scattered read mismatch at %d", i)
		}
	}

	// Duplicate addresses on read are allowed.
	if err := ReadBlocksCtx(bg, s, []int{5, 5}, got[:8]); err != nil {
		t.Fatal(err)
	}
	if got[0] != data[0] || got[4] != data[0] {
		t.Fatal("duplicate-address read mismatch")
	}

	// Geometry violations error out.
	if err := ReadBlocksCtx(bg, s, []int{0}, make([]Element, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := WriteBlocksCtx(bg, s, []int{16}, make([]Element, 4)); err == nil {
		t.Error("out-of-range address accepted")
	}
}

// TestFileStoreVectoredEncrypted round-trips a dataset through a CryptStore
// over a file store with write-only and read-only Transfers and verifies both the
// contents and the fresh-nonce re-encryption of every block in the file.
func TestFileStoreVectoredEncrypted(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	enc, err := NewEncryptor(key)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "enc.dat")
	const nBlocks, b = 12, 8
	fs, err := NewFileStore(path, nBlocks, CryptChildBlockSize(b))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCryptStore(fs, enc, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	data := mkElems(6*b, 9)
	addrs := []int{2, 3, 4, 5, 6, 7}
	if err := WriteBlocksCtx(bg, s, addrs, data); err != nil {
		t.Fatal(err)
	}

	// Contents round-trip, contiguous and scattered.
	got := make([]Element, 6*b)
	if err := ReadBlocksCtx(bg, s, addrs, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("contiguous vectored round-trip mismatch at element %d", i)
		}
	}
	scattered := []int{7, 2, 5}
	sg := make([]Element, 3*b)
	if err := ReadBlocksCtx(bg, s, scattered, sg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b; i++ {
		if sg[i] != data[5*b+i] || sg[b+i] != data[i] || sg[2*b+i] != data[3*b+i] {
			t.Fatalf("scattered vectored round-trip mismatch at %d", i)
		}
	}

	// Fresh-nonce re-encryption per block: rewriting identical plaintext must
	// change every block's wire bytes (semantic security — Bob cannot tell
	// a rewrite from new data).
	slot := CryptChildBlockSize(b) * ElementBytes
	wireOf := func(addr int) []byte {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), raw[addr*slot:(addr+1)*slot]...)
	}
	before := make(map[int][]byte)
	for _, a := range addrs {
		before[a] = wireOf(a)
	}
	if err := WriteBlocksCtx(bg, s, addrs, data); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if bytes.Equal(before[a], wireOf(a)) {
			t.Fatalf("block %d re-encrypted with identical wire bytes (nonce reuse)", a)
		}
	}
	// And the rewritten store still decrypts to the same contents.
	if err := ReadBlocksCtx(bg, s, addrs, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("post-rewrite mismatch at element %d", i)
		}
	}
}

// TestDiskVectoredTraceAndStats checks the core refactor contract: ReadMany
// and WriteMany record the identical per-block trace the scalar loop would,
// count one read/write per block, and one round trip per store call under
// the configured batch cap.
func TestDiskVectoredTraceAndStats(t *testing.T) {
	scalar := func() *trace.Recorder {
		d := NewDisk(NewMemStore(16, 4))
		arr := d.Alloc(16)
		rec := trace.NewRecorder(64)
		d.SetRecorder(rec)
		buf := make([]Element, 4)
		for _, a := range []int{3, 1, 4, 1, 5} {
			arr.Read(a, buf)
		}
		for _, a := range []int{2, 6} {
			arr.Write(a, buf)
		}
		return rec
	}()

	for _, maxBatch := range []int{0, 1, 2, 3} {
		d := NewDisk(NewMemStore(16, 4))
		d.SetMaxBatch(maxBatch)
		rec := trace.NewRecorder(64)
		d.SetRecorder(rec)
		buf := make([]Element, 5*4)
		d.ReadMany([]int{3, 1, 4, 1, 5}, buf)
		d.WriteMany([]int{2, 6}, buf[:8])
		if trace.FirstDivergence(scalar, rec) != -1 || rec.Len() != scalar.Len() {
			t.Fatalf("maxBatch=%d: vectored trace diverges from scalar", maxBatch)
		}
		st := d.Stats()
		if st.Reads != 5 || st.Writes != 2 {
			t.Fatalf("maxBatch=%d: stats %+v", maxBatch, st)
		}
		wantTrips := int64(2) // one per vectored call
		if maxBatch == 1 {
			wantTrips = 7
		} else if maxBatch == 2 {
			wantTrips = 4 // ceil(5/2) + ceil(2/2)
		} else if maxBatch == 3 {
			wantTrips = 3 // ceil(5/3) + ceil(2/3)
		}
		if st.RoundTrips != wantTrips {
			t.Fatalf("maxBatch=%d: %d round trips, want %d", maxBatch, st.RoundTrips, wantTrips)
		}
	}
}

func TestSeqWriter(t *testing.T) {
	env := NewEnv(16, 4, 32, 1)
	arr := env.D.Alloc(10)
	buf := env.Cache.Buf(3 * 4) // 3-block buffer forces mid-stream flushes
	w := NewSeqWriter(arr, 2, buf)
	for i := 0; i < 7; i++ {
		blk := w.Next()
		for t := range blk {
			blk[t] = Element{Key: uint64(100 + i), Flags: FlagOccupied}
		}
	}
	w.Flush()
	env.Cache.Free(buf)
	got := make([]Element, 4)
	for i := 0; i < 7; i++ {
		arr.Read(2+i, got)
		if got[0].Key != uint64(100+i) {
			t.Fatalf("block %d holds key %d", 2+i, got[0].Key)
		}
	}
}
