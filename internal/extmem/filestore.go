package extmem

import (
	"context"
	"fmt"
	"os"
)

// FileStore is a BlockStore backed by a real file, exercising the library on
// an actual secondary-storage device. Each block occupies a fixed slot of
// BlockSize()*ElementBytes bytes. The store holds whatever bytes it is
// handed: encryption is not its concern — wrap it in a CryptStore to make
// the file hold ciphertext only.
type FileStore struct {
	f     *os.File
	b     int
	n     int
	slot  int
	vwire []byte // scratch for transfers, grown on demand
	calls int    // ReadAt/WriteAt calls issued, for the run-splitting test
}

// NewFileStore creates (truncating) a file-backed store of n blocks of b
// elements at path. Blocks start zeroed.
func NewFileStore(path string, n, b int) (*FileStore, error) {
	if n < 0 || b <= 0 {
		return nil, fmt.Errorf("extmem: invalid FileStore geometry n=%d b=%d", n, b)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	slot := b * ElementBytes
	s := &FileStore{f: f, b: b, n: n, slot: slot}
	// Truncate pre-sizes the file; the holes read back as zero bytes, which
	// decode to zeroed elements.
	if err := f.Truncate(int64(n) * int64(slot)); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// ReadBlocks implements BlockStore. The address list is split, in the order
// given, into maximal runs of consecutive addresses, and each run is served
// with one ReadAt covering its whole byte range — a gather batch of a few
// long runs costs a few system calls, not one per block. Local I/O does not
// block on a peer, so ctx is not consulted.
func (s *FileStore) ReadBlocks(_ context.Context, addrs []int, dst []Element) error {
	if err := s.check(addrs, len(dst)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n := runLen(addrs[i:])
		wire := s.vecWire(n)
		s.calls++
		if _, err := s.f.ReadAt(wire, int64(addrs[i])*int64(s.slot)); err != nil {
			return err
		}
		DecodeElements(dst[i*s.b:(i+n)*s.b], wire)
		i += n
	}
	return nil
}

// WriteBlocks implements BlockStore; each maximal consecutive run goes to
// disk with one WriteAt.
func (s *FileStore) WriteBlocks(_ context.Context, addrs []int, src []Element) error {
	if err := s.check(addrs, len(src)); err != nil {
		return err
	}
	for i := 0; i < len(addrs); {
		n := runLen(addrs[i:])
		wire := s.vecWire(n)
		EncodeElements(wire, src[i*s.b:(i+n)*s.b])
		s.calls++
		if _, err := s.f.WriteAt(wire, int64(addrs[i])*int64(s.slot)); err != nil {
			return err
		}
		i += n
	}
	return nil
}

// vecWire returns a scratch wire buffer for n slots, growing it on demand
// to a power of two of slots so a run one slot longer than the last does not
// regrow it.
func (s *FileStore) vecWire(n int) []byte {
	if cap(s.vwire) < n*s.slot {
		s.vwire = make([]byte, (1<<CeilLog2(n))*s.slot)
	}
	return s.vwire[:n*s.slot]
}

// GrowTo implements Growable: the file is extended; the fresh slots read
// back as zero bytes (zeroed elements).
func (s *FileStore) GrowTo(n int) error {
	if n <= s.n {
		return nil
	}
	if err := s.f.Truncate(int64(n) * int64(s.slot)); err != nil {
		return err
	}
	s.n = n
	return nil
}

// NumBlocks implements BlockStore.
func (s *FileStore) NumBlocks() int { return s.n }

// BlockSize implements BlockStore.
func (s *FileStore) BlockSize() int { return s.b }

// Close implements BlockStore.
func (s *FileStore) Close() error { return s.f.Close() }

func (s *FileStore) check(addrs []int, l int) error {
	if l != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", l, len(addrs), s.b)
	}
	for _, addr := range addrs {
		if addr < 0 || addr >= s.n {
			return fmt.Errorf("extmem: block address %d out of range [0,%d)", addr, s.n)
		}
	}
	return nil
}
