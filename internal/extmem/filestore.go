package extmem

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
)

// pageSize is the length below which a run of consecutive slots is copied
// through the mapping rather than moved with one system call.
var pageSize = os.Getpagesize()

// FileStore is a BlockStore backed by a real file, exercising the library on
// an actual secondary-storage device. Each block occupies a fixed slot of
// BlockSize()*ElementBytes bytes. The store holds whatever bytes it is
// handed: encryption is not its concern — wrap it in a CryptStore to make
// the file hold ciphertext only.
//
// A batch is split, in the order given, into maximal runs of consecutive
// addresses. On Linux the file is also mapped MAP_SHARED, and a run shorter
// than one page is an EncodeElements/DecodeElements copy into or out of the
// mapping; a longer run, and every run where the file is not mapped, is one
// ReadAt or WriteAt over its whole byte range. A gather pass's scattered
// blocks then cost copies, not a system call each, while long runs skip the
// page faults a fresh mapping takes one page at a time. Either way the file
// holds the same slot-by-slot bytes.
type FileStore struct {
	f     *os.File
	b     int
	n     int
	slot  int
	mem   []byte // the file mapped MAP_SHARED; nil where it is not mapped
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
	s := &FileStore{f: f, b: b, slot: b * ElementBytes}
	if err := s.GrowTo(n); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Transfer implements BlockStore: the write part's runs, then the read
// part's, with both parts checked before either is applied. Local I/O does
// not block on a peer, so ctx is not consulted.
func (s *FileStore) Transfer(_ context.Context, wAddrs []int, src []Element, rAddrs []int, dst []Element) (err error) {
	if err := s.check(wAddrs, len(src)); err != nil {
		return err
	}
	if err := s.check(rAddrs, len(dst)); err != nil {
		return err
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer faultError(&err)
	for i := 0; i < len(wAddrs); {
		n := runLen(wAddrs[i:])
		off := int64(wAddrs[i]) * int64(s.slot)
		e := src[i*s.b : (i+n)*s.b]
		if m := s.mapped(off, n); m != nil {
			EncodeElements(m, e)
		} else {
			wire := s.vecWire(n)
			EncodeElements(wire, e)
			s.calls++
			if _, err := s.f.WriteAt(wire, off); err != nil {
				return err
			}
		}
		i += n
	}
	for i := 0; i < len(rAddrs); {
		n := runLen(rAddrs[i:])
		off := int64(rAddrs[i]) * int64(s.slot)
		d := dst[i*s.b : (i+n)*s.b]
		if m := s.mapped(off, n); m != nil {
			DecodeElements(d, m)
		} else {
			wire := s.vecWire(n)
			s.calls++
			if _, err := s.f.ReadAt(wire, off); err != nil {
				return err
			}
			DecodeElements(d, wire)
		}
		i += n
	}
	return nil
}

// mapped returns the mapping's bytes for the n slots at byte offset off when
// the file is mapped and they are shorter than a page, and nil otherwise.
func (s *FileStore) mapped(off int64, n int) []byte {
	if s.mem == nil || n*s.slot >= pageSize {
		return nil
	}
	return s.mem[off : off+int64(n*s.slot)]
}

// faultError, deferred under debug.SetPanicOnFault(true), turns a fault on
// the mapping — an I/O error, or the file truncated under the store — into
// an error from the call instead of a crash. Any other panic goes on.
func faultError(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		*err = fmt.Errorf("extmem: FileStore: fault at %#x in the file's mapping (an I/O error, or the file shortened under the store)", f.Addr())
		return
	}
	panic(r)
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

// GrowTo implements Growable: the file is extended, the new range reserved
// on the device and the file mapped again at its new length (see mapFile).
// The fresh slots read back as zero bytes (zeroed elements).
func (s *FileStore) GrowTo(n int) error {
	if n <= s.n {
		return nil
	}
	old, size := int64(s.n)*int64(s.slot), int64(n)*int64(s.slot)
	if err := s.f.Truncate(size); err != nil {
		return err
	}
	mem, err := mapFile(s.f, old, size)
	if err != nil {
		return err
	}
	if err := unmapFile(s.mem); err != nil {
		unmapFile(mem)
		return err
	}
	s.mem, s.n = mem, n
	return nil
}

// NumBlocks implements BlockStore.
func (s *FileStore) NumBlocks() int { return s.n }

// BlockSize implements BlockStore.
func (s *FileStore) BlockSize() int { return s.b }

// Close implements BlockStore.
func (s *FileStore) Close() error {
	err := unmapFile(s.mem)
	s.mem = nil
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

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
