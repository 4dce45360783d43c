package extmem

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"oblivext/internal/par"
)

// CryptOverheadElements is the per-block footprint of the encryption
// envelope (salt + counter + tag), rounded up to whole elements.
const CryptOverheadElements = (envelopeSize + ElementBytes - 1) / ElementBytes

// CryptChildBlockSize returns the block size (in elements) the child store
// under a CryptStore must have to hold sealed blocks of b plaintext elements.
func CryptChildBlockSize(b int) int { return b + CryptOverheadElements }

// CryptStore is the client-side encryption decorator: an extmem.BlockStore
// that seals every block written through it (see Encryptor) and opens every
// block read back, storing only salt‖counter‖ciphertext‖tag in the child.
// The child may be any BlockStore — memory, file, a replica group, the
// sharded fan-out, or the HTTP network client — so Bob, whatever his
// substrate, only ever holds semantically secure ciphertext: the paper's
// §1 assumption ("Alice encrypts her data before outsourcing it").
//
// Geometry: the store presents blocks of B plaintext elements upward while
// the child holds blocks of CryptChildBlockSize(B) elements (the sealed
// wire image, zero-padded to whole elements). Addresses map one-to-one and
// every vectored call maps to exactly one child call over the same address
// list, so the decorator changes neither the access trace nor the
// round-trip count — only the bytes Bob stores.
//
// Copies: a block crosses this layer as its one AEAD pass. On a
// little-endian host an element's memory is its wire image (codec.go), so
// the AEAD reads the caller's elements and writes the sealed image straight
// into the child-geometry staging, and opens from that staging straight into
// the caller's elements. A big-endian host stages both images in the
// worker's scratch through the field-by-field codec; the bytes are the same.
//
// Each seal is bound to its block address and the pad is checked on every
// read, so a server that transposes two sealed blocks, or changes any byte
// of a written slot, triggers an authentication failure: an error, which
// the Disk layer escalates to a panic, so integrity violations abort the
// computation rather than feed the algorithms attacker-chosen plaintext.
//
// Never-written child blocks read back all-zero; CryptStore decodes an
// all-zero wire image as a zeroed plaintext block rather than a forgery (a
// genuine seal starts with 16 random salt bytes, so an honest all-zero wire
// image never occurs). The flip side is that a server which *zeroes* a
// written slot rolls it back to the never-written state undetected — one
// instance of the rollback non-goal docs/THREAT_MODEL.md declares.
//
// Like every BlockStore, a CryptStore is driven by one caller at a time
// (the Disk); the staging buffer relies on that. Within one
// vectored call the per-block work may fan out across SetWorkers goroutines:
// each worker owns its scratch, the seal and byte counters are atomic.
type CryptStore struct {
	child   BlockStore
	enc     *Encryptor
	b       int // plaintext block size exposed upward
	cb      int // child (sealed) block size in elements
	wire    int // sealed image length in bytes, <= cb*ElementBytes
	workers int // fan-out for per-block seal/open inside one batch

	bytesSealed atomic.Int64
	bytesOpened atomic.Int64

	scratch []cryptScratch // one entry per worker; entry 0 serves small batches
	celem   []Element      // child-geometry staging for vectored calls
}

// cryptScratch is one worker's private state. plain and sbuf stage a block's
// wire image only on a big-endian host; a little-endian one seals and opens
// in place.
type cryptScratch struct {
	plain []byte   // an encoded plaintext block
	sbuf  []byte   // a sealed block padded to child geometry
	args  sealArgs // the AEAD call's nonce and associated data
	err   error    // first error of the worker's share of the current batch
}

// NewCryptStore wraps child with the encryption decorator, presenting
// blocks of b plaintext elements. The caller provisions the child with the
// sealed footprint: its block size must be CryptChildBlockSize(b).
func NewCryptStore(child BlockStore, enc *Encryptor, b int) (*CryptStore, error) {
	if enc == nil {
		return nil, fmt.Errorf("extmem: CryptStore needs an encryptor")
	}
	if b <= 0 {
		return nil, fmt.Errorf("extmem: invalid CryptStore block size %d", b)
	}
	if want := CryptChildBlockSize(b); child.BlockSize() != want {
		return nil, fmt.Errorf("extmem: child block size %d != sealed block size %d (B=%d + %d overhead elements)",
			child.BlockSize(), want, b, CryptOverheadElements)
	}
	s := &CryptStore{
		child: child,
		enc:   enc,
		b:     b,
		cb:    CryptChildBlockSize(b),
		wire:  enc.WireSize(b * ElementBytes),
	}
	s.SetWorkers(1)
	return s, nil
}

// SetWorkers sets the fan-out for per-block sealing/opening within one
// vectored call (0 and 1 both mean serial) and provisions one scratch per
// worker. Call it during setup: it is not safe concurrently with I/O.
func (s *CryptStore) SetWorkers(n int) {
	s.workers = max(n, 1)
	for len(s.scratch) < s.workers {
		s.scratch = append(s.scratch, cryptScratch{
			plain: make([]byte, s.b*ElementBytes),
			sbuf:  make([]byte, s.cb*ElementBytes),
		})
	}
}

// BytesSealed returns the cumulative ciphertext bytes produced by writes —
// the wire footprint Bob stores, envelope included.
func (s *CryptStore) BytesSealed() int64 { return s.bytesSealed.Load() }

// BytesOpened returns the cumulative ciphertext bytes verified and decrypted
// by reads (all-zero never-written blocks are not counted: no crypto ran).
func (s *CryptStore) BytesOpened() int64 { return s.bytesOpened.Load() }

// ResetCryptStats zeroes the sealed/opened byte counters.
func (s *CryptStore) ResetCryptStats() {
	s.bytesSealed.Store(0)
	s.bytesOpened.Store(0)
}

// seal seals one plaintext block (bound to its address) straight into dst,
// its child-geometry block: the AEAD reads src's wire image and writes
// salt‖counter‖ciphertext‖tag over dst's, and the pad there is zeroed. On a
// little-endian host both images are the elements' own memory; otherwise
// the worker's scratch stages them.
func (s *CryptStore) seal(sc *cryptScratch, addr int, dst []Element, src []Element) {
	out := wireInto(dst, sc.sbuf)
	s.enc.seal(&sc.args, out[:0], wireOf(src, sc.plain), uint64(addr))
	clear(out[s.wire:]) // the pad is public structure, not data
	settleWire(dst, out)
}

// open verifies one sealed child block and decrypts it into dst. An all-zero
// wire image is a never-written block and decodes to zeroed elements. The
// pad is outside the AEAD, so it is checked first, all its bytes folded
// together before the one comparison: a forged pad never lets authentic
// plaintext reach dst. A block that fails leaves dst zeroed.
func (s *CryptStore) open(sc *cryptScratch, addr int, src []Element, dst []Element) error {
	if !slices.ContainsFunc(src, func(e Element) bool { return e != Element{} }) {
		clear(dst)
		return nil
	}
	wire := wireOf(src, sc.sbuf)
	var pad byte
	for _, x := range wire[s.wire:] {
		pad |= x
	}
	err := errAuth
	if pad == 0 {
		out := wireInto(dst, sc.plain)
		if _, err = s.enc.open(&sc.args, out[:0], wire[:s.wire], uint64(addr)); err == nil {
			settleWire(dst, out)
		}
	}
	if err != nil {
		clear(dst)
		return fmt.Errorf("extmem: block %d: %w", addr, err)
	}
	s.bytesOpened.Add(int64(s.wire))
	return nil
}

// childElems returns the child-geometry staging buffer for n blocks, grown
// to a power of two of blocks so a batch one block wider than the last does
// not regrow it.
func (s *CryptStore) childElems(n int) []Element {
	if cap(s.celem) < n*s.cb {
		s.celem = make([]Element, (1<<CeilLog2(n))*s.cb)
	}
	return s.celem[:n*s.cb]
}

// cryptParMin is the batch size below which per-block crypto stays on the
// calling goroutine: spawning workers costs more than sealing a few blocks.
const cryptParMin = 8

// blockRange seals (write) or opens (read) blocks [lo, hi) of a batch on one
// worker's scratch, which keeps the first error.
func (s *CryptStore) blockRange(worker int, write bool, addrs []int, lo, hi int, plain, sealed []Element) {
	sc := &s.scratch[worker]
	sc.err = nil
	for i := lo; i < hi && sc.err == nil; i++ {
		p, c := plain[i*s.b:(i+1)*s.b], sealed[i*s.cb:(i+1)*s.cb]
		if write {
			s.seal(sc, addrs[i], c, p)
		} else {
			sc.err = s.open(sc, addrs[i], c, p)
		}
	}
}

// forBlocks seals or opens every block of a batch — fanned out across
// s.workers goroutines for large batches, inline and allocation-free
// otherwise — and returns the first error by block order: worker k owns the
// k-th contiguous range. Block i's staging slices are disjoint for distinct
// i, so workers never share bytes; the choice to fan out depends only on
// the public batch length, never on block contents.
func (s *CryptStore) forBlocks(write bool, addrs []int, plain, sealed []Element) error {
	n := len(addrs)
	w := min(s.workers, n) // so that every worker up to w gets a range
	if w <= 1 || n < cryptParMin {
		w = 1
		s.blockRange(0, write, addrs, 0, n, plain, sealed)
	} else {
		par.ForWorker(w, n, func(worker, lo, hi int) {
			s.blockRange(worker, write, addrs, lo, hi, plain, sealed)
		})
	}
	for k := range s.scratch[:w] {
		if err := s.scratch[k].err; err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocks implements BlockStore: the whole batch is fetched with a
// single child call over the same address list (one interaction, identical
// trace), then each block is opened individually.
func (s *CryptStore) ReadBlocks(ctx context.Context, addrs []int, dst []Element) error {
	if len(dst) != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", len(dst), len(addrs), s.b)
	}
	buf := s.childElems(len(addrs))
	if err := s.child.ReadBlocks(ctx, addrs, buf); err != nil {
		return err
	}
	return s.forBlocks(false, addrs, dst, buf)
}

// WriteBlocks implements BlockStore: every block is sealed under its own
// fresh nonce — vectoring batches the transfer, never the envelope — then
// the batch travels as a single child call over the same address list.
func (s *CryptStore) WriteBlocks(ctx context.Context, addrs []int, src []Element) error {
	if len(src) != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", len(src), len(addrs), s.b)
	}
	buf := s.childElems(len(addrs))
	if err := s.forBlocks(true, addrs, src, buf); err != nil {
		return err
	}
	s.bytesSealed.Add(int64(len(addrs) * s.wire))
	return s.child.WriteBlocks(ctx, addrs, buf)
}

// NumBlocks implements BlockStore: addresses map one-to-one to the child.
func (s *CryptStore) NumBlocks() int { return s.child.NumBlocks() }

// BlockSize implements BlockStore: the plaintext block size.
func (s *CryptStore) BlockSize() int { return s.b }

// Close implements BlockStore.
func (s *CryptStore) Close() error { return s.child.Close() }

// GrowTo implements Growable when the child does. Fresh child blocks read
// back all-zero, which open decodes as zeroed plaintext.
func (s *CryptStore) GrowTo(n int) error {
	g, ok := s.child.(Growable)
	if !ok {
		return fmt.Errorf("extmem: %T cannot grow", s.child)
	}
	return g.GrowTo(n)
}
