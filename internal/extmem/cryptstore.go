package extmem

import (
	"context"
	"fmt"
	"sync/atomic"

	"oblivext/internal/par"
)

// CryptOverheadElements is the per-block footprint of the encryption
// envelope (IV + MAC tag), rounded up to whole elements: a sealed block of B
// plaintext elements occupies B + CryptOverheadElements elements in the
// child store.
const CryptOverheadElements = (ivSize + tagSize + ElementBytes - 1) / ElementBytes

// CryptChildBlockSize returns the block size (in elements) the child store
// under a CryptStore must have to hold sealed blocks of b plaintext
// elements.
func CryptChildBlockSize(b int) int { return b + CryptOverheadElements }

// CryptStore is the client-side encryption decorator: an extmem.BlockStore
// that seals every block written through it (AES-CTR with a fresh random IV
// per write, plus an HMAC-SHA256 tag, encrypt-then-MAC) and opens every
// block read back, storing only IV‖ciphertext‖tag in the child store. The
// child may be any BlockStore — memory, file, latency-modeled, the sharded
// fan-out, or the HTTP network client — so Bob, whatever his substrate,
// only ever holds semantically secure ciphertext, which is exactly the
// paper's §1 assumption ("Alice encrypts her data before outsourcing it").
//
// Geometry: the store presents blocks of B plaintext elements upward while
// the child holds blocks of CryptChildBlockSize(B) elements (the sealed
// wire image, zero-padded to whole elements). Addresses map one-to-one and
// every vectored call maps to exactly one child call over the same address
// list, so the decorator changes neither the access trace nor the
// round-trip count — only the bytes Bob stores.
//
// Each seal is bound to its block address (the HMAC covers addr‖IV‖ct), so
// a server that transposes two validly sealed blocks triggers an
// authentication failure, not silently relocated data.
//
// Never-written child blocks read back all-zero; CryptStore decodes an
// all-zero wire image as a zeroed plaintext block rather than a forgery
// (a genuine seal starts with 16 random IV bytes, so an honest all-zero
// wire image never occurs). The flip side is that a server which *zeroes*
// a written slot rolls it back to the never-written state undetected —
// one instance of the freshness/rollback non-goal docs/THREAT_MODEL.md
// declares. Any other wire image that fails authentication — a tampering
// or corruption event — is returned as an error, which the Disk layer
// escalates to a panic: integrity violations abort the computation loudly
// rather than feeding the algorithms attacker-chosen plaintext.
//
// Like every BlockStore, a CryptStore is driven by one caller at a time
// (the Disk, including its prefetch goroutines, which synchronize before
// handing the buffer over); the staging buffer relies on that. Within one
// vectored call the store may fan the per-block seal/open work out across
// SetWorkers goroutines — each worker owns its own scratch pair and the
// byte counters are atomic, so the fan-out is invisible to the caller and
// the child sees exactly one call over the same address list either way.
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

// cryptScratch is one worker's private staging: an encoded plaintext block
// and a sealed block padded to child geometry.
type cryptScratch struct {
	plain []byte
	sbuf  []byte
}

// NewCryptStore wraps child with the encryption decorator, presenting
// blocks of b plaintext elements. The child's block size must be
// CryptChildBlockSize(b) — the caller provisions the child with the sealed
// footprint.
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
		child:   child,
		enc:     enc,
		b:       b,
		cb:      CryptChildBlockSize(b),
		wire:    enc.WireSize(b * ElementBytes),
		workers: 1,
	}
	s.scratch = []cryptScratch{s.newScratch()}
	return s, nil
}

func (s *CryptStore) newScratch() cryptScratch {
	return cryptScratch{
		plain: make([]byte, s.b*ElementBytes),
		sbuf:  make([]byte, s.cb*ElementBytes),
	}
}

// SetWorkers sets the fan-out for per-block sealing/opening within one
// vectored call (0 and 1 both mean serial) and provisions one scratch pair
// per worker. Call it during setup, before the store is driven; it is not
// safe concurrently with I/O.
func (s *CryptStore) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
	for len(s.scratch) < n {
		s.scratch = append(s.scratch, s.newScratch())
	}
}

// Child returns the wrapped store (Bob's side of the boundary).
func (s *CryptStore) Child() BlockStore { return s.child }

// BytesSealed returns the cumulative ciphertext bytes produced by writes —
// the wire footprint Bob stores, envelope included.
func (s *CryptStore) BytesSealed() int64 { return s.bytesSealed.Load() }

// BytesOpened returns the cumulative ciphertext bytes verified and
// decrypted by reads (all-zero never-written blocks are not counted: no
// crypto ran).
func (s *CryptStore) BytesOpened() int64 { return s.bytesOpened.Load() }

// ResetCryptStats zeroes the sealed/opened byte counters.
func (s *CryptStore) ResetCryptStats() {
	s.bytesSealed.Store(0)
	s.bytesOpened.Store(0)
}

// seal encodes and seals one plaintext block (bound to its address) via
// the given worker scratch, decoding it as child-geometry elements into
// dst. The Encryptor itself is safe for concurrent Seal calls (fresh IV,
// fresh HMAC state per call); only the scratch is per-worker.
func (s *CryptStore) seal(sc *cryptScratch, addr int, dst []Element, src []Element) error {
	EncodeElements(sc.plain, src)
	out, err := s.enc.Seal(sc.sbuf[:0], sc.plain, uint64(addr))
	if err != nil {
		return err
	}
	// Zero the padding up to a whole child block; the pad is public
	// structure, not data.
	for i := len(out); i < len(sc.sbuf); i++ {
		sc.sbuf[i] = 0
	}
	DecodeElements(dst, sc.sbuf)
	s.bytesSealed.Add(int64(s.wire))
	return nil
}

// open verifies and decodes one sealed child block into dst. An all-zero
// wire image is a never-written block and decodes to zeroed elements.
func (s *CryptStore) open(sc *cryptScratch, addr int, src []Element, dst []Element) error {
	allZero := true
	for _, e := range src {
		if e != (Element{}) {
			allZero = false
			break
		}
	}
	if allZero {
		clear(dst)
		return nil
	}
	EncodeElements(sc.sbuf, src)
	buf, err := s.enc.Open(sc.plain[:0], sc.sbuf[:s.wire], uint64(addr))
	if err != nil {
		return fmt.Errorf("extmem: block %d: %w", addr, err)
	}
	DecodeElements(dst, buf)
	s.bytesOpened.Add(int64(s.wire))
	return nil
}

// childElems returns the child-geometry staging buffer for n blocks.
func (s *CryptStore) childElems(n int) []Element {
	if need := n * s.cb; cap(s.celem) < need {
		s.celem = make([]Element, need)
	}
	return s.celem[:n*s.cb]
}

// cryptParMin is the batch size below which per-block crypto stays on the
// calling goroutine: spawning workers costs more than sealing a handful of
// blocks. The threshold compares against a public batch length only.
const cryptParMin = 8

// block seals (write) or opens (read) block i of a batch: plain is the
// caller's plaintext buffer, sealed the child-geometry staging.
func (s *CryptStore) block(sc *cryptScratch, write bool, addrs []int, i int, plain, sealed []Element) error {
	p, c := plain[i*s.b:(i+1)*s.b], sealed[i*s.cb:(i+1)*s.cb]
	if write {
		return s.seal(sc, addrs[i], c, p)
	}
	return s.open(sc, addrs[i], c, p)
}

// forBlocks seals or opens every block of a batch — fanned out across
// s.workers goroutines for large batches, inline (and allocation-free, so a
// one-block batch costs no more than the crypto itself) otherwise — and
// returns the first error by block order. Block i's staging slices are
// disjoint for distinct i, so workers never share bytes; the choice to fan
// out depends only on the public batch length, never on block contents.
func (s *CryptStore) forBlocks(write bool, addrs []int, plain, sealed []Element) error {
	n := len(addrs)
	w := s.workers
	if w > len(s.scratch) {
		w = len(s.scratch)
	}
	if w <= 1 || n < cryptParMin {
		sc := &s.scratch[0]
		for i := 0; i < n; i++ {
			if err := s.block(sc, write, addrs, i, plain, sealed); err != nil {
				return err
			}
		}
		return nil
	}
	errAt := make([]error, n)
	par.ForWorker(w, n, func(worker, lo, hi int) {
		sc := &s.scratch[worker]
		for i := lo; i < hi; i++ {
			if err := s.block(sc, write, addrs, i, plain, sealed); err != nil {
				errAt[i] = err
				return
			}
		}
	})
	for _, err := range errAt {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocks implements BlockStore: the whole batch is fetched with a
// single child call over the same address list (one interaction, identical
// trace), then each block is opened individually — across the worker pool
// for large batches.
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
// fresh IV — vectoring batches the transfer, never the envelope; sealing
// fans out across the worker pool for large batches — then the batch
// travels as a single child call over the same address list.
func (s *CryptStore) WriteBlocks(ctx context.Context, addrs []int, src []Element) error {
	if len(src) != len(addrs)*s.b {
		return fmt.Errorf("extmem: buffer length %d != %d blocks of %d elements", len(src), len(addrs), s.b)
	}
	buf := s.childElems(len(addrs))
	if err := s.forBlocks(true, addrs, src, buf); err != nil {
		return err
	}
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
