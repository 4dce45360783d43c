package extmem

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Encryptor implements the semantically secure re-encryption the paper
// assumes (§1) with one AEAD call per block: AES-256-GCM under a subkey
// derived from the master key and a random per-Encryptor salt, the nonce a
// count of the seals made so far, the block address as associated data.
// Nonces are unique by construction, so re-encrypting an unchanged block is
// indistinguishable from writing new data, and tampering is detected (Bob
// is honest-but-curious, but detection keeps the model honest). CryptStore
// applies it per block over any backend; docs/THREAT_MODEL.md says what it
// does and does not protect against. It is safe for concurrent use.
type Encryptor struct {
	master [32]byte
	own    subkey
	seals  atomic.Uint64 // seals made so far; the next one's nonce
	// foreign is the last subkey open met of another Encryptor over master.
	foreign atomic.Pointer[subkey]
}

// subkey is the AEAD one salt selects.
type subkey struct {
	salt [saltSize]byte
	aead cipher.AEAD
}

// sealArgs holds the nonce and associated data of one AEAD call. They pass
// through the cipher.AEAD interface, so locals would escape to the heap on
// every call; the CryptStore keeps one instead.
type sealArgs struct {
	nonce [nonceSize]byte // 4 zero bytes ‖ big-endian seal count
	addr  [8]byte
}

const (
	saltSize     = 16
	counterSize  = 8
	nonceSize    = 12 // the standard GCM nonce
	tagSize      = 16
	envelopeSize = saltSize + counterSize + tagSize
)

var errAuth = errors.New("extmem: block authentication failed")

// NewEncryptor draws a fresh salt and derives this Encryptor's subkey from
// the 32-byte master key. Two Encryptors over one key seal under different
// subkeys, so their counters never meet, and each opens the other's blocks.
func NewEncryptor(key []byte) (*Encryptor, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("extmem: encryption key must be 32 bytes, got %d", len(key))
	}
	e := &Encryptor{master: [32]byte(key)}
	if _, err := rand.Read(e.own.salt[:]); err != nil {
		return nil, err
	}
	var err error
	e.own.aead, err = e.derive(e.own.salt)
	return e, err
}

// derive returns AES-256-GCM under HKDF-SHA256(master, salt).
func (e *Encryptor) derive(salt [saltSize]byte) (cipher.AEAD, error) {
	k, err := hkdf.Key(sha256.New, e.master[:], salt[:], "oblivext block seal", len(e.master))
	if err != nil {
		return nil, err
	}
	blk, err := aes.NewCipher(k)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

// WireSize returns the on-disk size of an encrypted block of plainSize bytes.
func (e *Encryptor) WireSize(plainSize int) int { return plainSize + envelopeSize }

// Seal appends salt ‖ counter ‖ ciphertext ‖ tag to dst, bound to the block
// address (Open at any other address fails). The nonce is the next counter
// value, so equal plaintexts seal differently. The error is always nil.
func (e *Encryptor) Seal(dst, plain []byte, addr uint64) ([]byte, error) {
	return e.seal(new(sealArgs), dst, plain, addr), nil
}

func (e *Encryptor) seal(a *sealArgs, dst, plain []byte, addr uint64) []byte {
	counter := a.nonce[nonceSize-counterSize:]
	binary.BigEndian.PutUint64(counter, e.seals.Add(1))
	binary.LittleEndian.PutUint64(a.addr[:], addr)
	dst = append(append(dst, e.own.salt[:]...), counter...)
	return e.own.aead.Seal(dst, a.nonce[:], plain, a.addr[:])
}

// Open verifies a sealed block against the address it was read from and
// decrypts it, appending the plaintext to dst.
func (e *Encryptor) Open(dst, wire []byte, addr uint64) ([]byte, error) {
	return e.open(new(sealArgs), dst, wire, addr)
}

func (e *Encryptor) open(a *sealArgs, dst, wire []byte, addr uint64) ([]byte, error) {
	if len(wire) < envelopeSize {
		return nil, errors.New("extmem: sealed block too short")
	}
	k := &e.own
	if salt := [saltSize]byte(wire); salt != k.salt {
		// A foreign salt is derived once and kept while it keeps coming.
		if k = e.foreign.Load(); k == nil || salt != k.salt {
			aead, err := e.derive(salt)
			if err != nil {
				return nil, err
			}
			k = &subkey{salt, aead}
			e.foreign.Store(k)
		}
	}
	copy(a.nonce[nonceSize-counterSize:], wire[saltSize:])
	binary.LittleEndian.PutUint64(a.addr[:], addr)
	out, err := k.aead.Open(dst, a.nonce[:], wire[saltSize+counterSize:], a.addr[:])
	if err != nil {
		return nil, errAuth
	}
	return out, nil
}
