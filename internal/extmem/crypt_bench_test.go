package extmem

import (
	"context"
	"fmt"
	"testing"
)

// The per-block constants of the sealed path, at a small and a large block:
// every block I/O of an encrypted run pays one of these. SetBytes counts
// plaintext, so MB/s reads as payload throughput.

var benchBlockSizes = []int{8, 64}

func BenchmarkSeal(b *testing.B) {
	for _, bs := range benchBlockSizes {
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			enc := testEncryptor(b)
			plain := make([]byte, bs*ElementBytes)
			wire := make([]byte, 0, enc.WireSize(len(plain)))
			b.SetBytes(int64(len(plain)))
			b.ReportAllocs()
			for b.Loop() {
				wire, _ = enc.Seal(wire[:0], plain, 7)
			}
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	for _, bs := range benchBlockSizes {
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			enc := testEncryptor(b)
			plain := make([]byte, bs*ElementBytes)
			wire, _ := enc.Seal(nil, plain, 7)
			b.SetBytes(int64(len(plain)))
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if plain, err = enc.Open(plain[:0], wire, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCryptStore times one 128-block vectored call over memory.
func benchCryptStore(b *testing.B, write bool) {
	const n = 128
	for _, bs := range benchBlockSizes {
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			s := newCryptMem(b, n, bs)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			buf := mkElems(n*bs, 1)
			call := func(ctx context.Context, addrs []int, buf []Element) error { return ReadBlocksCtx(ctx, s, addrs, buf) }
			if write {
				call = func(ctx context.Context, addrs []int, buf []Element) error { return WriteBlocksCtx(ctx, s, addrs, buf) }
			}
			if err := WriteBlocksCtx(bg, s, idx, buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * bs * ElementBytes))
			b.ReportAllocs()
			for b.Loop() {
				if err := call(bg, idx, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCryptStoreRead(b *testing.B)  { benchCryptStore(b, false) }
func BenchmarkCryptStoreWrite(b *testing.B) { benchCryptStore(b, true) }

// BenchmarkCodec times the element codec over a 128-block batch, on the
// host's arm (one copy on a little-endian host) and on the field-by-field
// arm a big-endian host runs.
func BenchmarkCodec(b *testing.B) {
	const n = 128
	for _, bs := range benchBlockSizes {
		elems := mkElems(n*bs, 1)
		wire := make([]byte, len(elems)*ElementBytes)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"Encode", func() { EncodeElements(wire, elems) }},
			{"Decode", func() { DecodeElements(elems, wire) }},
			{"EncodePortable", func() { encodePortable(wire, elems) }},
			{"DecodePortable", func() { decodePortable(elems, wire) }},
		} {
			b.Run(fmt.Sprintf("%s/B=%d", c.name, bs), func(b *testing.B) {
				b.SetBytes(int64(len(wire)))
				b.ReportAllocs()
				for b.Loop() {
					c.run()
				}
			})
		}
	}
}
