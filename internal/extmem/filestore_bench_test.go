package extmem

import (
	"context"
	"path/filepath"
	"testing"
)

// BenchmarkFileStoreGather times one 512-block FileStore call at the sealed
// slot of B = 8 (320 bytes) in the two shapes the passes make: a butterfly
// pass's gather, 512 one-block runs two slots apart, copied through the
// mapping where the file is mapped; and a scan's one contiguous run, one
// ReadAt or WriteAt. SetBytes counts slot bytes.
func BenchmarkFileStoreGather(b *testing.B) {
	const n, stride = 512, 2
	bs := CryptChildBlockSize(8)
	for _, shape := range []struct {
		name string
		step int
	}{{"stride2", stride}, {"contiguous", 1}} {
		for _, write := range []bool{false, true} {
			op := "read"
			if write {
				op = "write"
			}
			b.Run(shape.name+"/"+op, func(b *testing.B) {
				s, err := NewFileStore(filepath.Join(b.TempDir(), "blocks"), stride*n, bs)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				addrs := make([]int, n)
				for i := range addrs {
					addrs[i] = shape.step * i
				}
				buf := mkElems(n*bs, 1)
				if err := WriteBlocksCtx(bg, s, addrs, buf); err != nil {
					b.Fatal(err)
				}
				call := func(ctx context.Context, addrs []int, buf []Element) error { return ReadBlocksCtx(ctx, s, addrs, buf) }
				if write {
					call = func(ctx context.Context, addrs []int, buf []Element) error { return WriteBlocksCtx(ctx, s, addrs, buf) }
				}
				b.SetBytes(int64(n * bs * ElementBytes))
				b.ReportAllocs()
				for b.Loop() {
					if err := call(bg, addrs, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
