package extmem_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"oblivext/internal/chaos"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/extmem/replica"
	"oblivext/internal/extmem/shard"
)

var (
	_ extmem.BlockStore = (*extmem.MemStore)(nil)
	_ extmem.BlockStore = (*extmem.FileStore)(nil)
	_ extmem.BlockStore = (*extmem.CryptStore)(nil)
	_ extmem.BlockStore = (*shard.ShardedStore)(nil)
	_ extmem.BlockStore = (*replica.Store)(nil)
	_ extmem.BlockStore = (*netstore.Client)(nil)
	_ extmem.BlockStore = (*chaos.Store)(nil)
)

// TestBlockStoreContract runs the one BlockStore contract over every
// implementation: what a batch of blocks means must not depend on which
// store, or which stack of decorators, serves it.
func TestBlockStoreContract(t *testing.T) {
	const n, b = 8, 4
	bg := context.Background()
	mem := func() extmem.BlockStore { return extmem.NewMemStore(n, b) }
	must := func(s extmem.BlockStore, err error) extmem.BlockStore {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// wire counts the requests the netstore server has seen; nil for stores
	// with no wire under them.
	type impl struct {
		name  string
		store extmem.BlockStore
		wire  func() int64
	}
	impls := []impl{
		{name: "MemStore", store: mem()},
		// Three blocks a segment: runs straddle segments and the last
		// segment is partly past the capacity.
		{name: "MemStoreSegmented", store: extmem.NewMemStorePer(n, b, 3)},
		{name: "chaos.Store", store: chaos.NewStore(mem(), "bob", nil)},
	}
	{
		s, err := extmem.NewFileStore(filepath.Join(t.TempDir(), "blocks"), n, b)
		impls = append(impls, impl{name: "FileStore", store: must(s, err)})
	}
	{
		enc, err := extmem.NewEncryptor(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		s, err := extmem.NewCryptStore(extmem.NewMemStore(n, extmem.CryptChildBlockSize(b)), enc, b)
		impls = append(impls, impl{name: "CryptStore", store: must(s, err)})
	}
	{
		half := func() extmem.BlockStore { return extmem.NewMemStore(n/2, b) }
		s, err := shard.New([]extmem.BlockStore{half(), half()})
		impls = append(impls, impl{name: "ShardedStore", store: must(s, err)})
	}
	{
		s, err := replica.New([]extmem.BlockStore{mem(), mem()}, replica.Options{})
		impls = append(impls, impl{name: "replica.Store", store: must(s, err)})
	}
	{
		srv := netstore.NewServer(mem(), netstore.ServerOptions{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c, err := netstore.Dial(ts.URL, netstore.Options{})
		impls = append(impls, impl{name: "netstore.Client", store: must(c, err),
			wire: func() int64 { return srv.MetricsSnapshot().Requests }})
	}

	blocks := func(keys ...uint64) []extmem.Element {
		out := make([]extmem.Element, 0, len(keys)*b)
		for _, k := range keys {
			for i := 0; i < b; i++ {
				out = append(out, extmem.Element{Key: k, Val: uint64(i), Flags: extmem.FlagOccupied})
			}
		}
		return out
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			s := im.store
			t.Cleanup(func() { s.Close() })
			if s.NumBlocks() != n || s.BlockSize() != b {
				t.Fatalf("geometry %d x %d, want %d x %d", s.NumBlocks(), s.BlockSize(), n, b)
			}
			read := func(addrs ...int) []extmem.Element {
				t.Helper()
				dst := make([]extmem.Element, len(addrs)*b)
				if err := s.ReadBlocks(bg, addrs, dst); err != nil {
					t.Fatalf("read %v: %v", addrs, err)
				}
				return dst
			}
			equal := func(what string, got, want []extmem.Element) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: element %d = %+v, want %+v", what, i, got[i], want[i])
					}
				}
			}

			// Round trip: scattered write, permuted read, a batch of one;
			// the store copies, so the caller may reuse its buffer.
			src := blocks(10, 11, 12)
			if err := s.WriteBlocks(bg, []int{5, 0, 7}, src); err != nil {
				t.Fatal(err)
			}
			clear(src)
			equal("permuted read", read(7, 5, 0), blocks(12, 10, 11))
			equal("batch of one", read(0), blocks(11))
			equal("never-written block", read(3), make([]extmem.Element, b))

			// A run of consecutive addresses, which a store may serve as
			// one transfer (across a segment boundary, in the segmented
			// MemStore).
			if err := s.WriteBlocks(bg, []int{2, 3, 4}, blocks(13, 14, 15)); err != nil {
				t.Fatal(err)
			}
			equal("run", read(2, 3, 4), blocks(13, 14, 15))
			equal("run's neighbours", read(1, 5), append(make([]extmem.Element, b), blocks(10)...))

			// Duplicate addresses: the later slice wins a write, a read
			// returns the block once per mention.
			if err := s.WriteBlocks(bg, []int{2, 6, 2}, blocks(20, 21, 22)); err != nil {
				t.Fatal(err)
			}
			equal("duplicate addresses", read(2, 6, 2), blocks(22, 21, 22))

			// A zero-length batch is a valid interaction that moves nothing.
			if err := s.WriteBlocks(bg, nil, nil); err != nil {
				t.Errorf("empty write: %v", err)
			}
			if err := s.ReadBlocks(bg, nil, nil); err != nil {
				t.Errorf("empty read: %v", err)
			}

			// ctx affects delivery, never semantics: under an already
			// canceled context a store with a wire under it fails without
			// sending anything; a local store may simply complete.
			ctx, cancel := context.WithCancel(bg)
			cancel()
			var before int64
			if im.wire != nil {
				before = im.wire()
			}
			werr := s.WriteBlocks(ctx, []int{1}, blocks(40))
			dst := make([]extmem.Element, b)
			rerr := s.ReadBlocks(ctx, []int{0}, dst)
			if im.wire != nil {
				if werr == nil || rerr == nil {
					t.Errorf("canceled ctx over a wire: write err %v, read err %v, want both non-nil", werr, rerr)
				}
				if after := im.wire(); after != before {
					t.Errorf("canceled ctx sent %d requests", after-before)
				}
			}
			if rerr == nil {
				equal("read under canceled ctx", dst, blocks(11))
			}
			if werr == nil {
				equal("write under canceled ctx", read(1), blocks(40))
			} else {
				equal("failed write under canceled ctx", read(1), make([]extmem.Element, b))
			}

			// Malformed batches are errors, never panics. (Last, because a
			// batch that fails on every replica legitimately leaves its
			// addresses unreadable and the breakers open.)
			if err := s.ReadBlocks(bg, []int{0, 1}, make([]extmem.Element, b)); err == nil {
				t.Error("short read buffer accepted")
			}
			if err := s.WriteBlocks(bg, []int{0}, blocks(1, 2)); err == nil {
				t.Error("long write buffer accepted")
			}
			for _, addr := range []int{n, -1} {
				if err := s.ReadBlocks(bg, []int{4, addr}, make([]extmem.Element, 2*b)); err == nil {
					t.Errorf("read of block %d accepted", addr)
				}
				if err := s.WriteBlocks(bg, []int{4, addr}, blocks(30, 31)); err == nil {
					t.Errorf("write of block %d accepted", addr)
				}
			}
		})
	}
}
