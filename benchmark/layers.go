package main

// This is the only file of the benchmark that imports oblivext/internal/...:
// the in-process servers the workloads talk to, and the isolated probes that
// time each layer's public entry points. README.md lists every internal
// symbol used here. Stores are driven through the vectored calls only, and no
// benchmark type implements extmem.BlockStore.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"oblivext"
	"oblivext/internal/emsort"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/extmem/replica"
	"oblivext/internal/extmem/shard"
	"oblivext/internal/iblt"
	"oblivext/internal/kvservice"
	"oblivext/internal/obsort"
	"oblivext/internal/route"
)

// obstoreBlocks is cmd/obstore's default initial capacity; stores grow on
// client request.
const obstoreBlocks = 4096

// obstore is Bob in-process: a netstore.Server behind a loopback listener.
type obstore struct {
	srv *netstore.Server
	ts  *httptest.Server
}

// startObstore serves blocks of blockSize elements; namespaced makes it
// multi-tenant, as obstore -namespaces does. wrap, when non-nil, sits between
// the listener and Server.Handler() (the traced pass's server boundary).
func startObstore(blockSize int, namespaced bool, wrap func(http.Handler) http.Handler) *obstore {
	var opts netstore.ServerOptions
	if namespaced {
		opts.StoreFactory = func(string) (extmem.BlockStore, error) {
			return extmem.NewMemStore(obstoreBlocks, blockSize), nil
		}
	}
	srv := netstore.NewServer(extmem.NewMemStore(obstoreBlocks, blockSize), opts)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &obstore{srv: srv, ts: httptest.NewServer(h)}
}

func (o *obstore) url() string { return o.ts.URL }

func (o *obstore) close() {
	o.ts.Close()
	o.srv.Close()
}

// serverCounts are a server's lifetime data-plane counters.
type serverCounts struct{ requests, bytesIn, bytesOut int64 }

func (c serverCounts) sub(o serverCounts) serverCounts {
	return serverCounts{c.requests - o.requests, c.bytesIn - o.bytesIn, c.bytesOut - o.bytesOut}
}

func fleetCounts(fleet []*obstore) serverCounts {
	var c serverCounts
	for _, o := range fleet {
		m := o.srv.MetricsSnapshot()
		c.requests += m.Requests
		c.bytesIn += m.BytesIn
		c.bytesOut += m.BytesOut
	}
	return c
}

// sealedBlockSize is the backend block size a client with EncryptionKey set
// needs (obstore -b BlockSize+2).
func sealedBlockSize(b int) int { return extmem.CryptChildBlockSize(b) }

// defaultTransport is the transport oblivext.New builds when
// Config.HTTPTransport is nil; the traced pass wraps exactly this.
func defaultTransport(shards, replicas int) *http.Transport {
	return netstore.NewTransport(max(shards, 1)*max(replicas, 1) + 2)
}

// kvFront is the ORAM-backed KV service behind a loopback listener, as
// cmd/oramkv serves it.
type kvFront struct {
	svc *kvservice.Service
	ts  *httptest.Server
}

func startKV(base oblivext.Config, slots int) (*kvFront, error) {
	svc, err := kvservice.New(kvservice.Options{Base: base, Slots: slots})
	if err != nil {
		return nil, err
	}
	return &kvFront{svc: svc, ts: httptest.NewServer(svc.Handler())}, nil
}

func (k *kvFront) url() string { return k.ts.URL }

// sessionCounts sums the sessions' lifetime block I/Os and wire requests, and
// the requests the service counted as failed.
func (k *kvFront) sessionCounts() (blockIOs, wireRequests, errors int64) {
	st := k.svc.StatsSnapshot()
	for _, s := range st.Sessions {
		blockIOs += s.BlockIOs
		wireRequests += s.WireRequests
	}
	return blockIOs, wireRequests, st.Errors + st.Rejected
}

func (k *kvFront) close() error {
	k.ts.Close()
	return k.svc.Close()
}

// ---- layer probes ----

// probeSizes scales the probes; -quick shrinks them for the smoke test.
type probeSizes struct {
	reps       int // timed batches per micro-probe; the median is reported
	iters      int // calls per batch
	routeLog   int // route probes run on 2^routeLog blocks
	ibltKeys   int
	emsortLog  int // emsort on 2^emsortLog records
	enginesLog int // obsort engine probes on 2^enginesLog records
	sortLog    int // obs/par probes sort 2^sortLog records through the public API
}

var (
	fullProbes  = probeSizes{reps: 5, iters: 200, routeLog: 13, ibltKeys: 4096, emsortLog: 16, enginesLog: 15, sortLog: 16}
	quickProbes = probeSizes{reps: 3, iters: 20, routeLog: 8, ibltKeys: 256, emsortLog: 10, enginesLog: 10, sortLog: 10}
)

const (
	probeB     = 8    // B everywhere
	probeM     = 4096 // the batch workloads' cache
	storeBatch = 64   // blocks per vectored call in the extmem probes
	fanBatch   = 128  // blocks per vectored call in the shard/replica/netstore probes
)

// measure runs reps batches of iters calls to f and returns the median
// per-call time in nanoseconds and the mean heap allocations per call.
func measure(s probeSizes, f func()) (nsPerCall, allocsPerCall float64) {
	f() // warm-up: buffers, connections, lazily built tables
	var ns []float64
	var mallocs uint64
	var ms runtime.MemStats
	for r := 0; r < s.reps; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < s.iters; i++ {
			f()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		ns = append(ns, float64(el.Nanoseconds())/float64(s.iters))
	}
	return median(ns), float64(mallocs) / float64(s.reps*s.iters)
}

// timeRuns returns the median wall time in nanoseconds of reps single runs of
// f, each after an untimed prep (nil for none); one more run first is a
// discarded warm-up. It is measure for calls too long to batch.
func timeRuns(reps int, prep, f func()) float64 {
	var ns []float64
	for r := 0; r <= reps; r++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		f()
		if r > 0 {
			ns = append(ns, float64(time.Since(start).Nanoseconds()))
		}
	}
	return median(ns)
}

func probeElements(n int, rng *rand.Rand) []extmem.Element {
	es := make([]extmem.Element, n)
	for i := range es {
		es[i] = extmem.Element{Key: rng.Uint64(), Val: uint64(i), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	return es
}

func runAddrs(n int) []int {
	as := make([]int, n)
	for i := range as {
		as[i] = i
	}
	return as
}

// must turns a store error inside a probe into a panic; runProbes recovers it
// into the error it returns.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// storeProbe times vectored reads and writes of `batch` blocks against s and
// returns ns per block for each, plus allocations per call averaged over both.
func storeProbe(ps probeSizes, s extmem.BlockStore, batch int, rng *rand.Rand) (readNs, writeNs, allocs float64) {
	ctx := context.Background()
	addrs := runAddrs(batch)
	src := probeElements(batch*s.BlockSize(), rng)
	dst := make([]extmem.Element, len(src))
	w, wa := measure(ps, func() { must(extmem.WriteBlocksCtx(ctx, s, addrs, src)) })
	r, ra := measure(ps, func() { must(extmem.ReadBlocksCtx(ctx, s, addrs, dst)) })
	return r / float64(batch), w / float64(batch), (ra + wa) / 2
}

// runProbes times each layer in isolation. Every probe is single-threaded
// over plaintext memory unless its name says otherwise; tmpDir holds the
// FileStore's file.
func runProbes(ps probeSizes, tmpDir string) (out map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer probe: %v", r)
		}
	}()
	out = map[string]float64{}
	rng := rand.New(rand.NewPCG(1, 1))
	b := probeB
	key := encryptionKey()

	// extmem: element codec and the block cipher, per block.
	elems := probeElements(storeBatch*b, rng)
	wire := make([]byte, len(elems)*extmem.ElementBytes)
	ns, _ := measure(ps, func() { extmem.EncodeElements(wire, elems) })
	out["extmem.codec_encode_ns_per_block"] = ns / storeBatch
	ns, _ = measure(ps, func() { extmem.DecodeElements(elems, wire) })
	out["extmem.codec_decode_ns_per_block"] = ns / storeBatch
	enc, err := extmem.NewEncryptor(key)
	if err != nil {
		return nil, err
	}
	blockBytes := b * extmem.ElementBytes
	var sealed []byte
	ns, _ = measure(ps, func() {
		sealed = sealed[:0]
		for i := 0; i < storeBatch; i++ {
			var err error
			sealed, err = enc.Seal(sealed, wire[i*blockBytes:(i+1)*blockBytes], uint64(i))
			must(err)
		}
	})
	out["extmem.seal_ns_per_block"] = ns / storeBatch
	sealedBytes := enc.WireSize(blockBytes)
	plain := make([]byte, 0, len(wire))
	ns, _ = measure(ps, func() {
		plain = plain[:0]
		for i := 0; i < storeBatch; i++ {
			var err error
			plain, err = enc.Open(plain, sealed[i*sealedBytes:(i+1)*sealedBytes], uint64(i))
			must(err)
		}
	})
	out["extmem.open_ns_per_block"] = ns / storeBatch

	// extmem: CryptStore over memory, the Disk over memory, FileStore.
	cs, err := extmem.NewCryptStore(extmem.NewMemStore(storeBatch, sealedBlockSize(b)), enc, b)
	if err != nil {
		return nil, err
	}
	r, w, a := storeProbe(ps, cs, storeBatch, rng)
	out["extmem.cryptstore_read_ns_per_block"] = r
	out["extmem.cryptstore_write_ns_per_block"] = w
	out["extmem.cryptstore_allocs_per_block"] = a / storeBatch

	disk := extmem.NewDisk(extmem.NewMemStore(storeBatch, b))
	addrs := runAddrs(storeBatch)
	dst := make([]extmem.Element, len(elems))
	w, wa := measure(ps, func() { disk.WriteMany(addrs, elems) })
	r, ra := measure(ps, func() { disk.ReadMany(addrs, dst) })
	out["extmem.disk_readmany_ns_per_block"] = r / storeBatch
	out["extmem.disk_writemany_ns_per_block"] = w / storeBatch
	out["extmem.disk_allocs_per_call"] = (ra + wa) / 2

	fs, err := extmem.NewFileStore(filepath.Join(tmpDir, "probe.blocks"), storeBatch, b)
	if err != nil {
		return nil, err
	}
	r, w, _ = storeProbe(ps, fs, storeBatch, rng)
	must(fs.Close())
	out["extmem.filestore_read_ns_per_block"] = r
	out["extmem.filestore_write_ns_per_block"] = w

	// shard and replica: the fan-out alone, over two memory children.
	pair := func() []extmem.BlockStore {
		return []extmem.BlockStore{extmem.NewMemStore(fanBatch, b), extmem.NewMemStore(fanBatch, b)}
	}
	sh, err := shard.New(pair())
	if err != nil {
		return nil, err
	}
	out["shard.read_ns_per_block"], out["shard.write_ns_per_block"], out["shard.allocs_per_call"] = storeProbe(ps, sh, fanBatch, rng)
	rp, err := replica.New(pair(), replica.Options{})
	if err != nil {
		return nil, err
	}
	out["replica.read_ns_per_block"], out["replica.write_ns_per_block"], out["replica.allocs_per_call"] = storeProbe(ps, rp, fanBatch, rng)

	// netstore: one client against one loopback server.
	bob := startObstore(b, false, nil)
	defer bob.close()
	nc, err := netstore.Dial(bob.url(), netstore.Options{})
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	ctx := context.Background()
	one := make([]extmem.Element, b)
	ns, a = measure(ps, func() { must(extmem.ReadBlocksCtx(ctx, nc, addrs[:1], one)) })
	out["netstore.rtt_1blk_us"] = ns / 1e3
	out["netstore.client_allocs_per_call"] = a
	out["netstore.read_ns_per_block_128"], out["netstore.write_ns_per_block_128"], _ = storeProbe(ps, nc, fanBatch, rng)

	// route: one butterfly compaction and one consolidation of a half-full
	// array; the compaction works in place, so the array is refilled
	// (untimed) before each.
	nBlocks := 1 << ps.routeLog
	env := extmem.NewEnv(4*nBlocks, b, probeM, 7)
	arr := env.D.Alloc(nBlocks)
	halfFull := probeElements(nBlocks*b, rng)
	for i := range halfFull {
		if (i/b)%2 == 1 {
			halfFull[i] = extmem.Element{}
		}
	}
	refill := func() { arr.Disk().WriteMany(blockAddrs(arr), halfFull) }
	out["route.butterfly_ns_per_block"] = timeRuns(ps.reps, refill, func() {
		route.CompactBlocksTight(env, arr, route.PredOccupied, 0)
	}) / float64(nBlocks)
	refill()
	out["route.consolidate_ns_per_block"] = timeRuns(ps.reps, nil, func() {
		mark := env.D.Mark()
		route.Consolidate(env, arr, extmem.Element.Occupied)
		env.D.Release(mark)
	}) / float64(nBlocks)

	// iblt: fill a table at the load core's sparse compaction uses, list it.
	keys := make([]uint64, ps.ibltKeys)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	val := []uint64{0}
	out["iblt.list_entries_ns_per_key"] = timeRuns(ps.reps, nil, func() {
		t := iblt.New(4*len(keys), 4, 1, 11)
		for _, k := range keys {
			t.Insert(k, val)
		}
		if got, ok := t.ListEntries(); !ok || len(got) != len(keys) {
			panic(fmt.Sprintf("iblt: listed %d of %d keys (ok=%v)", len(got), len(keys), ok))
		}
	}) / float64(len(keys))

	// emsort and the obsort engines: whole sorts of a fresh random array,
	// built before and checked after the timed call.
	sortMs := func(logN int, sorter func(*extmem.Env, extmem.Array)) float64 {
		n := 1 << logN
		var env *extmem.Env
		var arr extmem.Array
		fresh := func() {
			if env != nil {
				checkSorted(arr)
			}
			env = extmem.NewEnv(n/b, b, probeM, 7)
			arr = env.D.Alloc(n / b)
			arr.Disk().WriteMany(blockAddrs(arr), probeElements(n, rng))
		}
		ns := timeRuns(ps.reps, fresh, func() { sorter(env, arr) })
		checkSorted(arr)
		return ns / 1e6
	}
	out["emsort.mergesort_ms"] = sortMs(ps.emsortLog, func(e *extmem.Env, a extmem.Array) { emsort.MergeSort(e, a, obsort.ByKey) })
	out["obsort.bitonic_ms"] = sortMs(ps.enginesLog, func(e *extmem.Env, a extmem.Array) { obsort.Bitonic(e, a, obsort.ByKey) })
	out["obsort.zigzag_ms"] = sortMs(ps.enginesLog, func(e *extmem.Env, a extmem.Array) { obsort.Zigzag(e, a, obsort.ByKey) })
	out["obsort.bucket_ms"] = sortMs(ps.enginesLog, func(e *extmem.Env, a extmem.Array) { must(obsort.BucketSort(e, a, obsort.ByKey)) })
	return out, nil
}

func blockAddrs(a extmem.Array) []int {
	as := make([]int, a.Len())
	for i := range as {
		as[i] = a.Base() + i
	}
	return as
}

// checkSorted panics unless the array's elements are in key order: a probe
// that timed a wrong answer must not report a number.
func checkSorted(a extmem.Array) {
	buf := make([]extmem.Element, a.Len()*a.B())
	a.Disk().ReadMany(blockAddrs(a), buf)
	var prev extmem.Element
	seen := false
	for _, e := range buf {
		if !e.Occupied() {
			continue
		}
		if seen && e.Less(prev) {
			panic("sort probe: output out of order")
		}
		prev, seen = e, true
	}
}
