package extmem

import (
	"fmt"

	"oblivext/internal/obs"
	"oblivext/internal/rng"
)

// Env bundles what every algorithm in the paper runs against: Bob's disk,
// Alice's private-cache accountant, and the random tape. M is the private
// memory size in elements; M/B ("m" in the paper) must be at least 2 for
// the scan-based algorithms, at least 3 for butterfly compaction, and large
// enough for the wide-block/tall-cache assumptions where a theorem needs
// them (each algorithm documents and checks its own requirement).
type Env struct {
	D     *Disk
	Cache *Cache
	Tape  *rng.Tape
	M     int
	// Obs, when non-nil, collects hierarchical phase spans: every
	// instrumented pass opens a span around itself and the Disk folds each
	// block access into the open spans' audit fingerprints. Nil (the
	// default) disables observability at the cost of one pointer check per
	// span site. Attach via EnableObs so the Disk hook stays in step.
	Obs *obs.Collector
}

// EnableObs attaches a fresh span collector to the environment and its
// disk, snapshotting the disk's counters (crypto bytes folded in) at every
// span boundary, and returns it.
func (e *Env) EnableObs() *obs.Collector {
	col := obs.NewCollector(e.D.Stats)
	e.Obs = col
	e.D.SetObs(col)
	return col
}

// NewEnv builds an environment over an in-memory store.
//
// startBlocks is an initial capacity hint; the store grows on demand.
func NewEnv(startBlocks, b, m int, seed uint64) *Env {
	if m < 2*b {
		panic("extmem: need M >= 2B")
	}
	return &Env{
		D:     NewDisk(NewMemStore(startBlocks, b)),
		Cache: NewCache(m, false),
		Tape:  rng.NewTape(seed, seed^0x9e3779b97f4a7c15),
		M:     m,
	}
}

// NewEnvOn builds an environment over an arbitrary block store.
func NewEnvOn(store BlockStore, m int, seed uint64) *Env {
	if m < 2*store.BlockSize() {
		panic("extmem: need M >= 2B")
	}
	return &Env{
		D:     NewDisk(store),
		Cache: NewCache(m, false),
		Tape:  rng.NewTape(seed, seed^0x9e3779b97f4a7c15),
		M:     m,
	}
}

// B returns the block size in elements.
func (e *Env) B() int { return e.D.B() }

// ScanBatch returns how many blocks a streaming scan may move per vectored
// round trip: the free private cache split among `buffers` concurrent chunk
// buffers, less one block of slack for loop state, and at least 1 (a
// one-block buffer is exactly the scalar scan every algorithm already
// afforded). Callers check the result's worth of cache out per buffer, so
// HighWater never exceeds M beyond what the scalar path used.
//
// The k=1 floor is a documented one-block-per-buffer grace: when the free
// cache cannot even hold one block per buffer (a caller has overdrawn the
// accountant), the scan still proceeds at scalar granularity and the
// overdraft is recorded in HighWater for tests to catch. In strict mode
// there is no grace — handing out memory the accountant doesn't have is
// exactly what strict mode exists to forbid — so ScanBatch panics up
// front with the overdraft spelled out, rather than letting the caller's
// subsequent Buf trip the opaque Acquire overflow panic.
func (e *Env) ScanBatch(buffers int) int {
	if buffers < 1 {
		panic("extmem: ScanBatch needs at least one buffer")
	}
	free := e.M - e.Cache.Used()
	if e.Cache.Strict() && free < buffers*e.B() {
		panic(fmt.Sprintf("extmem: ScanBatch overdrawn in strict mode: %d elements free < %d buffers x %d block (M=%d, used=%d)",
			free, buffers, e.B(), e.M, e.Cache.Used()))
	}
	return scanBatchOf(free, e.B(), buffers)
}

// scanBatchOf is ScanBatch as a function of the free cache alone.
func scanBatchOf(free, b, buffers int) int {
	return max(1, free/(buffers*b)-1)
}

// ScanRoundTrips is the round trips one side of a scan of n blocks makes
// when ScanBatchN(buffers, n) sizes its chunks against free elements of the
// cache: the one scan formula every round-trip predictor prices a pass by.
func ScanRoundTrips(n, b, free, buffers int) int64 {
	if n == 0 {
		return 0
	}
	return int64(CeilDiv(n, scanBatchOf(free, b, buffers)))
}

// ScanBatchN is ScanBatch clamped to the length of the region being
// scanned, so short scans don't check out near-cache-sized buffers.
func (e *Env) ScanBatchN(buffers, n int) int {
	k := e.ScanBatch(buffers)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// MBlocks returns m = M/B, the private cache size in blocks.
func (e *Env) MBlocks() int { return e.M / e.B() }

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int { return (a + b - 1) / b }

// CeilDiv64 returns ceil(a/b) for positive b.
func CeilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// CeilLog2 returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func CeilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// FloorLog2 returns floor(log2(n)) for n >= 1.
func FloorLog2(n int) int {
	if n < 1 {
		panic("extmem: FloorLog2 of non-positive value")
	}
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
