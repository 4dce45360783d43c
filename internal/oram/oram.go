// Package oram implements a hierarchical oblivious RAM simulation in the
// external-memory model, in the style of Goldreich–Ostrovsky as adapted by
// Goodrich–Mitzenmacher [24]: a hierarchy of bucket hash tables, each
// rebuilt on a deterministic binary-counter schedule. A rebuild is the
// paper's own toolkit end to end: the live entries come out of the sparse
// tables being merged — in one scan and a private collect from a table whose
// public bound on them fits the cache, through Theorem 6's routing network
// (tight compaction) from the others — tagged with their hash bucket on the
// way, one data-oblivious sort orders those — only those — by bucket and
// then key and sinks the empties, and the prefix the level keeps is written
// into the new table from the cache or, when it does not fit the cache,
// expanded into it by the network in reverse. A key has at most one live
// copy in the hierarchy, since an access erases the copy it finds, so no
// rebuild has a stale copy to drop.
// The sort is pluggable: its term of the rebuild inherits the sort's
// complexity directly, which is the paper's headline claim that its sorting
// result improves the amortized I/O overhead of oblivious RAM simulation by
// a logarithmic factor (TestORAMWithRandomizedRebuilds runs the hierarchy
// with the deterministic Lemma-2 sort and with the randomized one).
//
// The ORAM stores n logical blocks of B words each, addressed 0..n-1, all
// initialized to zero. Every logical access probes one bucket per live
// level (real key at the first level that might hold it, PRF-driven dummies
// elsewhere), so the address trace is independent of the access sequence's
// keys and of the stored values. I/O is vectored: each probed bucket's beta
// slots travel as one read round trip and all write-backs are deferred into
// a single grouped flush, so one access costs at most LiveLevels()+1 store
// interactions, and the rebuild passes move cache-sized runs per round trip.
package oram

import (
	"errors"
	"fmt"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/rng"
)

// Options configures the hierarchy.
type Options struct {
	// Sorter names the engine that sorts each rebuild (obsort.EngineNames,
	// but not "columnsort", whose size limit not every level's rebuild
	// meets); "" means "auto", which core.Engine resolves per rebuild from
	// the rebuild's public geometry and the cache free at the sort. It is
	// attached to rebuild spans, and rebuild spans are exact-audited only
	// when it is not "randomized" (the randomized pipeline consumes tape,
	// so its trace differs per rebuild; the other engines replay
	// bit-identical rebuild traces for equal geometry).
	Sorter string
	// BucketSize is the number of entry blocks per hash bucket; 0 chooses
	// max(4, 2·ceil(log2 n)).
	BucketSize int
}

// ErrOverflow reports a hash-bucket overflow during a rebuild; per the
// library's Monte-Carlo convention the structure keeps a fixed trace and
// reports failure afterwards.
var ErrOverflow = errors.New("oram: bucket overflow during rebuild")

// entry flag layout in a table and in the buffer: the color bits carry the
// logical key, the dest bits carry the freshness timestamp, and
// FlagOccupied marks live entries (rebuild.go has the in-flight layout).

// ORAM is a hierarchical oblivious RAM. Not safe for concurrent use.
type ORAM struct {
	env     *extmem.Env
	n       int
	b       int
	sorter  string // engine name, "auto" resolved per rebuild
	beta    int
	l0      int
	lmax    int
	levels  []level
	buf     []extmem.Element // private top buffer, bufCap entry blocks
	bufLen  int
	bufCap  int
	t       int64 // accesses since creation
	ts      uint64
	seed    uint64
	failed  bool
	rebuild RebuildStats
	addrs   []int // probe address scratch (addresses are public, not cache-accounted)
}

type level struct {
	table  extmem.Array // buckets * beta entry blocks
	epoch  uint64
	live   bool
	bucket int // number of buckets = capacity in entries
}

// RebuildStats counts rebuild work, the term that dominates the amortized
// cost of an access: the rebuilds run, and the entry blocks — of the source
// tables and the buffer — they merged.
type RebuildStats struct {
	Count       int64
	EntryBlocks int64
}

// New creates an ORAM of n zeroed logical blocks.
func New(env *extmem.Env, n int, opts Options) (*ORAM, error) {
	if n < 1 {
		return nil, fmt.Errorf("oram: need n >= 1, got %d", n)
	}
	o := &ORAM{env: env, n: n, b: env.B(), seed: env.Tape.Uint64()}
	o.sorter = opts.Sorter
	if o.sorter == "" {
		o.sorter = obsort.EngineAuto
	}
	if !obsort.ValidEngine(o.sorter) {
		return nil, fmt.Errorf("oram: unknown sorter %q", o.sorter)
	}
	if o.sorter == obsort.EngineColumnsort {
		// Its size limit is a property of each sort's geometry, and capE
		// varies by level; "auto" takes it wherever a level's admits it.
		return nil, fmt.Errorf("oram: sorter %q cannot sort every level's rebuild; use \"auto\"", o.sorter)
	}
	o.beta = opts.BucketSize
	if o.beta <= 0 {
		// Level l holds at most 2^(l-1) live entries in 2^l buckets; beta of
		// roughly 2·log2(n) makes the per-rebuild overflow probability
		// negligible (balls-in-bins tail), matching the w.h.p. claims.
		o.beta = max(4, 2*extmem.CeilLog2(n))
	}
	// The private buffer holds 2^l0 entry blocks: the largest power of two
	// that is at most n and whose blocks fit a quarter of the cache (the
	// rest is the rebuild sorter's window), but no fewer than 4.
	o.l0 = 2
	for (1<<(o.l0+1))*o.b*4 <= env.M && 1<<(o.l0+1) <= n {
		o.l0++
	}
	o.bufCap = 1 << o.l0
	if o.sorter == obsort.EngineRandomized {
		// Every rebuild sorts beside the buffer, the largest at least the
		// initial build's n entries and a full buffer's.
		free, need := env.M-env.Cache.Used()-o.bufCap*o.b, core.SortFree(max(n, o.bufCap), o.b)
		if free < need {
			return nil, fmt.Errorf("oram: sorter %q needs %d elements of cache free beside the %d-entry buffer, not %d; use \"auto\": %w",
				o.sorter, need, o.bufCap, free, core.ErrSortCache)
		}
	}
	o.lmax = extmem.CeilLog2(n) + 1
	if o.lmax <= o.l0 {
		o.lmax = o.l0 + 1
	}
	// A rebuild routes entries to their slots on targets kept in the Aux
	// bits, which are 24 wide.
	if (1<<o.lmax)*o.beta > 1<<24 {
		return nil, fmt.Errorf("oram: largest table, 2^%d buckets of %d, exceeds 2^24 blocks", o.lmax, o.beta)
	}
	o.buf = env.Cache.Buf(o.bufCap * o.b)
	for l := o.l0 + 1; l <= o.lmax; l++ {
		buckets := 1 << l
		o.levels = append(o.levels, level{
			table:  env.D.Alloc(buckets * o.beta),
			bucket: buckets,
		})
	}
	// Initial build: load all n zeroed entries into the top level.
	if err := o.initialBuild(); err != nil {
		env.Cache.Free(o.buf)
		return nil, err
	}
	return o, nil
}

// N returns the number of logical blocks.
func (o *ORAM) N() int { return o.n }

// Rebuilds returns rebuild statistics.
func (o *ORAM) Rebuilds() RebuildStats { return o.rebuild }

// LevelRanges returns the absolute block-address range [base, base+len) of
// each level's table, smallest level first — a diagnostic for tests that
// check the structural shape of the probe trace.
func (o *ORAM) LevelRanges() [][2]int {
	out := make([][2]int, len(o.levels))
	for i, lv := range o.levels {
		out[i] = [2]int{lv.table.Base(), lv.table.Base() + lv.table.Len()}
	}
	return out
}

// Failed reports whether an internal rebuild overflowed (Monte-Carlo
// failure); subsequent accesses return ErrOverflow.
func (o *ORAM) Failed() bool { return o.failed }

// LiveLevels returns how many levels the next access will probe — the L in
// the per-access round-trip bound of L reads plus one grouped write-back.
func (o *ORAM) LiveLevels() int {
	live := 0
	for i := range o.levels {
		if o.levels[i].live {
			live++
		}
	}
	return live
}

// BucketSize returns beta, the number of entry blocks per hash bucket.
func (o *ORAM) BucketSize() int { return o.beta }

func (o *ORAM) lvl(l int) *level { return &o.levels[l-o.l0-1] }

// bucketOf returns the PRF bucket for a key at a level epoch.
func (o *ORAM) bucketOf(lv *level, l int, key uint64) int {
	h := rng.Mix(o.seed, uint64(l)<<56^lv.epoch<<28^rng.Mix(lv.epoch+1, key))
	return int(h % uint64(lv.bucket))
}

// Read returns the payload of logical block i.
func (o *ORAM) Read(i int) ([]uint64, error) { return o.access(i, nil) }

// Write replaces the payload of logical block i (len(words) == B).
func (o *ORAM) Write(i int, words []uint64) error {
	if len(words) != o.b {
		return fmt.Errorf("oram: payload width %d != %d", len(words), o.b)
	}
	_, err := o.access(i, words)
	return err
}

// Dummy performs an access indistinguishable from a real one without
// touching any logical block — the padding operation a data-oblivious
// caller uses to hide whether it had an access to make.
func (o *ORAM) Dummy() error {
	_, err := o.access(-1, nil)
	return err
}

// access probes the hierarchy for key i (or performs a pure dummy access
// for i < 0), optionally replacing the payload, then appends the result to
// the top buffer and rebuilds on schedule.
func (o *ORAM) access(i int, newData []uint64) ([]uint64, error) {
	if o.failed {
		return nil, ErrOverflow
	}
	if i >= o.n {
		return nil, fmt.Errorf("oram: index %d out of range [0,%d)", i, o.n)
	}
	o.ts++
	sp := o.env.Obs.Start("oram-access")
	defer o.env.Obs.End(sp)
	found := false
	var payload []uint64

	// Probe the private buffer (free: it is cache-resident).
	if i >= 0 {
		for e := 0; e < o.bufLen; e++ {
			blk := o.buf[e*o.b : (e+1)*o.b]
			if blk[0].Occupied() && blk[0].Color() == i {
				payload = extractPayload(blk)
				found = true
				// Supersede in place: mark stale; the fresh copy is
				// appended below.
				for t := range blk {
					blk[t].Flags &^= extmem.FlagOccupied
				}
				break
			}
		}
	}

	// Probe one bucket per live level. Reads stay sequential across levels
	// (the level-l bucket depends on found-so-far), but each bucket's beta
	// slots travel as one vectored read, and every write-back is deferred:
	// the probed blocks are flushed with a single grouped WriteMany at the
	// end, so one access costs at most LiveLevels()+1 round trips instead
	// of 2·beta·LiveLevels() scalar ones. The write-backs have no ordering
	// dependency — each probed block is rewritten (re-encrypted in the real
	// deployment) whether or not it held the key, so the trace keeps its
	// fixed, access-independent shape.
	live := o.LiveLevels()
	spp := o.env.Obs.Start("probe")
	spp.SetAttrInt("live-levels", int64(live))
	// The probed bucket indices are PRF-fresh per access, so an exact trace
	// fingerprint would differ between accesses of identical geometry; the
	// kind sequence (beta reads per live level, one grouped write-back) is
	// the geometry-determined invariant, so probe spans audit in shape mode.
	spp.AuditShape(fmt.Sprintf("oram/probe/live=%d/beta=%d", live, o.beta))
	if live > 0 {
		spp.SetPredicted(obs.Cost{IOs: 2 * int64(o.beta) * int64(live), RoundTrips: int64(live) + 1})
	} else {
		spp.SetPredicted(obs.Cost{})
	}
	wcap := (o.env.M-o.env.Cache.Used())/o.b - 1 // write-back buffer budget, in blocks
	if wcap < 1 {
		wcap = 1
	}
	if wcap > o.beta*live {
		wcap = o.beta * live
	}
	if wcap == 0 {
		wcap = 1 // no live levels: keep the buffer checkout well-formed
	}
	buf := o.env.Cache.Buf(wcap * o.b)
	o.addrs = o.addrs[:0]
	held := 0 // probed blocks buffered for the grouped write-back
	flush := func() {
		if held > 0 {
			o.env.D.WriteMany(o.addrs[:held], buf[:held*o.b])
			o.addrs = o.addrs[:0]
			held = 0
		}
	}
	for l := o.l0 + 1; l <= o.lmax; l++ {
		lv := o.lvl(l)
		if !lv.live {
			continue
		}
		var bkt int
		if i >= 0 && !found {
			bkt = o.bucketOf(lv, l, uint64(i))
		} else {
			bkt = o.bucketOf(lv, l, 1<<40|o.ts)
		}
		base := lv.table.Base() + bkt*o.beta
		for s := 0; s < o.beta; {
			c := o.beta - s
			if c > wcap {
				c = wcap // cache too small for a whole bucket: chunk it
			}
			if held+c > wcap {
				flush() // make room; only undersized caches ever hit this
			}
			for j := 0; j < c; j++ {
				o.addrs = append(o.addrs, base+s+j)
			}
			chunk := buf[held*o.b : (held+c)*o.b]
			o.env.D.ReadMany(o.addrs[held:held+c], chunk)
			if i >= 0 && !found {
				for j := 0; j < c; j++ {
					blk := chunk[j*o.b : (j+1)*o.b]
					if blk[0].Occupied() && blk[0].Color() == i {
						payload = extractPayload(blk)
						found = true
						// Erase the found entry so future epochs cannot
						// hold two live copies (content-only change; every
						// probed block is written back regardless, keeping
						// the trace fixed).
						for t := range blk {
							blk[t].Flags &^= extmem.FlagOccupied
						}
						break
					}
				}
			}
			held += c
			s += c
		}
	}
	flush() // the one grouped write-back of every probed bucket
	o.env.Cache.Free(buf)
	o.env.Obs.End(spp)

	if i >= 0 {
		if payload == nil {
			payload = make([]uint64, o.b)
		}
		if newData != nil {
			copy(payload, newData)
		}
		o.appendBuf(uint64(i), payload)
	} else {
		o.appendBuf(1<<23-1, nil) // dummy filler entry, never matched
	}

	o.t++
	if o.bufLen == o.bufCap {
		if err := o.rebuildOnSchedule(); err != nil {
			return nil, err
		}
	}
	if !found && i >= 0 {
		// Key absent from every level: cannot happen after initialBuild.
		return nil, fmt.Errorf("oram: key %d vanished", i)
	}
	return payload, nil
}

// extractPayload copies the Val words out of an entry block.
func extractPayload(blk []extmem.Element) []uint64 {
	out := make([]uint64, len(blk))
	for t := range blk {
		out[t] = blk[t].Val
	}
	return out
}

// appendBuf adds an entry to the private top buffer. key 1<<23-1 with nil
// payload is the dummy filler.
func (o *ORAM) appendBuf(key uint64, payload []uint64) {
	blk := o.buf[o.bufLen*o.b : (o.bufLen+1)*o.b]
	for t := range blk {
		var v uint64
		if payload != nil {
			v = payload[t]
		}
		blk[t] = extmem.Element{Val: v}
		if payload != nil {
			blk[t].Flags = extmem.FlagOccupied
			blk[t].SetColor(int(key))
			blk[t].SetCellDest(int(o.ts & 0x7fffffff))
		}
	}
	o.bufLen++
}
