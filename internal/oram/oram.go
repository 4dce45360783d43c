// Package oram implements oblivious RAM simulation in the external-memory
// model, in one of two shapes, which New chooses by price from the public
// geometry alone: n, B, M and the cache free at the call.
//
// The scan arm is the trivial oblivious RAM. Logical block i lives at block
// i of one n-block array, and every access — Read, Write or Dummy — is one
// in-place scan of that array: 2n block I/Os in 2·⌈n/k⌉ round trips, k the
// scan's chunk (extmem.ScanRoundTrips). Its trace is a function of (n, B,
// the free cache) and the array's address alone, so its span is
// exact-audited; it hashes nothing, rebuilds nothing, cannot overflow and
// holds no cache between accesses. It rewrites every block on every access,
// so which one changed is hidden only where each write is sealed afresh
// (extmem.CryptStore); on plaintext storage the contents show it.
//
// The hierarchy is Goldreich–Ostrovsky's as adapted by Goodrich–Mitzenmacher
// [24]: a hierarchy of bucket hash tables, each rebuilt on a deterministic
// binary-counter schedule. A rebuild is the paper's own toolkit end to end:
// the live entries come out of the sparse
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
// The price rule (Arm): the hierarchy's exact amortized block I/Os over one
// full rebuild period under its "auto" rebuilds (AccessCost) against the
// scan's 2n per access (ScanCost), the block-volume price the rebuild's
// "auto" sorts by; on a tie the scan wins, and below the hierarchy's floor
// of cache (plan.free) the scan is the only arm. At M = 64 blocks the
// scan is the arm up to n ≈ 1 500 (n = 32: 64 I/Os an access against the
// hierarchy's 107), at M = 512 blocks the hierarchy from n = 64 (79 against
// 128). Options apply only where the hierarchy is the arm. The rule counts
// block I/Os, not round trips, and above the crossover the two can
// disagree: at n = 4 096, M = 64 blocks the hierarchy costs 158 round trips
// an access to the scan's 132. Which arm serves a round-trip-bound store
// better there has not been measured end to end.
//
// The ORAM stores n logical blocks of B words each, addressed 0..n-1, all
// initialized to zero. On the hierarchy every logical access probes one
// bucket per live level (real key at the first level that might hold it,
// PRF-driven dummies elsewhere), so the address trace is independent of the
// access sequence's keys and of the stored values. I/O is vectored: each
// probed bucket's beta slots travel as one read round trip and all
// write-backs are deferred into a single grouped flush, so one access costs
// at most LiveLevels()+1 store interactions, and the rebuild passes move
// cache-sized runs per round trip.
package oram

import (
	"errors"
	"fmt"
	"math/bits"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/obsort"
	"oblivext/internal/rng"
	"oblivext/internal/route"
)

// Options configures the hierarchy. Neither field changes the arm New
// chooses, and neither applies to the scan arm; New checks the engine name
// on either.
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

// The two shapes of an ORAM, as Arm and ORAM.Arm name them.
const (
	ArmScan      = "scan"
	ArmHierarchy = "hierarchy"
)

// ErrOverflow reports a hash-bucket overflow during a rebuild; per the
// library's Monte-Carlo convention the structure keeps a fixed trace and
// reports failure afterwards.
var ErrOverflow = errors.New("oram: bucket overflow during rebuild")

// entry flag layout in a table and in the buffer: the color bits carry the
// logical key, the dest bits carry the freshness timestamp, and
// FlagOccupied marks live entries (rebuild.go has the in-flight layout).

// plan is the hierarchy's shape, a function of (n, B, M) and the bucket
// size alone, which New and the predictors share: levels l0+1..lmax, level
// l a table of 2^l buckets of beta entry blocks, and a private buffer of
// bufCap = 2^l0 entry blocks that a flush empties into the level the
// binary-counter schedule names.
type plan struct {
	n, b, beta, l0, lmax, bufCap int
}

// planOf lays out the hierarchy for n logical blocks of b words against a
// cache of m, with buckets of bucketSize entry blocks (0: the default).
func planOf(n, b, m, bucketSize int) plan {
	p := plan{n: n, b: b, beta: bucketSize}
	if p.beta <= 0 {
		// Level l holds at most 2^(l-1) live entries in 2^l buckets; beta of
		// roughly 2·log2(n) makes the per-rebuild overflow probability
		// negligible (balls-in-bins tail), matching the w.h.p. claims.
		p.beta = max(4, 2*extmem.CeilLog2(n))
	}
	// The private buffer holds 2^l0 entry blocks: the largest power of two
	// that is at most n and whose blocks fit a quarter of the cache (the
	// rest is the rebuild sorter's window), but no fewer than 4.
	p.l0 = 2
	for (1<<(p.l0+1))*b*4 <= m && 1<<(p.l0+1) <= n {
		p.l0++
	}
	p.bufCap = 1 << p.l0
	p.lmax = max(extmem.CeilLog2(n)+1, p.l0+1)
	return p
}

// table is the number of entry blocks of level l's table.
func (p plan) table(l int) int { return (1 << l) * p.beta }

// bound is the most live entries level l ever holds: its keys are
// distinct, so no more than n, and it is built from one buffer and one
// filling of every level below it, so no more than bufCap·2^(l-l0-1) — a
// function of the geometry alone, which TestLevelOccupancyBound checks
// against the tables.
func (p plan) bound(l int) int { return min(p.table(l), p.n, p.bufCap<<(l-p.l0-1)) }

// target is the level the j-th flush of the buffer rebuilds, by the classic
// binary-counter schedule: l0 + trailingZeros(j) + 1, capped at lmax.
func (p plan) target(j int64) int {
	return min(p.l0+bits.TrailingZeros64(uint64(j))+1, p.lmax)
}

// flushes is the number of flushes in one full rebuild period: the one into
// lmax empties every level below it, leaving the hierarchy as New does.
func (p plan) flushes() int64 { return 1 << (p.lmax - p.l0 - 1) }

// free is the least free cache, in elements, the hierarchy runs in: its
// buffer beside the narrowest routing a rebuild of its largest table runs
// in (route.RouteFree), the way core.SortFree is derived.
func (p plan) free() int { return p.bufCap*p.b + route.RouteFree(p.table(p.lmax), p.b) }

// geometry is the public shape of a flush into target merging the given
// levels and the buffer, against a cache of m with free of it beside the
// buffer.
func (p plan) geometry(target int, levels []int, m, free int, sorter string) RebuildGeometry {
	g := RebuildGeometry{Buffer: p.bufCap, CapE: p.bufCap, Table: p.table(target), B: p.b, M: m, Free: free, Sorter: sorter}
	for _, l := range levels {
		g.Sources = append(g.Sources, p.table(l))
		g.Bounds = append(g.Bounds, p.bound(l))
		g.CapE += p.bound(l)
	}
	g.Kept = min(g.CapE, p.bound(target))
	return g
}

// probeCost is the exact price of one access's probes at live levels with
// free elements of the cache beside the buffer: each bucket's beta blocks
// read in chunks of at most the write-back budget, one round trip a chunk,
// and written back, one round trip each time the budget fills and once at
// the end — the loop of ORAM.probe, counted.
func (p plan) probeCost(live, free int) obs.Cost {
	if live == 0 {
		return obs.Cost{}
	}
	wcap := max(min(free/p.b-1, p.beta*live), 1)
	var rt int64
	held := 0
	for range live {
		for s := 0; s < p.beta; {
			c := min(p.beta-s, wcap)
			if held+c > wcap {
				rt, held = rt+1, 0
			}
			rt++
			held, s = held+c, s+c
		}
	}
	return obs.Cost{IOs: 2 * int64(p.beta*live), RoundTrips: rt + 1}
}

// ScanCost is the exact price of one access on the scan arm of n blocks of
// b words with free elements of the cache not checked out: one in-place
// scan, each block read and written once, in ⌈n/k⌉+1 round trips, each
// chunk's write carrying the next chunk's read.
func ScanCost(n, b, free int) obs.Cost {
	return obs.Cost{IOs: 2 * int64(n), RoundTrips: extmem.TwoSidedScanRoundTrips(n, b, free, 1)}
}

// AccessCost is the hierarchy's exact price, under its "auto" rebuilds and
// its default bucket size, over one full rebuild period of n logical blocks
// of b words against a cache of m with free of it not checked out at New:
// the block I/Os and round trips of every access's probes at that access's
// live levels and of every scheduled flush's rebuild (RebuildCost), and
// the period's length in accesses, bufCap·2^(lmax−l0−1). The period starts
// and ends with the largest level alone live, as New leaves it, so it
// repeats. Where the hierarchy does not run (below plan.free) or a
// rebuild has no exact price, it returns -1 for both and a length of 0.
//
// By the binary counter, before flush j level l0+1+k is live exactly when
// bit k of j−1 is: flush j rebuilds level l0+1+k for trailingZeros(j) = k
// from every level below it, 2^(K−1−k) times a period of 2^K flushes
// (K = lmax−l0−1), and lmax once from all of them; the bufCap accesses
// before flush j probe 1 + popcount(j−1) levels, C(K, c) groups with c.
func AccessCost(n, b, m, free int) (obs.Cost, int64) {
	p := planOf(n, b, m, 0)
	none := obs.Cost{IOs: -1, RoundTrips: -1}
	if free < p.free() {
		return none, 0
	}
	free -= p.bufCap * b // the buffer is held at every probe and rebuild
	var c obs.Cost
	k := p.lmax - p.l0 - 1
	groups := int64(1) // C(k, live-1)
	for live := 1; live <= k+1; live++ {
		pc := p.probeCost(live, free)
		c = c.Add(obs.Cost{IOs: groups * int64(p.bufCap) * pc.IOs, RoundTrips: groups * int64(p.bufCap) * pc.RoundTrips})
		groups = groups * int64(k-live+1) / int64(live)
	}
	var below []int // the levels below l
	for l := p.l0 + 1; l <= p.lmax; l++ {
		times, merged := p.flushes()>>(l-p.l0), below
		if l == p.lmax {
			times, merged = 1, append(below, l)
		}
		r := RebuildCost(p.geometry(l, merged, m, free, obsort.EngineAuto))
		if r.IOs < 0 {
			return none, 0
		}
		c = c.Add(obs.Cost{IOs: times * r.IOs, RoundTrips: times * r.RoundTrips})
		below = append(below, l)
	}
	return c, int64(p.bufCap) * p.flushes()
}

// Arm returns the shape New makes for n logical blocks of b words against
// a cache of m with free of it not checked out: ArmScan where the scan's
// block I/Os over the hierarchy's rebuild period are no more than the
// hierarchy's (AccessCost), or where the hierarchy does not run, and
// ArmHierarchy otherwise. Every input is public, and so is the choice.
func Arm(n, b, m, free int) string {
	c, accesses := AccessCost(n, b, m, free)
	if accesses == 0 || ScanCost(n, b, free).IOs*accesses <= c.IOs {
		return ArmScan
	}
	return ArmHierarchy
}

// ORAM is an oblivious RAM, a scan or a hierarchy (Arm). Not safe for
// concurrent use.
type ORAM struct {
	env     *extmem.Env
	plan                 // n and b on either arm, the rest on the hierarchy
	flat    extmem.Array // the scan arm's n blocks; the zero Array on the hierarchy
	sorter  string       // engine name, "auto" resolved per rebuild
	levels  []level
	buf     []extmem.Element // private top buffer, bufCap entry blocks
	bufLen  int
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

// New creates an ORAM of n zeroed logical blocks, of the shape Arm prices
// cheapest for the geometry and the cache free at the call.
func New(env *extmem.Env, n int, opts Options) (*ORAM, error) {
	if n < 1 {
		return nil, fmt.Errorf("oram: need n >= 1, got %d", n)
	}
	sorter, err := rebuildSorter(opts.Sorter)
	if err != nil {
		return nil, err
	}
	o := &ORAM{env: env, plan: plan{n: n, b: env.B()}, sorter: sorter}
	if Arm(n, o.b, env.M, env.M-env.Cache.Used()) == ArmScan {
		o.flat = env.D.Alloc(n)
		env.Scan(extmem.Array{}, o.flat, env.ScanBatchN(1, n), nil) // n zeroed blocks
		return o, nil
	}
	return o.build(opts.BucketSize)
}

// rebuildSorter resolves Options.Sorter to the engine name the hierarchy's
// rebuilds sort with, "" meaning "auto".
func rebuildSorter(name string) (string, error) {
	if name == "" {
		name = obsort.EngineAuto
	}
	if !obsort.ValidEngine(name) {
		return "", fmt.Errorf("oram: unknown sorter %q", name)
	}
	if name == obsort.EngineColumnsort {
		// Its size limit is a property of each sort's geometry, and capE
		// varies by level; "auto" takes it wherever a level's admits it.
		return "", fmt.Errorf("oram: sorter %q cannot sort every level's rebuild; use \"auto\"", name)
	}
	return name, nil
}

// build makes o the hierarchy, with buckets of bucketSize entry blocks (0:
// the default), its sorter checked by New.
func (o *ORAM) build(bucketSize int) (*ORAM, error) {
	env, n := o.env, o.n
	o.seed = env.Tape.Uint64()
	o.plan = planOf(n, o.b, env.M, bucketSize)
	if o.sorter == obsort.EngineRandomized {
		// Every rebuild sorts beside the buffer, the largest at least the
		// initial build's n entries and a full buffer's.
		free, need := env.M-env.Cache.Used()-o.bufCap*o.b, core.SortFree(max(n, o.bufCap), o.b)
		if free < need {
			return nil, fmt.Errorf("oram: sorter %q needs %d elements of cache free beside the %d-entry buffer, not %d; use \"auto\": %w",
				o.sorter, need, o.bufCap, free, core.ErrSortCache)
		}
	}
	// A rebuild routes entries to their slots on targets kept in the Aux
	// bits, which are 24 wide.
	if o.table(o.lmax) > 1<<24 {
		return nil, fmt.Errorf("oram: largest table, 2^%d buckets of %d, exceeds 2^24 blocks", o.lmax, o.beta)
	}
	o.buf = env.Cache.Buf(o.bufCap * o.b)
	for l := o.l0 + 1; l <= o.lmax; l++ {
		o.levels = append(o.levels, level{
			table:  env.D.Alloc(o.table(l)),
			bucket: 1 << l,
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

// Arm returns the ORAM's shape, ArmScan or ArmHierarchy.
func (o *ORAM) Arm() string {
	if o.levels == nil {
		return ArmScan
	}
	return ArmHierarchy
}

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
// the per-access round-trip bound of L reads plus one grouped write-back;
// 0 on the scan arm.
func (o *ORAM) LiveLevels() int {
	live := 0
	for i := range o.levels {
		if o.levels[i].live {
			live++
		}
	}
	return live
}

// BucketSize returns beta, the number of entry blocks per hash bucket; 0
// on the scan arm, which has none.
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

// access reads logical block i (or performs a pure dummy access for
// i < 0), optionally replacing its payload, on the ORAM's arm.
func (o *ORAM) access(i int, newData []uint64) ([]uint64, error) {
	if o.failed {
		return nil, ErrOverflow
	}
	if i >= o.n {
		return nil, fmt.Errorf("oram: index %d out of range [0,%d)", i, o.n)
	}
	sp := o.env.Obs.Start("oram-access")
	defer o.env.Obs.End(sp)
	if o.levels == nil {
		return o.scan(sp, i, newData), nil
	}
	return o.probe(i, newData)
}

// scan is an access on the scan arm: one in-place scan of the n blocks,
// which copies block i out for a read and replaces it for a write. Every
// access is the same scan, so its trace is a function of (n, B, the free
// cache) and the array's address, and the span's prediction and audit key
// are exact.
func (o *ORAM) scan(sp *obs.Span, i int, newData []uint64) []uint64 {
	if sp != nil {
		free := o.env.M - o.env.Cache.Used()
		sp.SetAttr("arm", ArmScan)
		sp.SetPredicted(ScanCost(o.n, o.b, free))
		sp.Audit(fmt.Sprintf("oram/scan/n=%d/B=%d/free=%d/base=%d", o.n, o.b, free, o.flat.Base()))
	}
	var payload []uint64
	if i >= 0 && newData == nil {
		payload = make([]uint64, o.b)
	}
	b := o.b
	o.env.Scan(o.flat, o.flat, o.env.ScanBatchN(1, o.n), func(lo int, chunk []extmem.Element) {
		if off := (i - lo) * b; i >= lo && off < len(chunk) {
			for t, blk := 0, chunk[off:off+b]; t < b; t++ {
				if newData != nil {
					blk[t].Val = newData[t]
				} else {
					payload[t] = blk[t].Val
				}
			}
		}
	})
	return payload
}

// probe probes the hierarchy for key i (or performs a pure dummy access
// for i < 0), optionally replacing the payload, then appends the result to
// the top buffer and rebuilds on schedule.
func (o *ORAM) probe(i int, newData []uint64) ([]uint64, error) {
	o.ts++
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
	free := o.env.M - o.env.Cache.Used()
	spp.SetPredicted(o.probeCost(live, free))
	// The write-back buffer budget, in blocks, at least one to keep the
	// checkout well-formed with no live levels.
	wcap := max(min(free/o.b-1, o.beta*live), 1)
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
