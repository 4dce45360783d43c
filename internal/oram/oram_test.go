package oram

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obs"
	"oblivext/internal/trace"
)

func newEnv(b, m int, seed uint64) *extmem.Env {
	return extmem.NewEnv(256, b, m, seed)
}

// armGeometries are one (B, M, n) of each arm, as Arm prices them: the
// scan's 2n block I/Os per access undercut the hierarchy's 328 at n = 16
// with a 16-block cache, and the hierarchy's undercut the scan's 128 at
// n = 64 with a 128-block one. The tests of the hierarchy's probes run at
// the second.
var armGeometries = map[string][3]int{ArmScan: {4, 64, 16}, ArmHierarchy: {4, 512, 64}}

// newArm makes an ORAM at arm's geometry and checks New chose that arm.
func newArm(t *testing.T, arm string, seed uint64) (*extmem.Env, *ORAM) {
	t.Helper()
	g := armGeometries[arm]
	env := newEnv(g[0], g[1], seed)
	o, err := New(env, g[2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Arm() != arm {
		t.Fatalf("B=%d M=%d n=%d: New made the %s, want the %s", g[0], g[1], g[2], o.Arm(), arm)
	}
	return env, o
}

// forEachArm runs test as a subtest on an ORAM of each arm.
func forEachArm(t *testing.T, seed uint64, test func(t *testing.T, env *extmem.Env, o *ORAM)) {
	for _, arm := range []string{ArmScan, ArmHierarchy} {
		t.Run(arm, func(t *testing.T) {
			env, o := newArm(t, arm, seed)
			test(t, env, o)
		})
	}
}

func TestReadAfterInitIsZero(t *testing.T) {
	forEachArm(t, 1, readAfterInitIsZero)
}

func readAfterInitIsZero(t *testing.T, _ *extmem.Env, o *ORAM) {
	for i := 0; i < o.N(); i++ {
		v, err := o.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		for _, w := range v {
			if w != 0 {
				t.Fatalf("block %d not zero-initialized: %v", i, v)
			}
		}
	}
}

// TestNewRejectsUnknownSorter: an engine name is checked when the ORAM is
// made, not at its first rebuild's sort. "bucket", a retired engine whose
// trace depended on the keys' order, is unknown.
func TestNewRejectsUnknownSorter(t *testing.T) {
	for _, name := range []string{"quicksort", "bucket"} {
		if _, err := New(newEnv(4, 64, 1), 10, Options{Sorter: name}); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("err = %v, want one naming the unknown sorter %q", err, name)
		}
	}
}

// TestNewRejectsColumnsort: columnsort's size limit is a property of each
// sort's geometry and capE varies by level, so it is not a fixed rebuild
// sorter; "auto" takes it where a level's geometry admits it.
func TestNewRejectsColumnsort(t *testing.T) {
	if _, err := New(newEnv(4, 64, 1), 10, Options{Sorter: "columnsort"}); err == nil || !strings.Contains(err.Error(), `"columnsort"`) {
		t.Fatalf("err = %v, want one naming columnsort", err)
	}
}

// TestNewRejectsRandomizedBelowItsCache: the randomized sort declares
// core.ErrSortCache below core.SortFree, so an ORAM whose rebuilds would
// sort with it beside a smaller free cache is refused when it is made,
// before any I/O; one with the cache to spare builds and rebuilds. Beside a
// buffer of 4 blocks that is M = 8B or 9B, where the hierarchy is the arm
// only from n ≈ 12 000: below that the scan is, and sorts nothing.
func TestNewRejectsRandomizedBelowItsCache(t *testing.T) {
	const b, n = 8, 1 << 14
	for _, mb := range []int{8, 9} { // the 4-block buffer leaves 4B and 5B
		if arm := Arm(n, b, mb*b, mb*b); arm != ArmHierarchy {
			t.Fatalf("M = %dB, n = %d: the arm is the %s, want the hierarchy", mb, n, arm)
		}
		env := newEnv(b, mb*b, 1)
		_, err := New(env, n, Options{Sorter: "randomized"})
		if !errors.Is(err, core.ErrSortCache) || !strings.Contains(err.Error(), `"randomized"`) {
			t.Fatalf("M = %dB: err = %v, want core.ErrSortCache naming the sorter", mb, err)
		}
		if st := env.D.Stats(); st.Total() != 0 || env.Cache.Used() != 0 {
			t.Fatalf("M = %dB: the rejection moved %d block I/Os and left %d cache elements held", mb, st.Total(), env.Cache.Used())
		}
	}
	if _, err := New(newEnv(b, 8*b, 1), 32, Options{Sorter: "randomized"}); err != nil {
		t.Fatalf("M = 8B, n = 32, the scan arm: %v", err)
	}
	o, err := New(newEnv(b, 4096, 1), 64, Options{Sorter: "randomized"})
	if err != nil || o.Arm() != ArmHierarchy {
		t.Fatalf("M = 4096, n = 64: (%v, %v), want the hierarchy", o, err)
	}
	for i := 0; i < 128; i++ { // two flushes of the 64-entry buffer into the one level
		if err := o.Write(i%64, make([]uint64, b)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if o.Rebuilds().Count != 3 {
		t.Fatalf("%d rebuilds, want the build and two flushes", o.Rebuilds().Count)
	}
}

// TestNewBelowHierarchyFloor: at M = 4B to 7B the hierarchy's buffer and
// the narrowest routing window beside it do not fit (plan.free), so the
// scan is the only arm, and New never panics there: it builds, every write
// reads back, and the cache is balanced after each access.
func TestNewBelowHierarchyFloor(t *testing.T) {
	const n = 32
	for _, b := range []int{4, 8} {
		for mb := 4; mb <= 7; mb++ {
			m := mb * b
			if floor := planOf(n, b, m, 0).free(); floor <= m {
				t.Fatalf("B=%d M=%dB: the hierarchy's floor is %d, within the cache", b, mb, floor)
			}
			if _, period := AccessCost(n, b, m, m); period != 0 || Arm(n, b, m, m) != ArmScan {
				t.Fatalf("B=%d M=%dB: the hierarchy priced below its floor", b, mb)
			}
			env := newEnv(b, m, 1)
			o, err := New(env, n, Options{})
			if err != nil || o.Arm() != ArmScan {
				t.Fatalf("B=%d M=%dB: (%v, %v), want the scan arm", b, mb, o, err)
			}
			for i := 0; i < 2*n; i++ {
				words := make([]uint64, b)
				words[0], words[b-1] = uint64(i), uint64(i*i)
				if err := o.Write(i*7%n, words); err != nil {
					t.Fatalf("B=%d M=%dB: write %d: %v", b, mb, i, err)
				}
				got, err := o.Read(i * 7 % n)
				if err != nil || !slices.Equal(got, words) {
					t.Fatalf("B=%d M=%dB: read %d = (%v, %v), want %v", b, mb, i*7%n, got, err, words)
				}
				if env.Cache.Used() != 0 || env.Cache.HighWater() > m {
					t.Fatalf("B=%d M=%dB: %d cache elements held after an access, high-water %d", b, mb, env.Cache.Used(), env.Cache.HighWater())
				}
			}
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	forEachArm(t, 2, readYourWrites)
}

func readYourWrites(t *testing.T, _ *extmem.Env, o *ORAM) {
	payload := func(i int) []uint64 {
		return []uint64{uint64(i) * 7, uint64(i) + 1, uint64(i) * uint64(i), 42}
	}
	for i := 0; i < o.N(); i++ {
		if err := o.Write(i, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := o.N() - 1; i >= 0; i-- {
		v, err := o.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := payload(i)
		for j := range want {
			if v[j] != want[j] {
				t.Fatalf("block %d word %d = %d, want %d", i, j, v[j], want[j])
			}
		}
	}
}

// TestAgainstReferenceModel drives the ORAM with a long random workload and
// checks every read against a plain map.
func TestAgainstReferenceModel(t *testing.T) {
	forEachArm(t, 3, againstReferenceModel)
}

func againstReferenceModel(t *testing.T, _ *extmem.Env, o *ORAM) {
	n := o.N()
	ref := make(map[int][]uint64)
	r := rand.New(rand.NewPCG(7, 7))
	for step := 0; step < 600; step++ {
		i := r.IntN(n)
		switch r.IntN(3) {
		case 0:
			v := []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
			if err := o.Write(i, v); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			ref[i] = v
		case 1:
			got, err := o.Read(i)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			want := ref[i]
			if want == nil {
				want = make([]uint64, 4)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d: block %d word %d = %d want %d", step, i, j, got[j], want[j])
				}
			}
		default:
			if err := o.Dummy(); err != nil {
				t.Fatalf("step %d dummy: %v", step, err)
			}
		}
	}
	if o.Failed() {
		t.Fatal("ORAM failed during workload")
	}
}

// TestObliviousness checks the ORAM security property. Unlike the scan and
// circuit algorithms, hierarchical ORAM gives *distributional* trace
// independence: each (epoch, key) pair is probed at most once, so bucket
// choices are fresh PRF outputs. We therefore check (a) trace length is a
// function of the access count alone, and (b) even the most revealing
// workload — hammering one logical block — produces well-spread bucket
// probes rather than repeated addresses. The scan arm passes both a
// fortiori: every access is the same scan of every block.
func TestObliviousness(t *testing.T) {
	for _, arm := range []string{ArmScan, ArmHierarchy} {
		t.Run(arm, func(t *testing.T) { obliviousness(t, arm) })
	}
}

func obliviousness(t *testing.T, arm string) {
	const n = 16
	run := func(pattern func(step int) int) (trace.Summary, []trace.Op) {
		g := armGeometries[arm]
		env := newEnv(g[0], g[1], 99)
		rec := trace.NewRecorder(1 << 22)
		env.D.SetRecorder(rec)
		o, err := New(env, g[2], Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec.Enable(1 << 22) // drop the build trace, keep the access trace
		for step := 0; step < 200; step++ {
			i := pattern(step)
			if step%2 == 0 {
				if err := o.Write(i, []uint64{uint64(step), 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := o.Read(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rec.Summarize(), rec.Ops()
	}
	sameBlock, opsSame := run(func(int) int { return 3 })
	scan, _ := run(func(s int) int { return s % n })
	random, _ := run(func(s int) int { return (s*7 + 3) % n })
	if sameBlock.Len != scan.Len || sameBlock.Len != random.Len {
		t.Fatalf("ORAM trace length depends on the access pattern: %d %d %d",
			sameBlock.Len, scan.Len, random.Len)
	}
	// Hammering block 3 must not hammer any disk address: no single block
	// address may dominate the probe trace.
	freq := map[int64]int{}
	for _, op := range opsSame {
		freq[op.Addr]++
	}
	maxFreq, total := 0, len(opsSame)
	for _, f := range freq {
		if f > maxFreq {
			maxFreq = f
		}
	}
	if maxFreq > total/10 {
		t.Fatalf("one address receives %d of %d accesses under a repeated-key workload", maxFreq, total)
	}
}

// TestDummyIndistinguishable: a dummy access has the same structural trace
// as a real one — identical length, identical read/write kind sequence, and
// an identical sequence of level visits; only the (PRF-fresh) bucket index
// within each level differs.
func TestDummyIndistinguishable(t *testing.T) {
	shape := func(dummy bool) []string {
		env, o := newArm(t, ArmHierarchy, 42)
		rec := trace.NewRecorder(1 << 22)
		env.D.SetRecorder(rec)
		var err error
		for step := 0; step < 100; step++ {
			if dummy {
				err = o.Dummy()
			} else {
				_, err = o.Read(step % 8)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ranges := o.LevelRanges()
		var out []string
		for _, op := range rec.Ops() {
			lvl := -1
			for li, r := range ranges {
				if op.Addr >= int64(r[0]) && op.Addr < int64(r[1]) {
					lvl = li
					break
				}
			}
			out = append(out, string(op.Kind)+rune2s(lvl))
		}
		return out
	}
	d, r := shape(true), shape(false)
	if len(d) != len(r) {
		t.Fatalf("trace lengths differ: %d vs %d", len(d), len(r))
	}
	for i := range d {
		if d[i] != r[i] {
			t.Fatalf("trace shape diverges at op %d: %s vs %s", i, d[i], r[i])
		}
	}
}

func rune2s(l int) string { return string(rune('a' + l + 1)) }

// TestAccessRoundTripBudget pins the tentpole bound: one logical access
// costs at most LiveLevels()+1 store round trips — one vectored read per
// probed level plus the single grouped write-back — and moves exactly the
// same block counts the scalar path did (beta blocks read and written per
// live level). Accesses that trigger a rebuild are excluded; that work is
// amortized and measured separately.
func TestAccessRoundTripBudget(t *testing.T) {
	env, o := newArm(t, ArmHierarchy, 11)
	n := o.N()
	var err error
	beta := int64(o.BucketSize())
	budgeted := 0
	for step := 0; step < 200; step++ {
		before := env.D.Stats()
		rebuilds := o.Rebuilds().Count
		live := int64(o.LiveLevels())
		switch step % 3 {
		case 0:
			_, err = o.Read(step % n)
		case 1:
			err = o.Write(step%n, make([]uint64, 4))
		default:
			err = o.Dummy()
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if o.Rebuilds().Count != rebuilds {
			continue
		}
		budgeted++
		delta := env.D.Stats().Sub(before)
		if delta.RoundTrips > live+1 {
			t.Fatalf("step %d: access cost %d round trips > L+1 = %d (L=%d live levels)",
				step, delta.RoundTrips, live+1, live)
		}
		if delta.Reads != beta*live || delta.Writes != beta*live {
			t.Fatalf("step %d: access moved %d reads / %d writes, want %d each (beta=%d, L=%d)",
				step, delta.Reads, delta.Writes, beta*live, beta, live)
		}
	}
	if budgeted == 0 {
		t.Fatal("every access triggered a rebuild; the budget was never checked")
	}
}

// TestAccessReadThenGroupedWriteBack pins the trace shape of one access:
// per live level a run of beta reads covering one aligned bucket, then a
// write-back of exactly the probed addresses in probe order — the deferred
// grouped flush that replaces the scalar path's interleaved per-slot
// read/write pairs.
func TestAccessReadThenGroupedWriteBack(t *testing.T) {
	env, o := newArm(t, ArmHierarchy, 13)
	var err error
	rec := trace.NewRecorder(1 << 22)
	env.D.SetRecorder(rec)
	beta := o.BucketSize()
	for step := 0; step < 48; step++ {
		rebuilds := o.Rebuilds().Count
		rec.Enable(1 << 22)
		if step%2 == 0 {
			_, err = o.Read(step % 16)
		} else {
			err = o.Dummy()
		}
		if err != nil {
			t.Fatal(err)
		}
		if o.Rebuilds().Count != rebuilds {
			continue // rebuild ops interleave; shape checked on plain accesses
		}
		ops := rec.Ops()
		if len(ops)%2 != 0 {
			t.Fatalf("step %d: odd trace length %d", step, len(ops))
		}
		half := len(ops) / 2
		if half%beta != 0 {
			t.Fatalf("step %d: %d reads is not a whole number of beta=%d buckets", step, half, beta)
		}
		for i, op := range ops[:half] {
			if op.Kind != trace.Read {
				t.Fatalf("step %d: op %d is %v, want read-phase reads first", step, i, op)
			}
			if i%beta == 0 {
				if (op.Addr-levelBase(t, o, op.Addr))%int64(beta) != 0 {
					t.Fatalf("step %d: bucket read at op %d not beta-aligned: %v", step, i, op)
				}
			} else if op.Addr != ops[i-1].Addr+1 {
				t.Fatalf("step %d: bucket read not contiguous at op %d: %v after %v", step, i, op, ops[i-1])
			}
		}
		for i, op := range ops[half:] {
			if op.Kind != trace.Write {
				t.Fatalf("step %d: op %d of write-back is %v", step, half+i, op)
			}
			if op.Addr != ops[i].Addr {
				t.Fatalf("step %d: write-back addr %d != probe addr %d at position %d",
					step, op.Addr, ops[i].Addr, i)
			}
		}
	}
}

// levelBase returns the table base address of the level containing addr.
func levelBase(t *testing.T, o *ORAM, addr int64) int64 {
	t.Helper()
	for _, r := range o.LevelRanges() {
		if addr >= int64(r[0]) && addr < int64(r[1]) {
			return int64(r[0])
		}
	}
	t.Fatalf("probe address %d outside every level table", addr)
	return 0
}

// TestAccessSequenceIndistinguishability is the upgraded security test for
// the batched access path. The hierarchical ORAM's guarantee is
// distributional — the bucket index probed for a key is a fresh PRF output
// per (level, epoch) — so the strongest checkable invariant is that
// everything EXCEPT those fresh bucket indices is a deterministic function
// of (n, B, t, seed) alone: trace length, the read/write kind sequence, the
// level each probe lands in, the slot offset inside the probed bucket, the
// rebuild traffic, the exact I/O and round-trip counts. Three access
// streams of equal length t that differ in every data-dependent way —
// disjoint key sets, different read/write mixes, a Dummy-heavy mix — must
// produce bit-identical normalized traces and identical I/O stats.
func TestAccessSequenceIndistinguishability(t *testing.T) {
	const steps = 240
	n := armGeometries[ArmHierarchy][2]
	type fingerprint struct {
		norm  uint64 // FNV-1a over (kind, level, slot) triples
		len   int
		stats obs.Counters
	}
	run := func(name string, op func(o *ORAM, step int) error) fingerprint {
		env, o := newArm(t, ArmHierarchy, 77)
		rec := trace.NewRecorder(1 << 24)
		env.D.SetRecorder(rec)
		env.D.ResetStats()
		for step := 0; step < steps; step++ {
			if err := op(o, step); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
		}
		ranges := o.LevelRanges()
		beta := int64(o.BucketSize())
		const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
		h := uint64(fnvOffset)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= fnvPrime
				v >>= 8
			}
		}
		ops := rec.Ops()
		if int64(len(ops)) != rec.Len() {
			t.Fatalf("%s: trace overflowed the recorder (%d kept of %d)", name, len(ops), rec.Len())
		}
		for _, opr := range ops {
			lvl, slot := int64(-1), opr.Addr
			for li, r := range ranges {
				if opr.Addr >= int64(r[0]) && opr.Addr < int64(r[1]) {
					// Erase exactly the bucket index; keep level and slot.
					lvl, slot = int64(li), (opr.Addr-int64(r[0]))%beta
					break
				}
			}
			mix(uint64(opr.Kind))
			mix(uint64(lvl))
			mix(uint64(slot))
		}
		return fingerprint{norm: h, len: len(ops), stats: env.D.Stats()}
	}

	low := run("low-keys", func(o *ORAM, step int) error {
		if step%2 == 0 {
			_, err := o.Read(step % (n / 2))
			return err
		}
		return o.Write(step%(n/2), []uint64{uint64(step), 1, 2, 3})
	})
	high := run("high-keys", func(o *ORAM, step int) error {
		k := n/2 + step%(n/2) // disjoint from low-keys' set
		if step%3 == 0 {
			_, err := o.Read(k)
			return err
		}
		return o.Write(k, []uint64{9, 9, 9, uint64(step)})
	})
	dummies := run("dummy-heavy", func(o *ORAM, step int) error {
		if step%4 == 0 {
			return o.Write(step%n, make([]uint64, 4))
		}
		return o.Dummy()
	})

	for _, fp := range []fingerprint{high, dummies} {
		if fp.norm != low.norm || fp.len != low.len {
			t.Fatalf("normalized trace differs across access sequences: %d/%016x vs %d/%016x",
				low.len, low.norm, fp.len, fp.norm)
		}
		if fp.stats != low.stats {
			t.Fatalf("I/O stats differ across access sequences: %+v vs %+v", low.stats, fp.stats)
		}
	}
}

func TestCacheBudgetRespected(t *testing.T) {
	forEachArm(t, 5, cacheBudgetRespected)
}

func cacheBudgetRespected(t *testing.T, env *extmem.Env, o *ORAM) {
	env.Cache.ResetHighWater()
	for step := 0; step < 300; step++ {
		if err := o.Write(step%o.N(), []uint64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if hw := env.Cache.HighWater(); hw > env.M {
		t.Fatalf("ORAM used %d private elements > M=%d", hw, env.M)
	}
}

func TestAmortizedCostGrowsWithN(t *testing.T) {
	cost := func(n int) float64 {
		env := newEnv(4, 64, 5)
		o, err := New(env, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		env.D.ResetStats()
		steps := 4 * n
		for step := 0; step < steps; step++ {
			if _, err := o.Read(step % n); err != nil {
				t.Fatal(err)
			}
		}
		return float64(env.D.Stats().Total()) / float64(steps)
	}
	small, large := cost(8), cost(128)
	if large <= small {
		t.Fatalf("amortized cost should grow with n: %f vs %f", small, large)
	}
}

func TestIndexOutOfRange(t *testing.T) {
	forEachArm(t, 6, indexOutOfRange)
}

func indexOutOfRange(t *testing.T, _ *extmem.Env, o *ORAM) {
	if _, err := o.Read(o.N()); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := o.Write(99, []uint64{0, 0, 0, 0}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := o.Write(0, []uint64{1}); err == nil {
		t.Fatal("expected width error")
	}
}

// TestScanArmSpan: on the scan arm an access is one oram-access span with
// no probe or rebuild under it, measuring exactly ScanCost at the free
// cache, and exact-audited: a learning auditor finds every read, write and
// dummy of any block the trace of the first.
func TestScanArmSpan(t *testing.T) {
	env, o := newArm(t, ArmScan, 21)
	col := env.EnableObs()
	a := obs.NewAuditor(true)
	col.SetAuditor(a)
	const steps = 30
	for step := 0; step < steps; step++ {
		var err error
		switch step % 3 {
		case 0:
			_, err = o.Read(step * 5 % o.N())
		case 1:
			err = o.Write(step*3%o.N(), []uint64{uint64(step), 1, 2, 3})
		default:
			err = o.Dummy()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	roots := col.Roots()
	if len(roots) != steps {
		t.Fatalf("%d root spans, want one per access", len(roots))
	}
	want := ScanCost(o.N(), env.B(), env.M)
	for _, sp := range roots {
		if sp.Name != "oram-access" || len(sp.Children) != 0 {
			t.Fatalf("span %q with %d children, want oram-access alone", sp.Name, len(sp.Children))
		}
		if sp.IO.Cost() != want || sp.Predicted != want {
			t.Fatalf("an access measured %+v and predicted %+v, want %+v", sp.IO.Cost(), sp.Predicted, want)
		}
	}
	if observed, matched, violated := a.Stats(); observed != steps || matched != steps || violated != 0 {
		t.Fatalf("auditor observed %d accesses, matched %d, violated %d keys; want %d, %d, 0", observed, matched, violated, steps, steps)
	}
}

// TestArmAtBenchmarkShape pins the arm of the kv_mix_http ORAM (n = 32,
// B = 8, M = 512) and both prices that choose it: the hierarchy's 3 424
// block I/Os in 205 round trips over its 32-access period (107 and 6.4 an
// access) against the scan's 64 in 2.
func TestArmAtBenchmarkShape(t *testing.T) {
	const n, b, m = 32, 8, 512
	c, accesses := AccessCost(n, b, m, m)
	if c != (obs.Cost{IOs: 3424, RoundTrips: 205}) || accesses != 32 {
		t.Fatalf("AccessCost = %+v over %d accesses, want {3424 205} over 32", c, accesses)
	}
	if s := ScanCost(n, b, m); s != (obs.Cost{IOs: 64, RoundTrips: 2}) {
		t.Fatalf("ScanCost = %+v, want {64 2}", s)
	}
	if arm := Arm(n, b, m, m); arm != ArmScan {
		t.Fatalf("the arm is the %s, want the scan", arm)
	}
}
