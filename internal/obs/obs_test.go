package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"
)

// fakeCounters drives a collector with a hand-cranked counter source.
type fakeCounters struct{ c Counters }

func (f *fakeCounters) read(kind byte, n int64) {
	if kind == 'R' {
		f.c.Reads += n
	} else {
		f.c.Writes += n
	}
	f.c.RoundTrips++
}

func TestSpanNestingAndDeltas(t *testing.T) {
	var fc fakeCounters
	col := NewCollector(func() Counters { return fc.c })

	root := col.Start("root")
	fc.read('R', 10)
	child1 := col.Start("child1")
	fc.read('W', 5)
	col.End(child1)
	child2 := col.Start("child2")
	fc.read('R', 3)
	fc.read('W', 3)
	col.End(child2)
	fc.read('W', 1)
	col.End(root)

	roots := col.Roots()
	if len(roots) != 1 || len(roots[0].Children) != 2 {
		t.Fatalf("tree shape: %d roots, %d children", len(roots), len(roots[0].Children))
	}
	if got := root.IO; got.Reads != 13 || got.Writes != 9 || got.RoundTrips != 5 {
		t.Fatalf("root IO = %+v", got)
	}
	if got := child1.IO; got.Writes != 5 || got.Reads != 0 {
		t.Fatalf("child1 IO = %+v", got)
	}
	// The attribution invariant: parent total = self + sum of children.
	want := child1.IO.Add(child2.IO).Add(root.Self())
	if root.IO != want {
		t.Fatalf("root.IO = %+v, self+children = %+v", root.IO, want)
	}
	if self := root.Self(); self.Reads != 10 || self.Writes != 1 || self.RoundTrips != 2 {
		t.Fatalf("root.Self() = %+v", self)
	}
	if sum := SumIO(roots); sum != root.IO {
		t.Fatalf("SumIO = %+v, want %+v", sum, root.IO)
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	col := NewCollector(nil)
	outer := col.Start("outer")
	col.Start("inner")
	defer func() {
		if recover() == nil {
			t.Fatal("ending the outer span before the inner one did not panic")
		}
	}()
	col.End(outer)
}

func TestResetWithOpenSpanPanics(t *testing.T) {
	col := NewCollector(nil)
	col.Start("open")
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with an open span did not panic")
		}
	}()
	col.Reset()
}

func TestNilCollectorIsFree(t *testing.T) {
	var col *Collector
	if col.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	sp := col.Start("anything") // must not panic, must return nil
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 7)
	sp.SetPredicted(Cost{1, 2})
	sp.Audit("key")
	sp.AuditShape("key")
	col.Access('R', 42)
	col.End(sp)
	col.Reset()
	if col.Roots() != nil || col.Depth() != 0 || col.Auditor() != nil {
		t.Fatal("nil collector leaked state")
	}
	if allocs := testing.AllocsPerRun(100, func() { col.Access('W', 42) }); allocs != 0 {
		t.Fatalf("a block access with spans off allocates %.0f objects", allocs)
	}
}

func TestFingerprintModes(t *testing.T) {
	run := func(mode AuditMode, addrs []int64) Fingerprint {
		col := NewCollector(nil)
		sp := col.Start("s")
		if mode == AuditShape {
			sp.AuditShape("k")
		} else {
			sp.Audit("k")
		}
		for _, a := range addrs {
			col.Access('R', a)
		}
		col.End(sp)
		return sp.Fingerprint()
	}
	// Exact mode distinguishes address sequences; shape mode does not.
	a := run(AuditExact, []int64{1, 2, 3})
	b := run(AuditExact, []int64{3, 2, 1})
	if a == b {
		t.Fatal("exact fingerprints ignored addresses")
	}
	sa := run(AuditShape, []int64{1, 2, 3})
	sb := run(AuditShape, []int64{9, 8, 7})
	if sa != sb {
		t.Fatal("shape fingerprints depended on addresses")
	}
	if sa.Len != 3 {
		t.Fatalf("shape fingerprint length = %d, want 3", sa.Len)
	}
	// Replaying the same sequence replays the same fingerprint.
	if again := run(AuditExact, []int64{1, 2, 3}); again != a {
		t.Fatal("exact fingerprint not reproducible")
	}
	// Both modes are FNV-1a: over each access's kind and its address's
	// eight little-endian bytes, or over the kinds alone.
	exact, shape := fnv.New64a(), fnv.New64a()
	for _, addr := range []int64{1, 2, 3} {
		exact.Write(binary.LittleEndian.AppendUint64([]byte{'R'}, uint64(addr)))
		shape.Write([]byte{'R'})
	}
	if a.Hash != exact.Sum64() || sa.Hash != shape.Sum64() {
		t.Fatalf("fingerprints %#x and %#x, FNV-1a %#x and %#x", a.Hash, sa.Hash, exact.Sum64(), shape.Sum64())
	}
}

func TestAuditorLearnAndEnforce(t *testing.T) {
	a := NewAuditor(true)
	var flagged []Violation
	a.OnViolation = func(v Violation) { flagged = append(flagged, v) }

	fp := Fingerprint{Len: 10, Hash: 0xabc}
	a.Observe("op/x", fp) // learn: becomes golden
	a.Observe("op/x", fp) // match
	if obs, matched, violated := a.Stats(); obs != 2 || matched != 2 || violated != 0 {
		t.Fatalf("clean stats: %d/%d/%d", obs, matched, violated)
	}
	a.Observe("op/x", Fingerprint{Len: 10, Hash: 0xdef}) // diverge
	if _, _, violated := a.Stats(); violated != 1 {
		t.Fatal("divergence not recorded")
	}
	if len(flagged) != 1 || flagged[0].Key != "op/x" {
		t.Fatalf("OnViolation: %+v", flagged)
	}
	if !strings.Contains(flagged[0].String(), "op/x") {
		t.Fatalf("violation message: %s", flagged[0])
	}

	// Enforce mode: an unknown key is a violation in itself.
	e := NewAuditor(false)
	e.Observe("never-seen", fp)
	if _, _, violated := e.Stats(); violated != 1 {
		t.Fatal("enforce mode accepted an unknown key")
	}
}

func TestAuditorJSONRoundTrip(t *testing.T) {
	a := NewAuditor(true)
	a.SetGolden("k1", Fingerprint{Len: 5, Hash: 0x1111})
	a.SetGolden("k2", Fingerprint{Len: 7, Hash: 0x2222})
	var buf bytes.Buffer
	if err := a.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewAuditor(false)
	if err := b.LoadJSON(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		got, ok := b.Golden(k)
		want, _ := a.Golden(k)
		if !ok || got != want {
			t.Fatalf("golden %q: %+v vs %+v", k, got, want)
		}
	}
	// A wrong version must be rejected loudly, not half-loaded.
	bad := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if err := NewAuditor(false).LoadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("version-99 golden file accepted")
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var fc fakeCounters
	col := NewCollector(func() Counters { return fc.c })
	root := col.Start("sort")
	root.SetAttr("engine", "zigzag")
	root.Audit("sort/zigzag/test")
	fc.read('R', 4)
	child := col.Start("pass")
	child.SetPredicted(Cost{8, 2})
	fc.read('W', 4)
	col.End(child)
	col.End(root)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col.Roots()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 || out.DisplayTimeUnit != "ms" {
		t.Fatalf("events = %d, unit = %q", len(out.TraceEvents), out.DisplayTimeUnit)
	}
	ev := out.TraceEvents[0]
	if ev.Name != "sort" || ev.Ph != "X" || ev.Tid != 1 {
		t.Fatalf("root event: %+v", ev)
	}
	if ev.Args["engine"] != "zigzag" || ev.Args["audit_key"] != "sort/zigzag/test" {
		t.Fatalf("root args: %+v", ev.Args)
	}
	if out.TraceEvents[1].Args["predicted_io"] != float64(8) {
		t.Fatalf("child args: %+v", out.TraceEvents[1].Args)
	}

	// Multi-forest export: one tid per forest.
	col2 := NewCollector(nil)
	col2.End(col2.Start("other"))
	buf.Reset()
	if err := WriteChromeTrace(&buf, col.Roots(), col2.Roots()); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	for _, e := range out.TraceEvents {
		tids[e.Tid] = true
	}
	if !tids[1] || !tids[2] {
		t.Fatalf("merged forests share tids: %+v", tids)
	}
}

func TestRenderTree(t *testing.T) {
	var fc fakeCounters
	col := NewCollector(func() Counters { return fc.c })
	root := col.Start("emsort")
	fc.read('R', 2)
	child := col.Start("run-formation")
	child.SetPredicted(Cost{4, -1})
	fc.read('W', 2)
	col.End(child)
	col.End(root)
	out := RenderTree(col.Roots())
	if !strings.Contains(out, "emsort:") || !strings.Contains(out, "  run-formation:") {
		t.Fatalf("tree rendering:\n%s", out)
	}
	if !strings.Contains(out, "[predicted 4 I/O, measured 2]") {
		t.Fatalf("prediction annotation missing:\n%s", out)
	}
}
