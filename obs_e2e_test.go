package oblivext

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/obs"
)

// TestIOStatsFullCopy pins the public IOStats to the one internal counter
// struct, obs.Counters — an identical field set — and checks the Stats()
// conversion carries every field. A field added to obs.Counters but
// forgotten here (the bug this regresses: Stats() used to hand-copy fields
// and silently drop new ones) fails loudly.
func TestIOStatsFullCopy(t *testing.T) {
	shape := func(v any) map[string]string {
		m := map[string]string{}
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			m[f.Name] = f.Type.String()
		}
		return m
	}
	if got, want := shape(IOStats{}), shape(obs.Counters{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("IOStats fields %v diverge from obs.Counters %v", got, want)
	}

	// The conversion must copy every field, whatever its value.
	var src obs.Counters
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(100 + i))
	}
	dst := IOStats(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		if dv.Field(i).Int() != int64(100+i) {
			t.Fatalf("field %s dropped by the Stats conversion", dv.Type().Field(i).Name)
		}
	}
}

// checkSpan asserts the attribution invariants on one span subtree: the
// children never account for more I/O than the parent measured (Self is
// non-negative field-wise), and the tree nests sanely.
func checkSpan(t *testing.T, sp *obs.Span) {
	t.Helper()
	self := sp.Self()
	for name, v := range map[string]int64{
		"Reads": self.Reads, "Writes": self.Writes, "RoundTrips": self.RoundTrips,
		"BytesSealed": self.BytesSealed, "BytesOpened": self.BytesOpened,
	} {
		if v < 0 {
			t.Fatalf("span %q: children overspend the parent (%s self = %d)", sp.Name, name, v)
		}
	}
	var sum obs.Counters
	for _, c := range sp.Children {
		sum = sum.Add(c.IO)
	}
	if sp.IO != sum.Add(self) {
		t.Fatalf("span %q: IO %+v != self %+v + children %+v", sp.Name, sp.IO, self, sum)
	}
	for _, c := range sp.Children {
		checkSpan(t, c)
	}
}

// TestSpanAttribution checks that with spans on from the first operation,
// every counter the client accumulates is attributed to some phase: the
// root spans sum exactly to Stats(), recursively self + children per span,
// over both a plain memory store and a sharded one.
func TestSpanAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mem", Config{BlockSize: 8, CacheWords: 256, Seed: 5, Sorter: "zigzag"}},
		{"sharded", Config{BlockSize: 8, CacheWords: 256, Seed: 5, Sorter: "zigzag", NumShards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.EnableSpans()
			arr, err := c.Store(mkRecords(1200, 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.Sort(); err != nil {
				t.Fatal(err)
			}
			if _, err := arr.Records(); err != nil {
				t.Fatal(err)
			}
			roots := c.Spans()
			if len(roots) != 3 { // store, sort, records
				t.Fatalf("%d root spans, want 3", len(roots))
			}
			for _, sp := range roots {
				checkSpan(t, sp)
			}
			var sortRoot *obs.Span
			for _, sp := range roots {
				if sp.Name == "sort" {
					sortRoot = sp
				}
			}
			if sortRoot == nil || len(sortRoot.Children) == 0 {
				t.Fatal("sort root span has no phase children")
			}
			st := c.Stats()
			if got := obs.SumIO(roots); IOStats(got) != st {
				t.Fatalf("span sum %+v != lifetime stats %+v", got, st)
			}
		})
	}
}

// TestSorterDefaults pins the two defaults of Config.Sorter: with "" the
// sort span names the randomized engine, and the ORAM's rebuild spans name
// auto and carry an exact prediction, as a named deterministic engine's do.
// The ORAM is 64 blocks against a cache of 512 blocks, where its arm is the
// hierarchy, and three flushes of its 64-entry buffer follow its build.
func TestSorterDefaults(t *testing.T) {
	attr := func(sp *obs.Span, key string) string {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	var rebuilds func(spans []*obs.Span) []*obs.Span
	rebuilds = func(spans []*obs.Span) (out []*obs.Span) {
		for _, sp := range spans {
			if sp.Name == "oram-rebuild" {
				out = append(out, sp)
			}
			out = append(out, rebuilds(sp.Children)...)
		}
		return out
	}
	for _, tc := range []struct{ sorter, sortEngine, rebuildSorter string }{
		{"", "randomized", "auto"},
		{"bitonic", "bitonic", "bitonic"},
	} {
		c, err := New(Config{BlockSize: 8, CacheWords: 4096, Seed: 3, Sorter: tc.sorter})
		if err != nil {
			t.Fatal(err)
		}
		c.EnableSpans()
		arr, err := c.Store(mkRecords(300, 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		r, err := c.NewORAM(64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 192; i++ {
			if err := r.Write(i%64, make([]uint64, 8)); err != nil {
				t.Fatal(err)
			}
		}
		roots := c.Spans()
		if roots[1].Name != "sort" || attr(roots[1], "engine") != tc.sortEngine {
			t.Errorf("Sorter %q: span %q has engine=%q, want sort with engine=%s", tc.sorter, roots[1].Name, attr(roots[1], "engine"), tc.sortEngine)
		}
		rs := rebuilds(roots)
		if len(rs) < 4 {
			t.Fatalf("Sorter %q: %d rebuild spans, want at least 4", tc.sorter, len(rs))
		}
		for _, sp := range rs {
			if got := attr(sp, "sorter"); got != tc.rebuildSorter {
				t.Fatalf("Sorter %q: a rebuild span has sorter=%q, want %s", tc.sorter, got, tc.rebuildSorter)
			}
			if sp.IO.Cost() != sp.Predicted {
				t.Fatalf("Sorter %q: a rebuild measured %+v, its span predicts %+v", tc.sorter, sp.IO.Cost(), sp.Predicted)
			}
		}
		c.Close()
	}
}

// TestCompactSpanPrediction: the public compact-tight and compact-loose
// spans each predict exactly what they measure, and carry the block count
// alone.
func TestCompactSpanPrediction(t *testing.T) {
	for _, name := range []string{"compact-tight", "compact-loose"} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{BlockSize: 8, CacheWords: 4096, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			arr, err := c.Store(mkRecords(1<<13, 9))
			if err != nil {
				t.Fatal(err)
			}
			marked, err := arr.Mark(func(r Record) bool { return r.Key%4 == 0 })
			if err != nil {
				t.Fatal(err)
			}
			c.EnableSpans()
			compact := arr.CompactTight
			if name == "compact-loose" {
				compact = arr.CompactLoose
			}
			if _, err := compact(marked); err != nil {
				t.Fatal(err)
			}
			sp := c.Spans()[0]
			if sp.Name != name {
				t.Fatalf("span %q, want %s", sp.Name, name)
			}
			for _, a := range sp.Attrs {
				if a.Key != "blocks" {
					t.Errorf("attribute %s=%s, want blocks alone", a.Key, a.Value)
				}
			}
			if got := sp.IO.Cost(); got != sp.Predicted || got.IOs == 0 {
				t.Errorf("measured %+v, predicted %+v", got, sp.Predicted)
			}
		})
	}
}

// TestSpansDoNotPerturbTrace: the adversary-visible access trace is
// bit-identical with spans (and the auditor) on versus off.
func TestSpansDoNotPerturbTrace(t *testing.T) {
	run := func(observe bool) TraceSummary {
		c, err := New(Config{BlockSize: 8, CacheWords: 256, Seed: 11, Sorter: "randomized"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTrace(0)
		if observe {
			c.EnableAudit(true) // implies EnableSpans
		}
		arr, err := c.Store(mkRecords(1500, 9))
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.Sort(); err != nil {
			t.Fatal(err)
		}
		return c.TraceSummary()
	}
	off, on := run(false), run(true)
	if off != on {
		t.Fatalf("observability perturbed the trace: %+v vs %+v", off, on)
	}
}

// TestAuditCleanAllEngines: for every sorter engine, a learn run followed
// by a fresh same-seed enforce run matches every golden fingerprint —
// oblivious executions replay their access traces exactly.
func TestAuditCleanAllEngines(t *testing.T) {
	for _, engine := range []string{"randomized", "bitonic", "zigzag"} {
		t.Run(engine, func(t *testing.T) {
			cfg := Config{BlockSize: 8, CacheWords: 256, Seed: 21, Sorter: engine}
			exercise := func(c *Client) {
				arr, err := c.Store(mkRecords(1100, 4))
				if err != nil {
					t.Fatal(err)
				}
				if err := arr.Sort(); err != nil {
					t.Fatal(err)
				}
				if _, err := arr.Records(); err != nil {
					t.Fatal(err)
				}
			}

			c1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			learner := c1.EnableAudit(true)
			exercise(c1)
			c1.Close()
			if _, _, violated := learner.Stats(); violated != 0 {
				t.Fatalf("learn run recorded %d violations", violated)
			}
			var golden bytes.Buffer
			if err := learner.SaveJSON(&golden); err != nil {
				t.Fatal(err)
			}

			c2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			enforcer := c2.EnableAudit(false)
			if err := enforcer.LoadJSON(bytes.NewReader(golden.Bytes())); err != nil {
				t.Fatal(err)
			}
			exercise(c2)
			observed, matched, violated := enforcer.Stats()
			if violated != 0 {
				t.Fatalf("clean replay flagged %d violations: %v", violated, enforcer.Violations())
			}
			if observed == 0 || matched != observed {
				t.Fatalf("enforce run: %d observed, %d matched", observed, matched)
			}
		})
	}
}

// TestAuditDetectsPerturbedTrace: a deliberately perturbed execution — the
// same sort plus one stray block read inside the audited span, the shape of
// a data-dependent branch leaking — is flagged against golden fingerprints,
// while the unperturbed inner sort still matches.
func TestAuditDetectsPerturbedTrace(t *testing.T) {
	cfg := Config{BlockSize: 8, CacheWords: 256, Seed: 33, Sorter: "zigzag"}

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	learner := c1.EnableAudit(true)
	arr1, err := c1.Store(mkRecords(900, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := arr1.Sort(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	var golden bytes.Buffer
	if err := learner.SaveJSON(&golden); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	enforcer := c2.EnableAudit(false)
	if err := enforcer.LoadJSON(bytes.NewReader(golden.Bytes())); err != nil {
		t.Fatal(err)
	}
	var fired []obs.Violation
	enforcer.OnViolation = func(v obs.Violation) { fired = append(fired, v) }
	arr2, err := c2.Store(mkRecords(900, 8))
	if err != nil {
		t.Fatal(err)
	}

	// Wrap the real sort in a span claiming the same audit key, with one
	// extra read folded in before it. The nested genuine sort span still
	// matches golden; the wrapper's fingerprint has one access too many.
	key := c2.auditKey("sort/zigzag", arr2.arr.Len(), arr2.arr.Base())
	sp := c2.env.Obs.Start("perturbed-sort")
	sp.Audit(key)
	buf := make([]extmem.Element, c2.env.B())
	arr2.arr.Read(0, buf)
	if err := arr2.Sort(); err != nil {
		t.Fatal(err)
	}
	c2.env.Obs.End(sp)

	_, _, violated := enforcer.Stats()
	if violated != 1 {
		t.Fatalf("perturbed trace: %d keys violated, want exactly 1 (%v)", violated, enforcer.Violations())
	}
	if len(fired) != 1 || fired[0].Key != key {
		t.Fatalf("OnViolation fired %d times with %+v, want the sort key once", len(fired), fired)
	}
	if fired[0].Want.Len+1 != fired[0].Got.Len {
		t.Fatalf("perturbation should add exactly one access: want len %d, got len %d",
			fired[0].Want.Len, fired[0].Got.Len)
	}
}

// TestClientChromeTrace: the client's exported trace is valid Chrome
// trace-event JSON whose complete events mirror the span tree.
func TestClientChromeTrace(t *testing.T) {
	c, err := New(Config{BlockSize: 8, CacheWords: 256, Seed: 2, Sorter: "randomized"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableSpans()
	arr, err := c.Store(mkRecords(800, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	count := 0
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		count++
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	for _, sp := range c.Spans() {
		walk(sp)
	}
	if len(out.TraceEvents) != count {
		t.Fatalf("%d trace events for %d spans", len(out.TraceEvents), count)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if tree := c.SpanTree(); tree == "" {
		t.Fatal("SpanTree rendered empty")
	}
}
