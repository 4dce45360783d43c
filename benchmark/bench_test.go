package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"oblivext"
)

// The tests run as the benchmark does, on one CPU. On two the smoke test took
// 24 s instead of 10: each of the yardstick's socket round trips then wakes a
// goroutine on the other CPU.
func TestMain(m *testing.M) {
	pinToOneCPU()
	os.Exit(m.Run())
}

func iv(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }

func TestUnionAndSelfTimeWithOverlappingChildren(t *testing.T) {
	if got := unionLen([]interval{iv(10, 30), iv(20, 50), iv(70, 90), iv(80, 85), iv(95, 95)}); got != 60 {
		t.Errorf("unionLen = %d, want 60", got)
	}
	// Children overlap each other and stick out of the parent at both ends:
	// covered is [0,5] + [10,50] + [70,100] = 75 of 100.
	children := []interval{iv(10, 30), iv(20, 50), iv(70, 120), iv(-5, 5)}
	if got := selfTime(iv(0, 100), children); got != 25 {
		t.Errorf("selfTime = %d, want 25", got)
	}
	if got := selfTime(iv(0, 100), nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func mkSpan(layer string, lo, hi int) span {
	return span{Layer: layer, Name: ioPath, Start: time.Duration(lo), End: time.Duration(hi)}
}

func TestAttributionIdentity(t *testing.T) {
	op := mkSpan("op", 0, 100)
	// Two shard requests in flight at once, their handlers overlapping too.
	wire := []span{mkSpan("wire", 10, 40), mkSpan("wire", 20, 60)}
	server := []span{mkSpan("server", 15, 30), mkSpan("server", 25, 50)}
	o := attribute(op, wire, server)
	if o.clientSelf != 50 || o.wireSelf != 15 || o.serverBusy != 35 {
		t.Errorf("shares = client %d, wire %d, server %d; want 50, 15, 35", o.clientSelf, o.wireSelf, o.serverBusy)
	}
	if e := o.identityError(); e != 0 {
		t.Errorf("nested spans: identity error %v, want 0", e)
	}
	// A handler that outlives its request by 10 breaks the nesting, and the
	// identity says by how much.
	o = attribute(op, wire, append(server, mkSpan("server", 55, 70)))
	if e := o.identityError(); math.Abs(e-0.10) > 1e-9 {
		t.Errorf("overhanging handler: identity error %v, want 0.10", e)
	}
}

func TestTracerGroupsSpansByOp(t *testing.T) {
	tr := newTracer()
	err := tr.op("sort_auto", nil, func() error {
		op := tr.cur.Load()
		tr.add(span{ID: tr.next.Add(1), Parent: op, Layer: "wire", Name: ioPath, Start: time.Since(tr.epoch), End: time.Since(tr.epoch) + 1})
		w := tr.next.Load()
		tr.add(span{ID: tr.next.Add(1), Parent: w, Layer: "server", Name: ioPath, BytesIn: 7})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.add(span{ID: tr.next.Add(1), Layer: "wire", Name: "/v1/info"}) // set-up traffic, outside any op
	ops := tr.ops()
	if len(ops) != 1 || len(ops[0].wire) != 1 || len(ops[0].server) != 1 || ops[0].server[0].BytesIn != 7 {
		t.Fatalf("ops = %+v", ops)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args["op"] != float64(ops[0].ID) {
			t.Errorf("event %+v: want a complete event carrying op id %d", e, ops[0].ID)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1024, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestNetOfStolenCPUOnlyOnOneCPU(t *testing.T) {
	defer func(was int) { pinnedCPU = was }(pinnedCPU)
	p := &pass{wallS: 2, stolenS: 0.5}
	pinnedCPU = -1
	if got := p.netS(); got != 2 {
		t.Errorf("on several CPUs: %v s, want the wall time", got)
	}
	pinnedCPU = 1
	if got := p.netS(); got != 1.5 {
		t.Errorf("on one CPU: %v s, want wall minus stolen", got)
	}
	p.stolenS = 5 // a counter gone wrong cannot make an op free
	if got := p.netS(); got != 0.2 {
		t.Errorf("with more stolen than passed: %v s, want a tenth of the wall time", got)
	}
}

func TestCPUMask(t *testing.T) {
	var m cpuMask
	if n, last := m.cpus(); n != 0 || last != -1 {
		t.Errorf("empty mask: %d CPUs, last %d", n, last)
	}
	m[0], m[1] = 0b101, 1<<3
	if n, last := m.cpus(); n != 3 || last != 67 {
		t.Errorf("mask of CPUs 0, 2, 67: %d CPUs, last %d", n, last)
	}
}

func TestYardstickScalesTimedSamples(t *testing.T) {
	p := &pass{setupS: 2, wallS: 4, opMs: []float64{4000}, records: 8, ops: 1, blockIOs: 16, roundTrips: 3, mallocs: 80, bytes: 800}
	s := endToEndSamples([]*pass{p}, 2) // the sandbox ran at half speed
	want := map[string]float64{"setup_s": 1, "op_ms_p50": 2000, "throughput_rec_s": 4,
		"block_ios_per_rec": 2, "round_trips_per_op": 3, "allocs_per_rec": 10, "alloc_bytes_per_rec": 100}
	for name, v := range want {
		if got := s[name]; len(got) != 1 || got[0] != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	y := &yardstick{rounds: []float64{90, 45, 45}}
	if got := y.ratio(); got != 1 {
		t.Errorf("ratio of a median round of 45 ms = %v, want 1", got)
	}
}

func flat(v float64) []float64 { return []float64{v, v, v, v} }

func TestComparatorVerdicts(t *testing.T) {
	lower := specMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_rec_s", Better: "higher", Bound: 0.10}
	count := specMetric{Name: "block_ios_per_rec", Better: "lower", Bound: 0.001}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want verdict
	}{
		{"at the bound is not beyond it", lower, flat(100), flat(110), same},
		{"just across the bound", lower, flat(100), flat(110.5), worse},
		{"at the bound, improving", lower, flat(100), flat(90), same},
		{"across the bound, improving", lower, flat(100), flat(89.5), better},
		{"higher is better: a drop across the bound", higher, flat(100), flat(89), worse},
		{"higher is better: a rise across the bound", higher, flat(100), flat(111), better},
		{"higher is better: inside the bound", higher, flat(100), flat(95), same},
		{"a's own spread exceeds the bound", lower, []float64{80, 95, 105, 130}, flat(150), unresolved},
		{"b's own spread exceeds the bound", lower, flat(100), []float64{80, 95, 105, 130}, unresolved},
		{"exact: equal", count, flat(4.4922), flat(4.4922), same},
		{"exact: any rise is worse, bound or not", count, flat(4.4922), flat(4.4923), worse},
		{"exact: any drop is better", count, flat(4.4922), flat(4.4921), better},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompareResultsExitCode(t *testing.T) {
	sp := testSpec(t)
	mk := func(opMs float64) *results {
		samples := map[string][]float64{}
		for _, m := range sp.EndToEnd {
			samples[m.Name] = flat(100)
		}
		samples["op_ms_p50"] = flat(opMs)
		return &results{Runs: []map[string]*result{{"sort_mem": {Samples: samples}}}}
	}
	if rc := compareResults(sp, mk(100), mk(101)); rc != 0 {
		t.Errorf("inside every bound: exit %d, want 0", rc)
	}
	if rc := compareResults(sp, mk(100), mk(200)); rc != 1 {
		t.Errorf("op_ms_p50 doubled: exit %d, want 1", rc)
	}
	if rc := compareResults(sp, mk(200), mk(100)); rc != 0 {
		t.Errorf("op_ms_p50 halved: exit %d, want 0", rc)
	}
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMeetsContract pins BENCHMARK.json to the limits its consumers
// enforce and to the workloads this package implements.
func TestSpecMeetsContract(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m specMetric) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", m)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		check(m)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("%d end-to-end, %d per-layer metrics, run_seconds %d", len(sp.EndToEnd), len(sp.PerLayer), sp.RunSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), implemented as %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	for _, n := range exactLayer {
		if !seen[n] {
			t.Errorf("exactLayer names %s, which BENCHMARK.json does not list", n)
		}
	}
}

func quickHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{spec: testSpec(t), run: &run{sz: quickSizes, seed: 1, tmpDir: t.TempDir()}, probeSizes: quickProbes, seconds: 0.05}
	t.Cleanup(h.close)
	return h
}

// TestQuickSmoke runs all four workloads at -quick sizes in both modes,
// verification included, and checks each mode reports exactly the metrics
// BENCHMARK.json lists for it.
func TestQuickSmoke(t *testing.T) {
	h := quickHarness(t)
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(workload) *result
			defs []specMetric
		}{{"untraced", h.untraced, h.spec.EndToEnd}, {"traced", h.traced, h.spec.PerLayer}} {
			res := mode.run(w)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d problems=%v", w.name, mode.name, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s %s: %d metrics, want %d", w.name, mode.name, len(res.Metrics), len(mode.defs))
			}
			if mode.name == "untraced" {
				for name, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
		}
	}
}

// TestWrongAnswerFailsTheRun injects a wrong answer — a Sort workload whose
// op leaves the array unsorted — and expects the run to count the failed ops,
// report itself incorrect and exit non-zero.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	h := quickHarness(t)
	lazy := workload{name: "sort_mem", batch: true,
		runPass: func(r *run, a passArgs) *pass {
			return batchPass(r, batchSpec{
				config: func(r *run, _ []string) oblivext.Config {
					return oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.cacheWords, Seed: tapeSortMem}
				},
				op:     func(*tracer, *oblivext.Client, *oblivext.Array) (any, error) { return nil, nil },
				verify: verifySorted,
			}, a)
		}}
	res := h.untraced(lazy)
	if res.Correct || res.Failed != res.Attempted || len(res.Problems) == 0 {
		t.Fatalf("unsorted output passed: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	stdout := os.Stdout
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Stdout = null
	rc := h.single(lazy, false)
	os.Stdout = stdout
	if rc == 0 {
		t.Error("a run with wrong answers exited 0")
	}
}

func TestVerifyScanCatchesEachWrongAnswer(t *testing.T) {
	r := &run{sz: quickSizes, seed: 1, tmpDir: t.TempDir()}
	input := genRecords(r.n(), 1, 0)
	c, err := oblivext.New(oblivext.Config{BlockSize: blockSize, CacheWords: r.sz.cacheWords, Seed: tapeScanFile})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanOp(nil, c, arr)
	if err != nil {
		t.Fatal(err)
	}
	good := got.(scanResult)
	if err := verifyScan(input, arr, good); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	for name, tamper := range map[string]func(*scanResult){
		"select": func(s *scanResult) { s.median.Val++ },
		"quantiles": func(s *scanResult) {
			s.quantiles = append([]oblivext.Record(nil), s.quantiles...)
			s.quantiles[3].Key++
		},
		"mark":          func(s *scanResult) { s.marked-- },
		"compact tight": func(s *scanResult) { s.tight = arr },
		"compact loose": func(s *scanResult) { s.lose = arr },
	} {
		bad := good
		tamper(&bad)
		if err := verifyScan(input, arr, bad); err == nil {
			t.Errorf("tampered %s passed verification", name)
		}
	}
}
