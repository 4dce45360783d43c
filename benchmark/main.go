// Command benchmark is the repository's one benchmark: four named workloads
// through the public API, verified, with end-to-end metrics from an untraced
// pass and per-layer metrics from a traced pass plus isolated layer probes.
// BENCHMARK.json at the repository root names every metric; README.md here
// says what each workload is for.
//
//	benchmark -workload sort_mem -seed 1 -seconds 20 -trace 0   one workload, one JSON line last
//	benchmark [-runs k] [-out results.json] [-spans spans.json] the whole suite, untraced then traced
//	benchmark -compare a.json b.json                            verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	spec      string
	quick     bool
	runs      int
	out       string
	spans     string
	compare   bool
	compareAB []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line last (default: the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: records, KV slots and values (the client's tape is fixed per workload)")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long each run measures (default: run_seconds from BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics with tracing off, 1 the per-layer metrics from a traced run")
	flag.StringVar(&o.spec, "spec", "", "path to BENCHMARK.json (default: ./ or ../)")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test sizes: N=2^10, 32 KV requests")
	flag.IntVar(&o.runs, "runs", 1, "suite mode: repeat the untraced suite this many times")
	flag.StringVar(&o.out, "out", "", "suite mode: write the results JSON here")
	flag.StringVar(&o.spans, "spans", "", "write the traced pass's spans here as Chrome trace-event JSON")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: benchmark -compare a.json b.json")
	flag.Parse()
	o.compareAB = flag.Args()
	if !o.compare {
		pinToOneCPU()
	}
	os.Exit(realMain(o))
}

// realMain is main with its deferred clean-up run before the process exits.
func realMain(o options) int {
	sp, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if o.compare {
		if len(o.compareAB) != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results files")
			return 2
		}
		return compareFiles(sp, o.compareAB[0], o.compareAB[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	tmp, err := os.MkdirTemp("", "oblivext-benchmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	h := &harness{spec: sp, run: &run{sz: fullSizes, seed: o.seed, tmpDir: tmp}, probeSizes: fullProbes, seconds: o.seconds, spansPath: o.spans}
	defer h.close()
	if o.quick {
		h.run.sz, h.probeSizes = quickSizes, quickProbes
	}
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		return h.single(w, o.trace != 0)
	}
	return h.suite(o.runs, o.out)
}

type harness struct {
	spec       *spec
	run        *run
	probeSizes probeSizes
	seconds    float64
	spansPath  string

	probes   map[string]float64 // the layer probes, run once per process
	probeErr error
	yard     *yardstick // built once per process, rounds counted per run
}

// yardstick returns the process's yardstick with no rounds counted yet.
func (h *harness) yardstick() (*yardstick, error) {
	if h.yard == nil {
		var err error
		if h.yard, err = newYardstick(); err != nil {
			return nil, err
		}
	}
	h.yard.rounds, h.yard.spent = nil, 0
	return h.yard, nil
}

func (h *harness) close() {
	if h.yard != nil {
		h.yard.close()
	}
}

// layerProbes runs the isolated layer probes the first time it is called:
// they do not depend on the workload, so the suite's four traced runs share
// one set.
func (h *harness) layerProbes() (map[string]float64, error) {
	if h.probes == nil && h.probeErr == nil {
		h.probes, h.probeErr = runProbes(h.probeSizes, h.run.tmpDir)
		if h.probeErr == nil {
			h.probeErr = publicProbes(h.probeSizes, h.probes)
		}
	}
	return h.probes, h.probeErr
}

// result is one workload's run, as the results file stores it and as the
// last line of a -workload run prints it (the driver's four keys, then the
// harness's own, which that line leaves out).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Samples holds, per end-to-end metric, one sample per pass: the value
	// above is their median, and the comparator takes a side's own spread
	// from them.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// OpTimes summarises every op of the timed passes: the median and the
	// highest percentile the sample count can resolve.
	OpTimes *timing `json:"op_times,omitempty"`
	// Yardstick is how much slower than the reference the sandbox ran during
	// the untraced run; the timed samples are already divided by it.
	Yardstick float64  `json:"yardstick_ratio,omitempty"`
	WallS     float64  `json:"wall_s,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

// count folds the passes' op counts and failures into res.
func (res *result) count(ps ...*pass) {
	for _, p := range ps {
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, err := range p.errs {
			res.Problems = append(res.Problems, err.Error())
		}
	}
}

func (res *result) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// close attaches units to the measured values and settles the verdict: a run
// is correct when no op failed and no check found a problem.
func (res *result) close(defs []specMetric, values map[string]float64, started time.Time) *result {
	var err error
	if res.Metrics, err = withUnits(defs, values); err != nil {
		res.problem("%v", err)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.WallS = time.Since(started).Seconds()
	return res
}

// timedLoop makes passes until the budget is spent and at least min were
// made, stopping early when another pass would overshoot by more than half
// its length; past limit it stops whatever min says, so that a stalled
// machine cannot stretch a run without end. A collection runs before every
// pass, so that each starts from the same heap and reuses the previous
// pass's garbage instead of faulting in new pages.
func timedLoop(budget, limit time.Duration, min int, pass func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			elapsed := time.Since(start)
			if (i >= min && elapsed+elapsed/time.Duration(2*i) > budget) || elapsed > limit {
				return
			}
		}
		runtime.GC()
		pass(i)
	}
}

// budget is what is left of -seconds for timed passes: the run's warm-up and
// probes come out of the same allowance, so a run takes -seconds plus at most
// half a pass however slow the machine is.
func (h *harness) budget(started time.Time) time.Duration {
	return time.Duration(h.seconds*float64(time.Second)) - time.Since(started)
}

// limit is when a run gives up on its minimum number of passes: at twice
// -seconds plus half a minute.
func (h *harness) limit(started time.Time) time.Duration {
	return time.Duration(2*h.seconds*float64(time.Second)) + 30*time.Second - time.Since(started)
}

// untraced measures w with tracing off: the end-to-end metrics.
func (h *harness) untraced(w workload) *result {
	started := time.Now()
	res := &result{}
	r := h.run
	// Warm-up, discarded. For the batch workloads it doubles as the
	// obliviousness check: the same op on this seed's and the next seed's
	// input must produce identical counters and an identical access trace.
	if w.batch {
		a := w.runPass(r, passArgs{seed: r.seed, fingerprint: true})
		runtime.GC()
		b := w.runPass(r, passArgs{seed: r.seed + 1, fingerprint: true})
		res.count(a, b)
		if a.ioStats != b.ioStats || a.fingerprint != b.fingerprint {
			res.problem("not oblivious: seed %d gave %+v %+v, seed %d gave %+v %+v",
				r.seed, a.ioStats, a.fingerprint, r.seed+1, b.ioStats, b.fingerprint)
		}
	} else {
		short := *r
		short.sz.kvRequests = max(r.sz.kvRequests/4, 1)
		res.count(w.runPass(&short, passArgs{seed: r.seed}))
	}
	// The timed passes. The two KV sessions run one after the other: on one
	// CPU running them side by side adds nothing but the scheduler's choices
	// to a request's latency (the warm-up above keeps them concurrent, so the
	// sessions' isolation is still checked).
	var passes []*pass
	yard, err := h.yardstick()
	if err != nil {
		res.problem("%v", err)
		return res.close(h.spec.EndToEnd, nil, started)
	}
	loop := time.Now()
	timedLoop(h.budget(started), h.limit(started), r.sz.minPasses, func(i int) {
		yard.keepUp(time.Since(loop))
		passes = append(passes, w.runPass(r, passArgs{seed: r.seed, stream: uint64(i + 1), sequential: true}))
	})
	res.count(passes...)
	if yard.err != nil {
		res.problem("yardstick: %v", yard.err)
	}
	res.Yardstick = yard.ratio()
	res.Samples = endToEndSamples(passes, res.Yardstick)
	res.OpTimes = summarise(pool(passes, func(p *pass) []float64 { return p.opMs }))
	for _, name := range driftingCounts(res.Samples) {
		res.problem("%s differs between inputs: %v", name, res.Samples[name])
	}
	return res.close(h.spec.EndToEnd, medians(res.Samples), started)
}

// traced measures w's per-layer metrics: the isolated probes, then passes
// alternating tracing off and on so that the overhead is a paired figure.
func (h *harness) traced(w workload) *result {
	started := time.Now()
	res := &result{}
	probes, err := h.layerProbes()
	if err != nil {
		res.problem("%v", err)
	}
	r := *h.run
	minPairs := 2
	if !w.batch {
		// One rebuild period per session: the two sessions run one after the
		// other here, so a pass takes as long as a concurrent one of twice
		// the requests.
		r.sz.kvRequests = max(r.sz.kvRequests/2, 1)
		minPairs = 1
	}
	short := r
	short.sz.kvRequests = max(r.sz.kvRequests/2, 1)
	runtime.GC()
	res.count(w.runPass(&short, passArgs{seed: r.seed, sequential: true})) // warm-up, discarded
	tr := newTracer()
	var untraced, traced []*pass
	yard, err := h.yardstick()
	if err != nil {
		res.problem("%v", err)
		return res.close(h.spec.PerLayer, nil, started)
	}
	loop := time.Now()
	timedLoop(h.budget(started), h.limit(started), 2*minPairs, func(i int) {
		yard.keepUp(time.Since(loop))
		a := passArgs{seed: r.seed, stream: uint64(i + 1), sequential: true}
		if i%2 == 0 {
			untraced = append(untraced, w.runPass(&r, a))
		} else {
			a.tr = tr
			traced = append(traced, w.runPass(&r, a))
		}
	})
	untraced = untraced[:len(traced)] // pairs only
	res.count(untraced...)
	res.count(traced...)
	values, problems := layerValues(w, &r, untraced, traced, tr.ops(), probes)
	values["bench.yardstick_ratio"] = yard.ratio()
	if yard.err != nil {
		res.problem("yardstick: %v", yard.err)
	}
	res.Problems = append(res.Problems, problems...)
	if h.spansPath != "" {
		if err := writeSpans(h.spansPath, tr); err != nil {
			res.problem("%v", err)
		}
	}
	return res.close(h.spec.PerLayer, values, started)
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (res *result) report(title string) {
	printMetrics(title, res.Metrics)
	if t := res.OpTimes; t != nil {
		fmt.Printf("  op times: n=%d, median %.4f ms", t.N, t.P50)
		if t.TailP > 0 {
			fmt.Printf(", p%v %.4f ms", t.TailP, t.Tail)
		}
		fmt.Println()
	}
	if res.Yardstick > 0 {
		fmt.Printf("  yardstick ratio %.4f: setup_s, op_ms_p50 and throughput_rec_s are scaled by it, the op times above are not\n", res.Yardstick)
	}
	fmt.Printf("  attempted %d, failed %d, correct %v, %.1f s\n", res.Attempted, res.Failed, res.Correct, res.WallS)
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// single is the driver's entry: one workload, one mode, one JSON line last.
func (h *harness) single(w workload, traceOn bool) int {
	var res *result
	if traceOn {
		res = h.traced(w)
	} else {
		res = h.untraced(w)
	}
	res.report(fmt.Sprintf("%s (seed %d, %.0f s, trace %v)", w.name, h.run.seed, h.seconds, traceOn))
	if res.Metrics == nil {
		return 1 // the metric set does not match BENCHMARK.json: no result line
	}
	line := *res
	line.Samples, line.OpTimes, line.Yardstick, line.WallS, line.Problems = nil, nil, 0, 0, nil // the driver wants exactly four keys
	data, err := json.Marshal(&line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// results is the file the suite writes and -compare reads.
type results struct {
	Meta struct {
		Note       string  `json:"note"`
		GoVersion  string  `json:"go_version"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Quick      bool    `json:"quick"`
	} `json:"meta"`
	// Runs holds the untraced suite, once per -runs; Traced the per-layer
	// metrics of the one traced pass. Both are keyed by workload.
	Runs   []map[string]*result `json:"runs"`
	Traced map[string]*result   `json:"traced"`
}

// suite runs every workload untraced (runs times), then traced, prints every
// metric by name with its unit and writes the results file.
func (h *harness) suite(runs int, out string) int {
	var file results
	file.Meta.Note = "timings are this sandbox's, over loopback; the exact counts are the durable part"
	file.Meta.GoVersion, file.Meta.NumCPU, file.Meta.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	file.Meta.Seed, file.Meta.Seconds, file.Meta.Quick = h.run.seed, h.seconds, h.run.sz == quickSizes
	ok := true
	for i := 0; i < max(runs, 1); i++ {
		suite := map[string]*result{}
		for _, w := range workloads {
			res := h.untraced(w)
			res.report(fmt.Sprintf("%s: end to end, run %d of %d", w.name, i+1, max(runs, 1)))
			suite[w.name] = res
			ok = ok && res.Correct
		}
		file.Runs = append(file.Runs, suite)
	}
	file.Traced = map[string]*result{}
	spans := h.spansPath
	for _, w := range workloads {
		if spans != "" {
			h.spansPath = fmt.Sprintf("%s.%s.json", spans, w.name)
		}
		res := h.traced(w)
		res.report(w.name + ": per layer, traced run")
		file.Traced[w.name] = res
		ok = ok && res.Correct
	}
	if out != "" {
		data, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Println("FAILED: see PROBLEM lines above")
		return 1
	}
	return 0
}
