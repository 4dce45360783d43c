package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec is BENCHMARK.json: the names, units, directions and bounds every
// report and comparison is held to. The harness never restates them.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent (the benchmark runs from the repository root or from its own
// directory).
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// exact names the metrics that are counts fixed by the public geometry: they
// must repeat bit for bit across passes, seeds and runs, and the comparator
// judges them by equality, not by a bound.
var exact = map[string]bool{
	"block_ios_per_rec":  true,
	"round_trips_per_op": true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the spec's units to the values; a value for a name the
// spec does not list, or a listed name with no value, is a harness bug.
func withUnits(defs []specMetric, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// endToEndSamples returns, for each end-to-end metric, one sample per pass;
// the reported value is their median. The timed ones are divided by yard, the
// run's yardstick ratio.
func endToEndSamples(ps []*pass, yard float64) map[string][]float64 {
	s := map[string][]float64{}
	for _, p := range ps {
		s["setup_s"] = append(s["setup_s"], p.setupS/yard)
		s["op_ms_p50"] = append(s["op_ms_p50"], median(p.opMs)/yard)
		s["throughput_rec_s"] = append(s["throughput_rec_s"], float64(p.records)/p.netS()*yard)
		s["block_ios_per_rec"] = append(s["block_ios_per_rec"], float64(p.blockIOs)/float64(p.records))
		s["round_trips_per_op"] = append(s["round_trips_per_op"], float64(p.roundTrips)/float64(p.ops))
		s["allocs_per_rec"] = append(s["allocs_per_rec"], p.mallocs/float64(p.records))
		s["alloc_bytes_per_rec"] = append(s["alloc_bytes_per_rec"], p.bytes/float64(p.records))
	}
	return s
}

func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out
}

// driftingCounts names the exact metrics whose samples are not all equal.
// Passes run on different inputs, so a drift is a data-dependent count: an
// obliviousness failure, not noise.
func driftingCounts(samples map[string][]float64) []string {
	var out []string
	for name := range exact {
		for _, x := range samples[name] {
			if x != samples[name][0] {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func pool(ps []*pass, f func(*pass) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p)...)
	}
	return out
}

func sum(ps []*pass, f func(*pass) float64) float64 {
	var t float64
	for _, p := range ps {
		t += f(p)
	}
	return t
}

// setupSpans are op spans that belong to set-up, not to the timed window.
var setupSpans = map[string]bool{"store": true, "oram_build": true}

// rebuildWireRequests separates an ORAM access served from the private
// buffer and the probe path from one that also rebuilt a level.
const rebuildWireRequests = 16

// layerValues computes every per-layer metric of one traced run: untraced and
// traced are the alternating passes, ops the traced passes' spans, probes the
// isolated layer timings. Metrics of a layer the workload does not cross are
// reported as 0.
func layerValues(w workload, r *run, untraced, traced []*pass, ops []opTrace, probes map[string]float64) (map[string]float64, []string) {
	v := map[string]float64{}
	var problems []string
	for name, x := range probes {
		v[name] = x
	}

	var timed []opTrace // the op spans inside timed windows
	durs := map[string][]float64{}
	for _, o := range ops {
		durs[o.Name] = append(durs[o.Name], ms(o.dur()))
		if !setupSpans[o.Name] {
			timed = append(timed, o)
		}
	}
	tracedOps := sum(traced, func(p *pass) float64 { return float64(p.ops) })
	perOp := func(f func(opTrace) time.Duration) float64 {
		var t time.Duration
		for _, o := range timed {
			t += f(o)
		}
		return ms(t) / tracedOps
	}

	// oblivext: the client's own share of an op.
	v["oblivext.store_ms"] = median(durs["store"])
	v["oblivext.client_self_ms"] = perOp(func(o opTrace) time.Duration { return o.clientSelf })

	// core and obsort: one span per public call, with its exact I/O.
	blocks := float64(r.n() / blockSize)
	for metricName, spanName := range map[string]string{
		"core.sort_randomized": "sort_randomized", "core.select": "select", "core.quantiles": "quantiles",
		"core.mark": "mark", "core.compact_tight": "compact_tight", "core.compact_loose": "compact_loose",
		"obsort.sort_auto": "sort_auto",
	} {
		v[metricName+"_ms"] = median(durs[spanName])
		var ios []float64
		for _, o := range timed {
			if o.Name == spanName {
				ios = append(ios, float64(o.IOs)/blocks)
			}
		}
		v[metricName+"_ios_per_block"] = median(ios)
		for _, x := range ios {
			if x != ios[0] {
				problems = append(problems, fmt.Sprintf("%s: block I/O differs between inputs (%v vs %v)", spanName, x, ios[0]))
				break
			}
		}
	}

	// netstore: the wire and the server, from the spans of the timed ops.
	var reqUs, serverUs []float64
	var bytesIn, bytesOut, failedAttempts float64
	for _, o := range ops {
		for _, s := range o.wire {
			if s.Failed {
				failedAttempts++
			}
		}
	}
	for _, o := range timed {
		for _, s := range o.ioWire() {
			reqUs = append(reqUs, us(s.dur()))
		}
		for _, s := range withName(o.server, ioPath) {
			serverUs = append(serverUs, us(s.dur()))
			bytesIn += float64(s.BytesIn)
			bytesOut += float64(s.BytesOut)
		}
		if e := o.identityError(); e > 0.01 {
			problems = append(problems, fmt.Sprintf("span identity off by %.2f%% on op %s (%v)", 100*e, o.Name, o.dur()))
		}
	}
	requests := float64(len(reqUs))
	v["netstore.requests_per_op"] = requests / tracedOps
	v["netstore.req_us_p50"] = median(reqUs)
	v["netstore.req_us_p99"] = percentile(reqUs, 99)
	v["netstore.wire_self_ms_per_op"] = perOp(func(o opTrace) time.Duration { return o.wireSelf })
	v["netstore.server_ms_per_op"] = perOp(func(o opTrace) time.Duration { return o.serverBusy })
	v["netstore.server_us_per_req_p50"] = median(serverUs)
	v["netstore.bytes_in_per_req"] = bytesIn / math.Max(requests, 1)
	v["netstore.bytes_out_per_req"] = bytesOut / math.Max(requests, 1)
	v["netstore.retries"] = failedAttempts + sum(untraced, func(p *pass) float64 { return float64(p.retries) })
	records := func(ps []*pass) float64 { return sum(ps, func(p *pass) float64 { return float64(p.records) }) }
	v["netstore.wire_bytes_per_rec"] = sum(untraced, func(p *pass) float64 { return float64(p.wire.bytesIn + p.wire.bytesOut) }) / records(untraced)
	v["extmem.sealed_bytes_per_rec"] = sum(untraced, func(p *pass) float64 { return float64(p.sealedBytes) }) / records(untraced)
	// The middleware and the servers count the same bodies.
	srv := serverCounts{}
	for _, p := range traced {
		srv.requests += p.wire.requests
		srv.bytesIn += p.wire.bytesIn
		srv.bytesOut += p.wire.bytesOut
	}
	if got := (serverCounts{int64(len(serverUs)), int64(bytesIn), int64(bytesOut)}); got != srv {
		problems = append(problems, fmt.Sprintf("traced middleware saw %+v, the servers counted %+v", got, srv))
	}

	// oram and kvservice: kv_mix_http only.
	v["oram.build_ms"] = median(durs["oram_build"])
	for _, name := range []string{"oram.ios_per_access", "oram.wire_req_per_op_p50", "oram.wire_req_per_op_max",
		"oram.rebuild_op_share", "oram.rebuild_time_share", "kvservice.get_ms_p50", "kvservice.put_ms_p50",
		"kvservice.get_ms_p99", "kvservice.put_ms_p99", "kvservice.op_ms_p99"} {
		v[name] = 0
	}
	if !w.batch {
		v["oram.ios_per_access"] = sum(untraced, func(p *pass) float64 { return float64(p.blockIOs) }) / records(untraced)
		var wireReqs []float64
		var rebuildOps float64
		var rebuildTime, allTime time.Duration
		for _, o := range timed {
			n := float64(len(o.ioWire()))
			wireReqs = append(wireReqs, n)
			allTime += o.dur()
			if n > rebuildWireRequests {
				rebuildOps++
				rebuildTime += o.dur()
			}
		}
		v["oram.wire_req_per_op_p50"] = median(wireReqs)
		v["oram.wire_req_per_op_max"] = percentile(wireReqs, 100)
		v["oram.rebuild_op_share"] = rebuildOps / math.Max(float64(len(timed)), 1)
		v["oram.rebuild_time_share"] = float64(rebuildTime) / math.Max(float64(allTime), 1)
		gets := pool(untraced, func(p *pass) []float64 { return p.getMs })
		puts := pool(untraced, func(p *pass) []float64 { return p.putMs })
		v["kvservice.get_ms_p50"], v["kvservice.get_ms_p99"] = median(gets), percentile(gets, 99)
		v["kvservice.put_ms_p50"], v["kvservice.put_ms_p99"] = median(puts), percentile(puts, 99)
		v["kvservice.op_ms_p99"] = percentile(pool(untraced, func(p *pass) []float64 { return p.opMs }), 99)
	}

	// extmem, process, bench: from the passes themselves.
	all := append(append([]*pass(nil), untraced...), traced...)
	var high float64
	for _, p := range all {
		high = math.Max(high, float64(p.cacheHighWater))
	}
	v["extmem.cache_high_water_words"] = high
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)          //nolint:errcheck // cannot fail for RUSAGE_SELF
	v["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	v["process.cpu_ms_per_op"] = sum(untraced, func(p *pass) float64 { return p.cpuMs }) / sum(untraced, func(p *pass) float64 { return float64(p.ops) })
	v["process.gc_cycles_per_op"] = sum(untraced, func(p *pass) float64 { return p.gcs }) / sum(untraced, func(p *pass) float64 { return float64(p.ops) })
	v["process.stolen_cpu_share"] = sum(all, func(p *pass) float64 { return p.stolenS }) / (sum(all, func(p *pass) float64 { return p.wallS }) * float64(runtime.NumCPU()))
	v["process.gc_cpu_share"] = sum(untraced, func(p *pass) float64 { return p.gcCPUS }) / (sum(untraced, func(p *pass) float64 { return p.cpuMs }) / 1e3)
	wall := func(ps []*pass) float64 {
		return median(pool(ps, func(p *pass) []float64 { return []float64{p.netS()} }))
	}
	v["bench.trace_overhead_pct"] = 100 * (wall(traced)/wall(untraced) - 1)
	v["bench.failed_ops_share"] = sum(all, func(p *pass) float64 { return float64(p.failed) }) / sum(all, func(p *pass) float64 { return float64(p.ops) })

	// The traced passes must reproduce the untraced passes' exact counts.
	if len(untraced) > 0 && len(traced) > 0 {
		u, t := medians(endToEndSamples(untraced, 1)), medians(endToEndSamples(traced, 1))
		for name := range exact {
			if u[name] != t[name] {
				problems = append(problems, fmt.Sprintf("%s: traced pass counted %v, untraced %v", name, t[name], u[name]))
			}
		}
	}
	return v, problems
}

// printMetrics writes one "name value unit" line per metric, sorted by name.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	width := 0
	for name := range ms {
		names = append(names, name)
		width = max(width, len(name))
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, name := range names {
		fmt.Printf("  %-*s %s %s\n", width, name, formatValue(ms[name].Value), ms[name].Unit)
	}
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%14.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimSuffix(s, ".")
	}
	return fmt.Sprintf("%14s", strings.TrimSpace(s))
}
