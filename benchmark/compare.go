package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// exactLayer names the per-layer metrics that are counts fixed by the public
// geometry; like the exact end-to-end ones they are compared by equality.
var exactLayer = []string{
	"core.sort_randomized_ios_per_block", "core.select_ios_per_block", "core.quantiles_ios_per_block",
	"core.mark_ios_per_block", "core.compact_tight_ios_per_block", "core.compact_loose_ios_per_block",
	"obsort.sort_auto_ios_per_block", "netstore.requests_per_op", "netstore.bytes_in_per_req",
	"netstore.bytes_out_per_req", "netstore.wire_bytes_per_rec", "netstore.retries",
	"extmem.sealed_bytes_per_rec", "extmem.cache_high_water_words", "oram.ios_per_access",
	"oram.wire_req_per_op_p50", "oram.wire_req_per_op_max", "oram.rebuild_op_share", "bench.failed_ops_share",
}

// judge compares side b against side a on one metric. Exact metrics are
// judged by equality. A timed metric is unresolved when either side's own
// interquartile spread over its samples exceeds the bound; otherwise b is
// worse (better) when its median is beyond a's by more than the bound.
func judge(m specMetric, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	lowerIsBetter := m.Better != "higher"
	if exact[m.Name] || m.Bound == 0 {
		switch {
		case ma == mb:
			return same
		case (mb < ma) == lowerIsBetter:
			return better
		default:
			return worse
		}
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return unresolved
	}
	change := (mb - ma) / math.Abs(ma) // positive: b is larger
	if !lowerIsBetter {
		change = -change
	}
	switch {
	case change > m.Bound:
		return worse
	case change < -m.Bound:
		return better
	default:
		return same
	}
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

// pooled returns the metric's per-pass samples over all of the file's runs.
func (r *results) pooled(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if res := run[workload]; res != nil {
			out = append(out, res.Samples[name]...)
		}
	}
	return out
}

// compareFiles prints one verdict per (metric, workload) and returns 1 when
// any is worse.
func compareFiles(sp *spec, aPath, bPath string) int {
	a, err := readResults(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(sp, a, b)
}

func compareResults(sp *spec, a, b *results) int {
	counts := map[verdict]int{}
	fmt.Printf("%-14s %-36s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	row := func(workload string, m specMetric, xa, xb []float64) {
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		v := judge(m, xa, xb)
		counts[v]++
		ma, mb := median(xa), median(xb)
		change := "-"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
		}
		bound := "exact"
		if !exact[m.Name] && m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Printf("%-14s %-36s %14s %14s %8s %7s  %s\n", workload, m.Name,
			strings.TrimSpace(formatValue(ma)), strings.TrimSpace(formatValue(mb)), change, bound, v)
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(w.Name, m, a.pooled(w.Name, m.Name), b.pooled(w.Name, m.Name))
		}
		ta, tb := a.Traced[w.Name], b.Traced[w.Name]
		if ta == nil || tb == nil {
			continue
		}
		for _, name := range exactLayer {
			ma, okA := ta.Metrics[name]
			mb, okB := tb.Metrics[name]
			if okA && okB {
				row(w.Name, specMetric{Name: name, Better: "lower"}, []float64{ma.Value}, []float64{mb.Value})
			}
		}
	}
	fmt.Printf("%d better, %d same, %d worse, %d unresolved\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}
