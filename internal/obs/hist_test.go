package obs

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyHistogramBuckets(t *testing.T) {
	if got := LatencyBucketBound(0); got != 50*time.Microsecond {
		t.Fatalf("bucket 0 bound = %v", got)
	}
	for i := 1; i < latencyBuckets-1; i++ {
		if LatencyBucketBound(i) != 2*LatencyBucketBound(i-1) {
			t.Fatalf("bucket %d does not double bucket %d", i, i-1)
		}
	}
	if LatencyBucketBound(latencyBuckets-1) >= 0 {
		t.Fatal("overflow bucket reported a finite bound")
	}

	var h LatencyHistogram
	h.Observe(50 * time.Microsecond) // lands in bucket 0 (inclusive bound)
	h.Observe(51 * time.Microsecond) // bucket 1
	h.Observe(40 * time.Millisecond) // bucket 10 (51.2ms bound)
	h.Observe(time.Hour)             // overflow
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[10] != 1 || h.Counts[latencyBuckets-1] != 1 {
		t.Fatalf("bucket placement: %v", h.Counts)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 50*time.Microsecond + 51*time.Microsecond + 40*time.Millisecond + time.Hour; h.Sum != want {
		t.Fatalf("sum = %v, want %v", h.Sum, want)
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	var h LatencyHistogram
	if h.P50() != 0 {
		t.Fatal("empty histogram has a nonzero quantile")
	}
	// 99 fast observations and one slow one: p50/p95 resolve to the fast
	// bucket's bound, p99 is pulled toward the slow bucket.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond) // bucket 1, bound 100µs
	}
	h.Observe(10 * time.Millisecond) // bucket 8, bound 12.8ms
	if got := h.P50(); got != 100*time.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.P95(); got != 100*time.Microsecond {
		t.Fatalf("p95 = %v", got)
	}
	if got := h.P99(); got != 100*time.Microsecond {
		t.Fatalf("p99 = %v (99 of 100 within the fast bucket)", got)
	}
	if got := h.Quantile(1.0); got != LatencyBucketBound(8) {
		t.Fatalf("max quantile = %v, want %v", got, LatencyBucketBound(8))
	}
	// Overflow-only histogram caps at the last finite bound.
	var o LatencyHistogram
	o.Observe(time.Hour)
	if got := o.P50(); got != latencyBase<<(latencyBuckets-2) {
		t.Fatalf("overflow quantile = %v", got)
	}

	var m LatencyHistogram
	m.Merge(h)
	m.Merge(o)
	if m.Count() != h.Count()+o.Count() || m.Sum != h.Sum+o.Sum {
		t.Fatal("merge lost observations")
	}
}

func TestLatencyHistogramPrometheus(t *testing.T) {
	var h LatencyHistogram
	h.Observe(60 * time.Microsecond)
	h.Observe(60 * time.Microsecond)
	h.Observe(time.Hour)
	var b strings.Builder
	h.WritePrometheus(&b, "x_seconds")
	out := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="5e-05"} 0`,
		`x_seconds_bucket{le="0.0001"} 2`, // cumulative
		`x_seconds_bucket{le="+Inf"} 3`,
		"x_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
