package obs

import (
	"fmt"
	"io"
	"time"
)

// Latency histogram bucket geometry, shared by the network client's
// per-shard measurements and the servers' /metrics exports, so the views are
// directly comparable. Buckets are
// exponential: bound i covers latencies up to 50µs·2^i, from 50µs through
// ~3.3s, with one overflow bucket above the last bound. Fixed buckets keep
// Observe allocation-free and make the histogram a value type (copying
// Stats copies the histogram).
const (
	latencyBuckets = 18 // 17 bounded + overflow
	latencyBase    = 50 * time.Microsecond
)

// LatencyHistogram is a fixed-bucket latency histogram. The zero value is
// ready to use. It is a plain value: callers needing concurrency safety
// (the Client, the Server) guard it with their own mutex.
type LatencyHistogram struct {
	Counts [latencyBuckets]int64
	Sum    time.Duration
}

// LatencyBucketBound returns the inclusive upper bound of bucket i; the
// last bucket (i == latencyBuckets-1) is unbounded and returns a negative
// duration as its sentinel.
func LatencyBucketBound(i int) time.Duration {
	if i >= latencyBuckets-1 {
		return -1
	}
	return latencyBase << i
}

// Observe folds one measured latency into the histogram.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.Sum += d
	for i := 0; i < latencyBuckets-1; i++ {
		if d <= latencyBase<<i {
			h.Counts[i]++
			return
		}
	}
	h.Counts[latencyBuckets-1]++
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed latencies: the bound of the first bucket whose cumulative count
// reaches q of the total. An empty histogram returns 0; a quantile landing
// in the overflow bucket returns the last finite bound (the histogram
// cannot say more than "above everything it can resolve").
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	need := int64(q*float64(total) + 0.999999)
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := 0; i < latencyBuckets; i++ {
		cum += h.Counts[i]
		if cum >= need {
			if i >= latencyBuckets-1 {
				return latencyBase << (latencyBuckets - 2)
			}
			return latencyBase << i
		}
	}
	return latencyBase << (latencyBuckets - 2)
}

// P50 returns the median latency upper bound.
func (h *LatencyHistogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 returns the 95th-percentile latency upper bound.
func (h *LatencyHistogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 returns the 99th-percentile latency upper bound.
func (h *LatencyHistogram) P99() time.Duration { return h.Quantile(0.99) }

// Merge adds another histogram's observations into this one.
func (h *LatencyHistogram) Merge(o LatencyHistogram) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
}

// WritePrometheus emits the histogram in Prometheus text exposition format
// under the given metric name (cumulative buckets with "le" labels in
// seconds, plus _sum and _count).
func (h *LatencyHistogram) WritePrometheus(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i := 0; i < latencyBuckets-1; i++ {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, (latencyBase << i).Seconds(), cum)
	}
	cum += h.Counts[latencyBuckets-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum.Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
