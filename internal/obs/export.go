package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// chromeEvent is one Chrome trace-event ("ph":"X" complete event). The
// format is what Perfetto and chrome://tracing load natively: timestamps
// and durations in microseconds, args free-form.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the span forest as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each tree
// gets its own tid so parallel collectors (one per bench environment) can
// be merged into one file.
func WriteChromeTrace(w io.Writer, forests ...[]*Span) error {
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	var t0 time.Time
	for _, roots := range forests {
		for _, s := range roots {
			if t0.IsZero() || s.Start.Before(t0) {
				t0 = s.Start
			}
		}
	}
	tid := 0
	for _, roots := range forests {
		tid++
		for _, s := range roots {
			appendChrome(&tr.TraceEvents, s, t0, tid)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}

func appendChrome(out *[]chromeEvent, s *Span, t0 time.Time, tid int) {
	args := map[string]any{
		"reads":       s.IO.Reads,
		"writes":      s.IO.Writes,
		"round_trips": s.IO.RoundTrips,
	}
	if s.IO.BytesSealed > 0 || s.IO.BytesOpened > 0 {
		args["bytes_sealed"] = s.IO.BytesSealed
		args["bytes_opened"] = s.IO.BytesOpened
	}
	if s.Predicted.IOs >= 0 {
		args["predicted_io"] = s.Predicted.IOs
	}
	if s.Predicted.RoundTrips >= 0 {
		args["predicted_round_trips"] = s.Predicted.RoundTrips
	}
	for _, a := range s.Attrs {
		args[a.Key] = a.Value
	}
	if s.auditKey != "" {
		args["audit_key"] = s.auditKey
		args["audit_fp"] = fmt.Sprintf("%016x/%d", s.fpHash, s.fpLen)
	}
	*out = append(*out, chromeEvent{
		Name: s.Name,
		Ph:   "X",
		Ts:   float64(s.Start.Sub(t0).Microseconds()),
		Dur:  float64(s.Dur.Microseconds()),
		Pid:  1,
		Tid:  tid,
		Args: args,
	})
	for _, ch := range s.Children {
		appendChrome(out, ch, t0, tid)
	}
}

// RenderTree renders the span forest as a human-readable indented tree,
// one line per span with wall time, I/O deltas, and measured-vs-predicted
// block I/O where an engine predictor was attached.
func RenderTree(roots []*Span) string {
	var b strings.Builder
	for _, s := range roots {
		renderSpan(&b, s, 0)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s", s.Name)
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	fmt.Fprintf(b, ": %v, %d R + %d W, %d rt",
		s.Dur.Round(time.Microsecond), s.IO.Reads, s.IO.Writes, s.IO.RoundTrips)
	if s.IO.BytesSealed > 0 || s.IO.BytesOpened > 0 {
		fmt.Fprintf(b, ", %d B sealed / %d B opened", s.IO.BytesSealed, s.IO.BytesOpened)
	}
	if s.Predicted.IOs >= 0 {
		fmt.Fprintf(b, " [predicted %d I/O, measured %d]", s.Predicted.IOs, s.IO.Total())
	}
	if s.Predicted.RoundTrips >= 0 {
		fmt.Fprintf(b, " [predicted %d rt]", s.Predicted.RoundTrips)
	}
	if s.auditKey != "" {
		fmt.Fprintf(b, " {audit %016x/%d}", s.fpHash, s.fpLen)
	}
	b.WriteByte('\n')
	for _, ch := range s.Children {
		renderSpan(b, ch, depth+1)
	}
}

// SumIO returns the component-wise sum of the root spans' counter deltas.
// When spans cover every operation between two stats resets, this equals
// the Disk's counters over the same window — the attribution invariant the
// tests and cmd/obsort check.
func SumIO(roots []*Span) Counters {
	var out Counters
	for _, s := range roots {
		out = out.Add(s.IO)
	}
	return out
}
