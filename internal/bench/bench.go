// Package bench is the experiment harness: one generator per experiment
// (E1–E23 plus the Figure 1 rendering; All is the index, README.md's
// Development section describes them), each producing a markdown table.
// cmd/obench runs them.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"oblivext/internal/extmem"
	"oblivext/internal/workload"
)

// Table is one experiment's output: a title, column headers, and rows.
// Metrics optionally carries machine-readable key figures (obench -json
// serializes them so CI can track the perf trajectory across PRs).
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	Metrics map[string]float64 `json:",omitempty"`
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n> " + n + "\n")
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"E1", "IBLT listEntries success rate (Lemma 1)", E1},
		{"E2", "Consolidation exact I/O (Lemma 3)", E2},
		{"E3", "Sparse tight compaction (Theorem 4)", E3},
		{"E4", "Butterfly compaction sweep + ablation (Theorem 6)", E4},
		{"FIG1", "Figure 1 routing example", Fig1},
		{"E5", "Loose compaction linear I/O (Theorem 8)", E5},
		{"E6", "log*-round loose compaction (Theorem 9)", E6},
		{"E7", "Selection vs baselines (Theorems 12/13)", E7},
		{"E8", "Quantiles (Theorem 17)", E8},
		{"E9", "Sorting: randomized vs deterministic vs non-oblivious (Theorem 21)", E9},
		{"E10", "ORAM amortized overhead by rebuild sort (§1 headline)", E10},
		{"E11", "Shuffle-and-deal overflow vs c (Lemma 18/Cor 19)", E11},
		{"E12", "Thinning-pass survivor decay (Lemma 7)", E12},
		{"E13", "Input-invariance of oblivious traces (E13)", E13},
		{"E14", "Vectored block I/O: round trips scalar vs batched", E14},
		{"E15", "Sharded multi-backend store: parallel fan-out speedup", E15},
		{"E16", "Real HTTP backend: measured cost and server-audited trace", E16},
		{"E17", "Batched ORAM accesses: measured round trips over a real server", E17},
		{"E18", "Client-side encryption overhead: sealed vs plaintext backends", E18},
		{"E19", "Sorter engines head-to-head: randomized vs bitonic vs zigzag vs bucket", E19},
		{"E20", "Observability overhead: phase spans off vs on", E20},
		{"E21", "Parallel compute scaling: Config.Workers speedup, trace-invariant", E21},
		{"E22", "Replicated fleet: hedged-read latency and replica-kill recovery", E22},
		{"E23", "Service mode under load: throughput and latency vs concurrent sessions", E23},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// defaultWorkers is the Env.Workers / Config.Workers value every
// measurement environment uses (obench -workers). E21 ignores it — that
// experiment IS the worker sweep and sets the count per row.
var defaultWorkers = 1

// SetWorkers sets the worker count applied to every experiment
// environment; 0 or 1 means serial.
func SetWorkers(w int) { defaultWorkers = w }

// newEnv builds a measurement environment (span-collected when obench
// -trace-out enabled capture).
func newEnv(blocks, b, m int, seed uint64) *extmem.Env {
	env := captureEnv(extmem.NewEnv(blocks, b, m, seed))
	env.Workers = defaultWorkers
	return env
}

// fillUniform loads nKeys uniform keys into a fresh array.
func fillUniform(env *extmem.Env, blocks, nKeys int, seed uint64) extmem.Array {
	a := env.D.Alloc(blocks)
	keys, err := workload.Keys(workload.Uniform, nKeys, seed)
	if err != nil {
		panic(err)
	}
	if err := workload.Fill(a, keys); err != nil {
		panic(err)
	}
	return a
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// ratio formats a/b with two decimals, or "-" when b is zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return f("%.2f", a/b)
}

// median returns the middle value of a sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
