// Command obench runs the reproduction experiments (E1–E21 and the
// Figure 1 rendering; -list prints the index, README.md's Development
// section describes them) and prints their tables as markdown.
//
// Usage:
//
//	obench                               # run everything
//	obench -exp E9                       # run one experiment
//	obench -exp E17 -json BENCH_oram.json # also write the tables as JSON
//	obench -list                         # list experiment IDs
//
// -json writes the executed tables — headers, rows, notes, and the
// machine-readable Metrics map where an experiment fills one — as a JSON
// array, so CI can archive perf artifacts (the BENCH_oram.json and
// BENCH_crypt.json artifacts track the ORAM round-trip and
// encryption-overhead trajectories across PRs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"oblivext/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. E9)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "write the executed tables as a JSON array to this path")
	traceOut := flag.String("trace-out", "", "collect phase spans in every measurement environment and write them as one Chrome trace-event JSON file (one track per environment)")
	workers := flag.Int("workers", 1, "goroutines for Alice-side in-cache compute in every experiment environment (0 or 1 = serial); E21 sweeps its own counts regardless")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}
	if *traceOut != "" {
		bench.EnableSpanCapture()
	}
	bench.SetWorkers(*workers)
	run := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "obench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		run = []bench.Experiment{e}
	}
	var tables []*bench.Table
	for _, e := range run {
		start := time.Now()
		table := e.Run()
		tables = append(tables, table)
		fmt.Println(table.Markdown())
		fmt.Printf("_(%s completed in %v)_\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "obench: marshal tables: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "obench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obench: wrote %d table(s) to %s\n", len(tables), *jsonPath)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obench: %v\n", err)
			os.Exit(1)
		}
		n, err := bench.WriteCapturedTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obench: write trace %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obench: wrote %d span forest(s) to %s\n", n, *traceOut)
	}
}
