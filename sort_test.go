package oblivext

import (
	"fmt"
	"slices"
	"testing"

	"oblivext/internal/obsort"
)

// TestSortOrderedInputs runs the public Sort at the benchmark's geometry —
// 2^16 records, B = 8, M = 4 096 — under every engine name Config.Sorter
// accepts and the default "", on random, sorted, reversed and few-distinct
// keys, each on tapes 1–3. Every run returns the records in (Key,
// insertion) order, and an engine makes one trace per tape whatever the
// input: a declared failure whose rate, or a retry whose count, depended on
// the keys' order would show here as a second trace. The retired "bucket"
// engine, whose splitters were sampled from the data, is rejected by New.
func TestSortOrderedInputs(t *testing.T) {
	const n, b = 1 << 16, 8
	if _, err := New(Config{BlockSize: b, CacheWords: 4096, Sorter: "bucket"}); err == nil {
		t.Error(`New accepted Sorter "bucket"`)
	}
	names, inputs := orderedInputs(n)
	names, inputs = names[:4], inputs[:4] // random, sorted, reversed, few-distinct
	want := make([][]Record, len(inputs))
	for i, recs := range inputs {
		want[i] = smallest(recs, n)
	}
	for _, engine := range append(obsort.EngineNames(), "") {
		for tape := uint64(1); tape <= 3; tape++ {
			t.Run(fmt.Sprintf("%q/tape=%d", engine, tape), func(t *testing.T) {
				var first TraceSummary
				for i, recs := range inputs {
					c, err := New(Config{BlockSize: b, CacheWords: 4096, Seed: tape, Sorter: engine})
					if err != nil {
						t.Fatal(err)
					}
					arr, err := c.Store(recs)
					if err != nil {
						t.Fatal(err)
					}
					c.EnableTrace(0)
					if err := arr.Sort(); err != nil {
						t.Fatalf("%s: %v", names[i], err)
					}
					tr := c.TraceSummary()
					got, err := arr.Records()
					if err != nil {
						t.Fatal(err)
					}
					c.Close()
					if !slices.Equal(got, want[i]) {
						t.Fatalf("%s: the output is not the input in (Key, insertion) order", names[i])
					}
					if i == 0 {
						first = tr
					} else if tr != first {
						t.Fatalf("%s: trace %+v, %s's %+v", names[i], tr, names[0], first)
					}
				}
			})
		}
	}
}
