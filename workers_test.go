package oblivext

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Config.Workers is deprecated and New ignores it: Alice's compute is
// serial. The field stays only because callers outside this module still
// set it, so these tests pin that it is inert: whatever value it holds, an
// operation leaves the output, the trace Bob observes and the crypto byte
// count of a Config that leaves it unset.

// sortOnce stores recs under cfg, sorts them with the trace on, and returns
// the trace summary and the sorted records, failing if the order or the
// cache budget is broken.
func sortOnce(t *testing.T, cfg Config, recs []Record) (TraceSummary, []Record, IOStats) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace(0)
	c.ResetStats()
	if err := arr.Sort(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("lost records: %d of %d", len(got), len(recs))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if hw := c.CacheHighWater(); hw > cfg.CacheWords {
		t.Fatalf("cache high water %d exceeds M=%d", hw, cfg.CacheWords)
	}
	return c.TraceSummary(), got, c.Stats()
}

func TestWorkersTraceInvariantAcrossEngines(t *testing.T) {
	const n, b, cache = 1 << 10, 8, 1024
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(i*2654435761) % (1 << 20), Val: uint64(i)}
	}
	for _, engine := range []string{"randomized", "bitonic", "zigzag"} {
		cfg := Config{BlockSize: b, CacheWords: cache, Seed: 42, Sorter: engine}
		wantSum, wantRecs, _ := sortOnce(t, cfg, recs)
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", engine, w), func(t *testing.T) {
				cfg := cfg
				cfg.Workers = w
				sum, got, _ := sortOnce(t, cfg, recs)
				if sum != wantSum {
					t.Fatalf("trace %+v, without Workers %+v", sum, wantSum)
				}
				for i := range got {
					if got[i] != wantRecs[i] {
						t.Fatalf("record %d is %+v, without Workers %+v", i, got[i], wantRecs[i])
					}
				}
			})
		}
	}
}

func TestWorkersTraceInvariantEncrypted(t *testing.T) {
	const n, b, cache = 1 << 9, 8, 1024
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64((n - i) * 13), Val: uint64(i)}
	}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i + 1)
	}
	cfg := Config{BlockSize: b, CacheWords: cache, Seed: 7, EncryptionKey: key}
	wantSum, _, wantStats := sortOnce(t, cfg, recs)
	if wantStats.BytesSealed == 0 {
		t.Fatal("an encrypted sort sealed no bytes")
	}
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		sum, _, st := sortOnce(t, cfg, recs)
		if sum != wantSum {
			t.Fatalf("encrypted trace at Workers=%d: %+v, without Workers %+v", w, sum, wantSum)
		}
		if st.BytesSealed != wantStats.BytesSealed {
			t.Fatalf("BytesSealed %d at Workers=%d, without Workers %d", st.BytesSealed, w, wantStats.BytesSealed)
		}
	}
}

func TestWorkersTraceInvariantORAM(t *testing.T) {
	const logical = 64
	run := func(w int) (TraceSummary, []uint64) {
		c, err := New(Config{BlockSize: 4, CacheWords: 2048, Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTrace(0)
		r, err := c.NewORAM(logical)
		if err != nil {
			t.Fatal(err)
		}
		for i := range uint64(logical) {
			if err := r.Write(int(i), []uint64{i * 7, i, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		vals := make([]uint64, logical)
		for i := range vals {
			words, err := r.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = words[0]
		}
		return c.TraceSummary(), vals
	}
	wantSum, wantVals := run(0)
	for _, w := range []int{2, 4} {
		sum, vals := run(w)
		if sum != wantSum {
			t.Fatalf("ORAM trace at Workers=%d: %+v, without Workers %+v", w, sum, wantSum)
		}
		for i := range vals {
			if vals[i] != wantVals[i] {
				t.Fatalf("ORAM payload %d at Workers=%d: %d, without Workers %d", i, w, vals[i], wantVals[i])
			}
		}
	}
}

// TestWorkersConfigValidation: New uses no Workers value, so it rejects
// none.
func TestWorkersConfigValidation(t *testing.T) {
	for _, w := range []int{-1, 0, 8} {
		c, err := New(Config{Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d rejected: %v", w, err)
		}
		c.Close()
	}
}

// TestAliceComputeIsSerial: no non-test file of the algorithm packages
// imports sync or starts a goroutine, so their in-cache work runs on the
// caller's goroutine alone. CI's "serial algorithms" step checks the same
// with a grep; this check reads the syntax tree.
func TestAliceComputeIsSerial(t *testing.T) {
	for _, pkg := range []string{"core", "obsort", "route", "oram", "iblt"} {
		t.Run(pkg, func(t *testing.T) {
			dir := filepath.Join("internal", pkg)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			files := 0
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files++
				for _, imp := range f.Imports {
					if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || strings.HasPrefix(p, "sync/") {
						t.Errorf("%s imports %q", fset.Position(imp.Pos()), p)
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s starts a goroutine", fset.Position(g.Pos()))
					}
					return true
				})
			}
			if files == 0 {
				t.Fatalf("no Go files in %s", dir)
			}
		})
	}
}
