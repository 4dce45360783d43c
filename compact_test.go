package oblivext

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"oblivext/internal/core"
)

// orderedInputs are the inputs a trace comparison runs on: random keys, the
// keys sorted and reversed, few distinct keys and one constant key, each
// record's Val its insertion index.
func orderedInputs(n int) (names []string, inputs [][]Record) {
	r := rand.New(rand.NewPCG(17, 18))
	names = []string{"random", "sorted", "reversed", "few-distinct", "constant"}
	for _, name := range names {
		recs := make([]Record, n)
		for i := range recs {
			k := uint64(5)
			switch name {
			case "random":
				k = r.Uint64()
			case "sorted":
				k = uint64(i)
			case "reversed":
				k = uint64(n - i)
			case "few-distinct":
				k = r.Uint64() % 4
			}
			recs[i] = Record{Key: k, Val: uint64(i)}
		}
		inputs = append(inputs, recs)
	}
	return names, inputs
}

// smallest returns the k records of recs smallest by (Key, Val): a marked
// set that sits at the front of sorted input, at the back of reversed
// input and scattered through random input.
func smallest(recs []Record, k int) []Record {
	s := slices.Clone(recs)
	slices.SortFunc(s, byKeyVal)
	return s[:k]
}

func byKeyVal(x, y Record) int {
	return cmp.Or(cmp.Compare(x.Key, y.Key), cmp.Compare(x.Val, y.Val))
}

// compactions are the two public compactions, each with the output's
// length in blocks at a capacity of rCap blocks and whether it keeps the
// marked records in their original order.
var compactions = []struct {
	name    string
	run     func(a *Array, capacity int64) (*Array, error)
	blocks  func(rCap int) int
	ordered bool
}{
	{"tight", (*Array).CompactTight, func(rCap int) int { return rCap }, true},
	{"loose", (*Array).CompactLoose, func(rCap int) int { return 5 * rCap }, false},
}

// compactOnce stores recs on a fresh client of blocks of b records with the
// given seed and key, marks the records of marked, and traces the
// compaction's call of the given capacity alone. A completed call must
// return rCap blocks (5·rCap loose) holding exactly the marked records, in
// their original order where the compaction keeps it, and every call must
// leave the cache balanced.
func compactOnce(t *testing.T, compact int, recs, marked []Record, b int, capacity int64, seed uint64, key []byte) (TraceSummary, error) {
	t.Helper()
	cp := compactions[compact]
	c, err := New(Config{BlockSize: b, CacheWords: 4096, Seed: seed, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr, err := c.Store(recs)
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]bool, len(recs))
	for _, r := range marked {
		sel[r.Val] = true
	}
	if got, err := arr.Mark(func(r Record) bool { return sel[r.Val] }); err != nil || got != int64(len(marked)) {
		t.Fatalf("marked %d (%v), want %d", got, err, len(marked))
	}
	c.EnableTrace(0)
	out, err := cp.run(arr, capacity)
	if used := c.env.Cache.Used(); used != 0 {
		t.Errorf("%d cache elements still checked out", used)
	}
	if err != nil {
		return c.TraceSummary(), err
	}
	rCap := int(capacity+int64(b)-1)/b + 1
	if out.Blocks() != cp.blocks(rCap) || out.Len() != int64(len(marked)) {
		t.Fatalf("%d blocks holding %d records, want %d holding %d", out.Blocks(), out.Len(), cp.blocks(rCap), len(marked))
	}
	got, err := out.Records()
	if err != nil {
		t.Fatal(err)
	}
	byVal := func(x, y Record) int { return cmp.Compare(x.Val, y.Val) }
	if !cp.ordered {
		slices.SortFunc(got, byVal)
	}
	if !slices.Equal(got, slices.SortedFunc(slices.Values(marked), byVal)) {
		t.Fatalf("the output's records are not the %d marked in their original order", len(marked))
	}
	return c.TraceSummary(), nil
}

// TestCompactOrderedInputs runs both public compactions, CompactTight and
// CompactLoose, at the benchmark's geometry — 2^16 records, B = 8,
// M = 4 096, capacity n/3 — on ordered inputs, marking none, n/3, and
// exactly the capacity's rCap·B records (the smallest), in the clear and
// sealed. Every completed run of a compaction makes one and the same trace
// and returns its output (compactOnce's checks). One record over the
// capacity is a declared ErrCompactionFailed whose trace is no longer than
// a completed run's.
func TestCompactOrderedInputs(t *testing.T) {
	const n, b = 1 << 16, 8
	const capacity = n / 3
	rCap := (capacity+b-1)/b + 1
	names, inputs := orderedInputs(n)
	for ci, cp := range compactions {
		var want TraceSummary
		for i, recs := range inputs {
			for _, k := range []int{0, n / 3, rCap * b, rCap*b + 1} {
				for _, sealed := range []bool{false, true} {
					var key []byte
					if sealed {
						key = fuzzKey(uint64(k))
					}
					t.Run(fmt.Sprintf("%s/%s/marked=%d/sealed=%v", cp.name, names[i], k, sealed), func(t *testing.T) {
						tr, err := compactOnce(t, ci, recs, smallest(recs, k), b, capacity, 5, key)
						switch {
						case k > rCap*b:
							if !errors.Is(err, core.ErrCompactionFailed) {
								t.Fatalf("%d marked over a capacity of %d blocks: %v, want ErrCompactionFailed", k, rCap, err)
							}
							if want.Len > 0 && tr.Len > want.Len {
								t.Fatalf("the failed run traced %d accesses, a completed one %d", tr.Len, want.Len)
							}
						case err != nil:
							t.Fatal(err)
						case want.Len == 0:
							want = tr
						case tr != want:
							t.Fatalf("trace %+v, want %+v", tr, want)
						}
					})
				}
			}
		}
	}
}

// TestCompactSmallCapacity runs both public compactions at a capacity of
// three blocks (capacity 16 records, B = 8, M = 4 096) over 32 blocks of
// random keys, marking one, two and three full blocks' worth of records,
// on 200 seeds. Every run must complete, and the runs on one seed must make
// one trace: a compaction whose declared failures came more often the more
// records were marked — as Theorem 4's IBLT peel did here, on 7 and 32 of
// the 200 seeds with two and three blocks marked — would leak the marked
// count.
func TestCompactSmallCapacity(t *testing.T) {
	const n, b, capacity, seeds = 256, 8, 16, 200
	_, inputs := orderedInputs(n)
	recs := inputs[0]
	for ci, cp := range compactions {
		t.Run(cp.name, func(t *testing.T) {
			failed := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				var want TraceSummary
				for blocks := 1; blocks <= 3; blocks++ {
					tr, err := compactOnce(t, ci, recs, smallest(recs, blocks*b), b, capacity, seed, nil)
					switch {
					case err != nil:
						failed++
						t.Errorf("seed %d, %d blocks marked: %v", seed, blocks, err)
					case want.Len == 0:
						want = tr
					case tr != want:
						t.Errorf("seed %d, %d blocks marked: trace %+v, want %+v", seed, blocks, tr, want)
					}
				}
			}
			if failed > 0 {
				t.Errorf("%d of %d runs declared a failure under capacity", failed, 3*seeds)
			}
		})
	}
}

// TestSmallCacheDeclares runs every public operation at the smallest caches
// New accepts, 4·B to 6·B, on arrays of a few blocks and more. Each call
// gives a result or a declared error, never a panic; a declared error
// comes before any I/O, with the trace empty, and every call leaves the
// cache balanced.
func TestSmallCacheDeclares(t *testing.T) {
	for _, b := range []int{2, 8} {
		for _, words := range []int{4 * b, 5 * b, 6 * b} {
			for _, n := range []int{3, 200, 2000} {
				t.Run(fmt.Sprintf("B=%d/M=%d/n=%d", b, words, n), func(t *testing.T) {
					c, err := New(Config{BlockSize: b, CacheWords: words, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					recs := make([]Record, n)
					for i := range recs {
						recs[i] = Record{Key: uint64((i * 7919) % n), Val: uint64(i)}
					}
					arr, err := c.Store(recs)
					if err != nil {
						t.Fatal(err)
					}
					ops := []struct {
						name string
						run  func() error
					}{
						{"Sort", func() error { return arr.Sort() }},
						{"Select", func() error { _, err := arr.Select(int64(n / 2)); return err }},
						{"Quantiles", func() error { _, err := arr.Quantiles(3); return err }},
						{"Mark", func() error { _, err := arr.Mark(func(r Record) bool { return r.Val%4 == 0 }); return err }},
						{"CompactTight", func() error { _, err := arr.CompactTight(int64(n / 4)); return err }},
						{"CompactLoose", func() error { _, err := arr.CompactLoose(int64(n / 4)); return err }},
						{"NewORAM", func() error {
							o, err := c.NewORAM(max(1, n/8))
							if err != nil {
								return err
							}
							if err := o.Write(0, make([]uint64, b)); err != nil {
								t.Fatalf("ORAM write: %v", err)
							}
							_, err = o.Read(0)
							return err
						}},
					}
					for _, op := range ops {
						c.EnableTrace(0)
						err := func() (err error) {
							defer func() {
								if p := recover(); p != nil {
									t.Fatalf("%s panicked: %v", op.name, p)
								}
							}()
							return op.run()
						}()
						if used := c.env.Cache.Used(); used != 0 {
							t.Errorf("%s: %d cache elements still checked out", op.name, used)
						}
						if err != nil {
							if tr := c.TraceSummary(); tr.Len != 0 {
								t.Errorf("%s declared %v after %d accesses, want none", op.name, err, tr.Len)
							}
							t.Logf("%s: %v", op.name, err)
						}
					}
				})
			}
		}
	}
}
