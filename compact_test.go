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

// TestCompactLooseOrderedInputs runs the public CompactLoose(n/3) at the
// benchmark's geometry — 2^16 records, B = 8, M = 4 096 — on ordered
// inputs, marking none, n/3, and exactly the capacity's rCap·B records (the
// smallest), in the clear and sealed. Every completed run makes one and the
// same trace, returns 5·rCap blocks holding exactly the marked records,
// and leaves the cache balanced. One record over the capacity is a
// declared ErrCompactionFailed whose trace is no longer than a completed
// run's.
func TestCompactLooseOrderedInputs(t *testing.T) {
	const n, b = 1 << 16, 8
	const capacity = n / 3
	rCap := (capacity+b-1)/b + 1
	run := func(recs []Record, marked []Record, key []byte) (TraceSummary, error) {
		c, err := New(Config{BlockSize: b, CacheWords: 4096, Seed: 5, EncryptionKey: key})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		arr, err := c.Store(recs)
		if err != nil {
			t.Fatal(err)
		}
		sel := make([]bool, n)
		for _, r := range marked {
			sel[r.Val] = true
		}
		if got, err := arr.Mark(func(r Record) bool { return sel[r.Val] }); err != nil || got != int64(len(marked)) {
			t.Fatalf("marked %d (%v), want %d", got, err, len(marked))
		}
		c.EnableTrace(0)
		out, err := arr.CompactLoose(capacity)
		if used := c.env.Cache.Used(); used != 0 {
			t.Errorf("%d cache elements still checked out", used)
		}
		if err != nil {
			return c.TraceSummary(), err
		}
		if out.Blocks() != 5*rCap || out.Len() != int64(len(marked)) {
			t.Fatalf("%d blocks holding %d records, want %d holding %d", out.Blocks(), out.Len(), 5*rCap, len(marked))
		}
		got, err := out.Records()
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, byKeyVal)
		if !slices.Equal(got, marked) {
			t.Fatalf("the output's records are not the %d marked", len(marked))
		}
		return c.TraceSummary(), nil
	}
	var want TraceSummary
	names, inputs := orderedInputs(n)
	for i, recs := range inputs {
		name := names[i]
		for _, k := range []int{0, n / 3, rCap * b, rCap*b + 1} {
			for _, sealed := range []bool{false, true} {
				var key []byte
				if sealed {
					key = fuzzKey(uint64(k))
				}
				t.Run(fmt.Sprintf("%s/marked=%d/sealed=%v", name, k, sealed), func(t *testing.T) {
					tr, err := run(recs, smallest(recs, k), key)
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
