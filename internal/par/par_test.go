package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestSplitCoversRangeDisjointly(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 3}, {10, 4}, {100, 7}, {5, 5}, {3, 16},
	} {
		ranges := Split(tc.n, tc.w)
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r[0] != prev {
				t.Fatalf("Split(%d,%d): range starts at %d, want %d", tc.n, tc.w, r[0], prev)
			}
			if r[1] <= r[0] {
				t.Fatalf("Split(%d,%d): empty or inverted range %v", tc.n, tc.w, r)
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != tc.n {
			t.Fatalf("Split(%d,%d): ranges cover %d of %d elements", tc.n, tc.w, covered, tc.n)
		}
		if len(ranges) > tc.w {
			t.Fatalf("Split(%d,%d): %d ranges exceed the worker count", tc.n, tc.w, len(ranges))
		}
	}
}

func TestSplitIsDeterministic(t *testing.T) {
	a, b := Split(1000, 7), Split(1000, 7)
	if len(a) != len(b) {
		t.Fatal("nondeterministic range count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("range %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 4, 8} {
		const n = 1000
		var visits [n]int32
		For(w, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

func TestForWorkerIDsMatchRanges(t *testing.T) {
	const n, w = 100, 4
	ranges := Split(n, w)
	got := make([][2]int, len(ranges))
	ForWorker(w, n, func(worker, lo, hi int) {
		got[worker] = [2]int{lo, hi}
	})
	for i, r := range ranges {
		if got[i] != r {
			t.Fatalf("worker %d ran %v, Split says %v", i, got[i], r)
		}
	}
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not re-raised on caller")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	For(4, 100, func(lo, hi int) {
		if lo >= 50 {
			panic("boom")
		}
	})
}

// The serial path is what every pass runs at Workers <= 1, once per cache
// chunk: it must cost a call, not a Split slice and a wrapper closure.
func TestForSerialZeroAllocs(t *testing.T) {
	sum := 0
	fn := func(lo, hi int) { sum += hi - lo }
	fnw := func(_, lo, hi int) { sum += hi - lo }
	for _, tc := range []struct{ w, n int }{{0, 100}, {1, 100}, {8, 1}, {4, 0}} {
		if got := testing.AllocsPerRun(100, func() {
			For(tc.w, tc.n, fn)
			ForWorker(tc.w, tc.n, fnw)
		}); got != 0 {
			t.Errorf("For/ForWorker(w=%d, n=%d) allocate %v objects per call, want 0", tc.w, tc.n, got)
		}
	}
	if sum == 0 {
		t.Fatal("serial path never ran fn")
	}
}
