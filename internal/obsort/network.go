package obsort

import "oblivext/internal/extmem"

// This file enumerates Batcher's odd-even merge sorting network. The
// paper's model (§1) lists "simulating a circuit with its inputs taken in
// order from A" as the canonical data-oblivious access pattern; this
// network is that circuit, and Zigzag runs it at run granularity. All
// comparators point ascending, so indices beyond n act as virtual +infinity
// pads and can simply be skipped, as bitonic's all-ascending form skips the
// blocks past its array.

// ForEachComparator enumerates the comparator pairs (i, j), i < j, of
// Batcher's odd-even merge sorting network on n wires, in execution order.
func ForEachComparator(n int, visit func(i, j int)) {
	np := 1 << extmem.CeilLog2(n)
	var sortRec func(lo, m int)
	var mergeRec func(lo, m, step int)
	mergeRec = func(lo, m, step int) {
		next := step * 2
		if next < m {
			mergeRec(lo, m, next)
			mergeRec(lo+step, m, next)
			for i := lo + step; i+step < lo+m; i += next {
				emit(n, i, i+step, visit)
			}
		} else {
			emit(n, lo, lo+step, visit)
		}
	}
	sortRec = func(lo, m int) {
		if m <= 1 {
			return
		}
		h := m / 2
		sortRec(lo, h)
		sortRec(lo+h, h)
		mergeRec(lo, m, 1)
	}
	sortRec(0, np)
}

func emit(n, i, j int, visit func(i, j int)) {
	if j < n {
		visit(i, j)
	}
}
