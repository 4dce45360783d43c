package obsort

import (
	"math/bits"

	"oblivext/internal/extmem"
)

// This file holds the in-cache kernels of the deterministic engines:
// Bitonic's window sort and exchange levels, Columnsort's column sort and
// merges. Alice's in-cache work is free in the paper's block-I/O model but
// is most of the wall time here, so every kernel compares with
// extmem.Element.Less, which the compiler inlines, and none takes an order
// as a function value: through one, every comparison would be an indirect
// call.

// sortCells sorts a by Element.Less, not stably.
func sortCells(a []extmem.Element) { introsort(a, 2*bits.Len(uint(len(a)))) }

// introsort sorts a by Element.Less: quicksort on a median of three,
// insertion sort below 12 elements, and heapsort once depth partitions have
// not finished the slice. It recurses into the shorter side and loops on
// the longer.
func introsort(a []extmem.Element, depth int) {
	for len(a) >= 12 {
		if depth == 0 {
			heapsort(a)
			return
		}
		depth--
		p := partition(a)
		if p < len(a)-p {
			introsort(a[:p], depth)
			a = a[p+1:]
		} else {
			introsort(a[p+1:], depth)
			a = a[:p]
		}
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && x.Less(a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// partition moves the median of the elements at a quarter, a half and
// three quarters of a to a[0], partitions the rest around it, and returns
// its final index: nothing before it is greater, nothing after it less.
// Both scans stop at elements equal to the pivot, so runs of equal cells,
// the empty ones among them, split evenly. The pivot's last swap leaves a
// nearly sorted part with its largest element first, which the first and
// last elements would make a bad median of; the quartiles do not.
func partition(a []extmem.Element) int {
	q, m, r, l := len(a)/4, len(a)/2, 3*len(a)/4, len(a)-1
	if a[m].Less(a[q]) {
		a[q], a[m] = a[m], a[q]
	}
	if a[r].Less(a[m]) {
		a[m], a[r] = a[r], a[m]
		if a[m].Less(a[q]) {
			a[q], a[m] = a[m], a[q]
		}
	}
	a[0], a[m] = a[m], a[0]
	p := a[0]
	i, j := 1, l
	for {
		for i <= j && a[i].Less(p) {
			i++
		}
		for i <= j && p.Less(a[j]) {
			j--
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
		i++
		j--
	}
	a[0], a[j] = a[j], a[0]
	return j
}

// heapsort sorts a by Element.Less with a max-heap.
func heapsort(a []extmem.Element) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDown(a, i)
	}
	for n := len(a) - 1; n > 0; n-- {
		a[0], a[n] = a[n], a[0]
		siftDown(a[:n], 0)
	}
}

func siftDown(a []extmem.Element, root int) {
	for {
		c := 2*root + 1
		if c >= len(a) {
			return
		}
		if c+1 < len(a) && a[c].Less(a[c+1]) {
			c++
		}
		if !a[root].Less(a[c]) {
			return
		}
		a[root], a[c] = a[c], a[root]
		root = c
	}
}

// exchangeLevel applies one network level to a private window: elements
// stride apart compare-exchange, the lesser to the lower index. A pair
// whose upper cell is past the window is left alone: that cell is +∞.
func exchangeLevel(win []extmem.Element, stride int) {
	for g := 0; g < len(win); g += 2 * stride {
		end := min(g+stride, len(win)-stride)
		for li := g; li < end; li++ {
			if win[li+stride].Less(win[li]) {
				win[li], win[li+stride] = win[li+stride], win[li]
			}
		}
	}
}

// flipLevel applies a stage's first level to a private window: in every
// group of 2·half elements, element j and element 2·half−1−j
// compare-exchange, the lesser to the lower index. A pair whose upper cell
// is past the window is left alone: that cell is +∞.
func flipLevel(win []extmem.Element, half int) {
	for g := 0; g < len(win); g += 2 * half {
		hi := min(g+2*half, len(win)) - 1
		for lo := 2*(g+half) - 1 - hi; lo < hi; lo, hi = lo+1, hi-1 {
			if win[hi].Less(win[lo]) {
				win[lo], win[hi] = win[hi], win[lo]
			}
		}
	}
}

// mergeRuns sorts buf, sorted runs of per elements each, by merging
// neighbouring runs bottom up, each merge through scratch of the shorter
// run's length: at most len(buf)/2.
func mergeRuns(buf []extmem.Element, per int, scratch []extmem.Element) {
	for w := per; w < len(buf); w *= 2 {
		for lo := 0; lo+w < len(buf); lo += 2 * w {
			run := buf[lo:min(lo+2*w, len(buf))]
			if w <= len(run)-w {
				x := scratch[:w]
				copy(x, run[:w])
				mergeBehind(run, x)
			} else {
				y := scratch[:len(run)-w]
				copy(y, run[w:])
				mergeAhead(run, y)
			}
		}
	}
}

// mergeBehind merges the sorted y into dst, whose last len(dst)−len(y)
// elements are the other sorted input, x. Output slot i+j is written only
// once x[i], at len(y)+i, has been read, so the merge needs no second
// buffer, and once y runs out the rest of x is already in place.
func mergeBehind(dst, y []extmem.Element) {
	x := dst[len(y):]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if y[j].Less(x[i]) {
			dst[i+j] = y[j]
			j++
		} else {
			dst[i+j] = x[i]
			i++
		}
	}
	copy(dst[i+j:], y[j:])
}

// mergeAhead merges the sorted y into dst, whose first len(dst)−len(y)
// elements are the other sorted input, x, from the back: the larger of the
// two tails goes to slot i+j+1, never below x[i], and once x runs out the
// rest of y is copied to the front.
func mergeAhead(dst, y []extmem.Element) {
	i, j := len(dst)-len(y)-1, len(y)-1
	for i >= 0 && j >= 0 {
		if y[j].Less(dst[i]) {
			dst[i+j+1] = dst[i]
			i--
		} else {
			dst[i+j+1] = y[j]
			j--
		}
	}
	copy(dst, y[:j+1])
}
