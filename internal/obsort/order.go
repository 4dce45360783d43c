package obsort

import (
	"math/bits"
	"reflect"
	"slices"

	"oblivext/internal/extmem"
)

// This file holds the order one engine call sorts by and the ByKey arm of
// the in-cache kernels: Bitonic's window sort and exchange levels,
// Columnsort's column sort and merges. Alice's in-cache work is free in the
// paper's block-I/O model but is most of the wall time here, and through a
// Less function value every comparison is an indirect call. Under ByKey the
// kernels below compare with extmem.Element.Less, which the compiler
// inlines; every other order runs the generic kernels, which are also the
// reference the ByKey arm is tested against (TestByKeyArmMatchesGeneric).
// A kernel generic over an order type parameter would not help: Go does
// not inline method calls on a type parameter.

// order is the order of one engine call: less, and whether it is ByKey,
// decided once per call.
type order struct {
	less  Less
	byKey bool
}

// orderOf resolves less. ByKey is known by its code pointer, so an order
// that compares as ByKey does but is another function takes the generic
// kernels.
func orderOf(less Less) order {
	return order{less, reflect.ValueOf(less).Pointer() == reflect.ValueOf(ByKey).Pointer()}
}

// sort sorts buf ascending.
func (o order) sort(buf []extmem.Element) {
	if !o.byKey {
		slices.SortFunc(buf, func(x, y extmem.Element) int { return compare(o.less, x, y) })
		return
	}
	introsortByKey(buf, 2*bits.Len(uint(len(buf))))
}

// exchangeLevel is exchangeLevel under o.
func (o order) exchangeLevel(win []extmem.Element, stride int) {
	if o.byKey {
		exchangeLevelByKey(win, stride)
	} else {
		exchangeLevel(win, stride, o.less)
	}
}

// flipLevel is flipLevel under o.
func (o order) flipLevel(win []extmem.Element, half int) {
	if o.byKey {
		flipLevelByKey(win, half)
	} else {
		flipLevel(win, half, o.less)
	}
}

// mergeBehind is mergeBehind under o.
func (o order) mergeBehind(dst, y []extmem.Element) {
	if o.byKey {
		mergeBehindByKey(dst, y)
	} else {
		mergeBehind(dst, y, o.less)
	}
}

// mergeAhead is mergeAhead under o.
func (o order) mergeAhead(dst, y []extmem.Element) {
	if o.byKey {
		mergeAheadByKey(dst, y)
	} else {
		mergeAhead(dst, y, o.less)
	}
}

// introsortByKey sorts a by Element.Less: quicksort on a median of three,
// insertion sort below 12 elements, and heapsort once depth partitions have
// not finished the slice. It recurses into the shorter side and loops on
// the longer.
func introsortByKey(a []extmem.Element, depth int) {
	for len(a) >= 12 {
		if depth == 0 {
			heapsortByKey(a)
			return
		}
		depth--
		p := partitionByKey(a)
		if p < len(a)-p {
			introsortByKey(a[:p], depth)
			a = a[p+1:]
		} else {
			introsortByKey(a[p+1:], depth)
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

// partitionByKey moves the median of the elements at a quarter, a half and
// three quarters of a to a[0], partitions the rest around it, and returns
// its final index: nothing before it is greater, nothing after it less.
// Both scans stop at elements equal to the pivot, so runs of equal cells,
// the empty ones among them, split evenly. The pivot's last swap leaves a
// nearly sorted part with its largest element first, which the first and
// last elements would make a bad median of; the quartiles do not.
func partitionByKey(a []extmem.Element) int {
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

// heapsortByKey sorts a by Element.Less with a max-heap.
func heapsortByKey(a []extmem.Element) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownByKey(a, i)
	}
	for n := len(a) - 1; n > 0; n-- {
		a[0], a[n] = a[n], a[0]
		siftDownByKey(a[:n], 0)
	}
}

func siftDownByKey(a []extmem.Element, root int) {
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

// exchangeLevelByKey is exchangeLevel under ByKey.
func exchangeLevelByKey(win []extmem.Element, stride int) {
	for g := 0; g < len(win); g += 2 * stride {
		end := min(g+stride, len(win)-stride)
		for li := g; li < end; li++ {
			if win[li+stride].Less(win[li]) {
				win[li], win[li+stride] = win[li+stride], win[li]
			}
		}
	}
}

// flipLevelByKey is flipLevel under ByKey.
func flipLevelByKey(win []extmem.Element, half int) {
	for g := 0; g < len(win); g += 2 * half {
		hi := min(g+2*half, len(win)) - 1
		for lo := 2*(g+half) - 1 - hi; lo < hi; lo, hi = lo+1, hi-1 {
			if win[hi].Less(win[lo]) {
				win[lo], win[hi] = win[hi], win[lo]
			}
		}
	}
}

// mergeBehindByKey is mergeBehind under ByKey.
func mergeBehindByKey(dst, y []extmem.Element) {
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

// mergeAheadByKey is mergeAhead under ByKey.
func mergeAheadByKey(dst, y []extmem.Element) {
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
