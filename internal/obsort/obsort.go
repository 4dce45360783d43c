// Package obsort provides deterministic data-oblivious sorting in the
// external-memory model.
//
// It realizes Lemma 2 of the paper (the deterministic oblivious sort of
// Goodrich–Mitzenmacher used as a subroutine throughout) as an external
// bitonic sort whose in-cache stages are free: every network level with
// stride < C (the cache window) is executed privately, so the I/O cost is
// O((N/B)·(1 + log²(N/C))) with a fixed, data-independent address trace.
// It also provides Leighton's columnsort (the Chaudhry–Cormen baseline the
// paper discusses, size-limited to N ≤ s·r with r ≥ 2(s−1)²) and an
// in-memory Batcher odd-even merge network used for in-cache circuit sorts.
//
// Sorting here always has padded semantics: occupied elements ascend by
// (Key, Pos) — or a caller-supplied order — and unoccupied cells sink to
// the end, implementing the paper's "+infinity" empty cells.
package obsort

import (
	"fmt"
	"sort"

	"oblivext/internal/extmem"
	"oblivext/internal/par"
)

// Less orders elements. Implementations must be strict weak orderings and
// should sort unoccupied elements after occupied ones when used with padded
// arrays.
type Less func(a, b extmem.Element) bool

// ByKey is the default order: occupied before empty, then (Key, Pos).
func ByKey(a, b extmem.Element) bool { return a.Less(b) }

// ByPos orders occupied elements by their Pos field (original position),
// with empties last — the order-restoration sort of Theorem 4.
func ByPos(a, b extmem.Element) bool {
	ao, bo := a.Occupied(), b.Occupied()
	if ao != bo {
		return ao
	}
	return a.Pos < b.Pos
}

// ByRawKey orders strictly by (Key, Pos) with no occupancy special-casing;
// used when dummy records carry meaningful sort keys (ORAM rebuilds).
func ByRawKey(a, b extmem.Element) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Pos < b.Pos
}

// Sorter is a pluggable oblivious external-memory sort over an array of
// blocks. The ORAM simulation and several experiments swap Sorters to
// compare the paper's randomized sort against this package's deterministic
// ones.
type Sorter func(env *extmem.Env, a extmem.Array, less Less)

// InCache sorts a private buffer. Computation inside Alice's cache is
// invisible to the adversary, so no circuit is needed; this is the base
// case every external algorithm bottoms out in.
func InCache(buf []extmem.Element, less Less) {
	sort.SliceStable(buf, func(i, j int) bool { return less(buf[i], buf[j]) })
}

// Bitonic sorts the array element-wise with a data-oblivious external
// bitonic network. The address trace depends only on (len, B, M).
//
// Requirements: B a power of two and M ≥ 4B. Arrays whose block count is
// not a power of two are padded into a scratch arena (empty cells sort
// last, so the copy-back keeps padded semantics).
func Bitonic(env *extmem.Env, a extmem.Array, less Less) {
	n := a.Len()
	if n == 0 {
		return
	}
	b := a.B()
	if b&(b-1) != 0 {
		panic(fmt.Sprintf("obsort: block size %d not a power of two", b))
	}
	if env.M < 4*b {
		panic("obsort: Bitonic requires M >= 4B")
	}
	sp := env.Obs.Start("bitonic")
	sp.SetAttrInt("blocks", int64(n))
	sp.SetAttrInt("passes", int64(BitonicPassCount(n, b, env.M)))
	sp.SetPredicted(BitonicIOCount(n, b, env.M), -1)
	defer env.Obs.End(sp)
	mark := env.D.Mark()
	defer env.D.Release(mark)

	np := 1 << extmem.CeilLog2(n)
	work := a
	if np != n {
		work = env.D.Alloc(np)
		k := env.ScanBatchN(1, np)
		buf := env.Cache.Buf(k * b)
		for lo := 0; lo < n; lo += k {
			hi := min(lo+k, n)
			a.ReadRange(lo, hi, buf[:(hi-lo)*b])
			work.WriteRange(lo, hi, buf[:(hi-lo)*b])
		}
		for i := range buf {
			buf[i] = extmem.Element{}
		}
		for lo := n; lo < np; lo += k {
			hi := min(lo+k, np)
			work.WriteRange(lo, hi, buf[:(hi-lo)*b])
		}
		env.Cache.Free(buf)
	}

	ne := np * b // element count, a power of two
	c := 1 << extmem.FloorLog2(env.M/2)
	if c > ne {
		c = ne
	}
	if c < 2*b && ne > c {
		panic("obsort: cache window smaller than two blocks")
	}

	win := env.Cache.Buf(c)
	wblocks := c / b
	nw := env.WorkerCount()
	loadWin := func(w int) {
		work.ReadRange(w*wblocks, (w+1)*wblocks, win)
	}
	storeWin := func(w int) {
		work.WriteRange(w*wblocks, (w+1)*wblocks, win)
	}

	// Stage A: all network stages with size <= c act within c-aligned
	// windows; run them per window in one pass.
	spa := env.Obs.Start("windowed-stages")
	spa.SetPredicted(2*int64(np), -1)
	for w := 0; w < ne/c; w++ {
		loadWin(w)
		base := w * c
		for size := 2; size <= c; size <<= 1 {
			for stride := size / 2; stride >= 1; stride >>= 1 {
				levelInCachePar(win, base, size, stride, less, nw)
			}
		}
		storeWin(w)
	}
	env.Obs.End(spa)

	// Stages with size > c: strides >= c stream block pairs — pk pairs per
	// vectored round trip (the pairs of one level are disjoint, so a batch
	// reads 2·pk blocks, compare-exchanges privately, and writes them back);
	// the remaining strides < c finish within windows.
	pk := max(1, env.ScanBatch(1)/2)
	pbuf := env.Cache.Buf(2 * pk * b)
	pidx := make([]int, 2*pk)
	for size := 2 * c; size <= ne; size <<= 1 {
		sps := env.Obs.Start("merge-stage")
		sps.SetAttrInt("size", int64(size))
		for stride := size / 2; stride >= c; stride >>= 1 {
			sb := stride / b
			cnt := 0
			flush := func() {
				if cnt == 0 {
					return
				}
				work.ReadMany(pidx[:2*cnt], pbuf[:2*cnt*b])
				// The pairs of one level are disjoint, so the in-cache
				// compare-exchanges fan out across the worker pool; the
				// vectored reads/writes around them are unchanged.
				pw := nw
				if cnt < 4 {
					pw = 1
				}
				par.For(pw, cnt, func(plo, phi int) {
					for p := plo; p < phi; p++ {
						bufA := pbuf[2*p*b : (2*p+1)*b]
						bufB := pbuf[(2*p+1)*b : (2*p+2)*b]
						for t := 0; t < b; t++ {
							i := pidx[2*p]*b + t
							asc := i&size == 0
							if asc == less(bufB[t], bufA[t]) {
								bufA[t], bufB[t] = bufB[t], bufA[t]
							}
						}
					}
				})
				work.WriteMany(pidx[:2*cnt], pbuf[:2*cnt*b])
				cnt = 0
			}
			for blk := 0; blk < np; blk++ {
				if blk&sb != 0 {
					continue
				}
				pidx[2*cnt] = blk
				pidx[2*cnt+1] = blk + sb
				cnt++
				if cnt == pk {
					flush()
				}
			}
			flush()
		}
		for w := 0; w < ne/c; w++ {
			loadWin(w)
			base := w * c
			for stride := c / 2; stride >= 1; stride >>= 1 {
				levelInCachePar(win, base, size, stride, less, nw)
			}
			storeWin(w)
		}
		env.Obs.End(sps)
	}
	env.Cache.Free(pbuf)
	env.Cache.Free(win)

	if np != n {
		k := env.ScanBatchN(1, n)
		buf := env.Cache.Buf(k * b)
		for lo := 0; lo < n; lo += k {
			hi := min(lo+k, n)
			work.ReadRange(lo, hi, buf[:(hi-lo)*b])
			a.WriteRange(lo, hi, buf[:(hi-lo)*b])
		}
		env.Cache.Free(buf)
	}
}

// levelInCache applies one bitonic network level to a private window whose
// first element has the given global index.
func levelInCache(win []extmem.Element, base, size, stride int, less Less) {
	for li := 0; li < len(win); li++ {
		i := base + li
		if i&stride != 0 || li+stride >= len(win) {
			continue
		}
		asc := i&size == 0
		if asc == less(win[li+stride], win[li]) {
			win[li], win[li+stride] = win[li+stride], win[li]
		}
	}
}

// parMinElems is the private-buffer length below which element-wise
// parallel helpers stay serial — the fan-out must earn its spawns. The
// threshold compares public lengths only.
const parMinElems = 2048

// levelInCachePar is levelInCache fanned out across nw workers. A level's
// compare-exchange pairs (li, li+stride) with li&stride == 0 live entirely
// inside 2·stride-aligned groups, and the window base is always a multiple
// of 2·stride (windows are c-aligned, stride < c), so splitting the window
// at group boundaries gives workers disjoint element ranges. The network —
// and therefore the result and the trace — is identical to the serial
// level; only which goroutine executes each exchange changes.
func levelInCachePar(win []extmem.Element, base, size, stride int, less Less, nw int) {
	group := 2 * stride
	ngroups := (len(win) + group - 1) / group
	if nw <= 1 || len(win) < parMinElems || ngroups < 2 {
		levelInCache(win, base, size, stride, less)
		return
	}
	par.For(nw, ngroups, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			lo := g * group
			hi := min(lo+group, len(win))
			for li := lo; li < hi; li++ {
				i := base + li
				if i&stride != 0 || li+stride >= len(win) {
					continue
				}
				asc := i&size == 0
				if asc == less(win[li+stride], win[li]) {
					win[li], win[li+stride] = win[li+stride], win[li]
				}
			}
		}
	})
}

// BitonicPassCount predicts the number of full-array passes Bitonic makes
// (excluding the padding copies): 1 for stage A plus, per stage above the
// window size, one streaming pass per stride >= C and one windowed pass.
// The E9 experiment checks measured I/Os against this.
func BitonicPassCount(nBlocks, b, m int) int {
	np := 1 << extmem.CeilLog2(nBlocks)
	ne := np * b
	c := 1 << extmem.FloorLog2(m/2)
	if c > ne {
		c = ne
	}
	passes := 1
	for size := 2 * c; size <= ne; size <<= 1 {
		for stride := size / 2; stride >= c; stride >>= 1 {
			passes++
		}
		passes++
	}
	return passes
}

// BitonicIOCount predicts the exact block I/Os of one Bitonic call: 2·np per
// pass over the padded length np, plus, when the block count is not a power
// of two, the padding copy (n reads, np writes) and the copy back (2n).
func BitonicIOCount(nBlocks, b, m int) int64 {
	if nBlocks == 0 {
		return 0
	}
	np := 1 << extmem.CeilLog2(nBlocks)
	ios := int64(BitonicPassCount(nBlocks, b, m)) * int64(2*np)
	if np != nBlocks {
		ios += int64(3*nBlocks + np)
	}
	return ios
}
