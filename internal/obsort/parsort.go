package obsort

import (
	"oblivext/internal/extmem"
	"oblivext/internal/par"
)

// InCachePar sorts a private buffer like InCache, fanning the work out
// across env.Workers goroutines: the buffer splits into contiguous chunks
// (a pure function of its public length and the worker count), each worker
// stably sorts its chunk, and a serial k-way merge — ties resolved by
// chunk order, so the whole is stable — recombines them through a scratch
// buffer checked out of the same cache accountant.
//
// The scratch doubles the buffer's cache footprint, so the parallel path
// runs only when the accountant has len(buf) elements free; otherwise (or
// with Workers <= 1, or a buffer too small to amortize the spawns) it
// falls back to the serial InCache. Both the fallback decision and the
// chunk boundaries depend only on public geometry — M, the current cache
// checkout, len(buf), Workers — never on element values, so the trace and
// the result are identical for every worker count.
func InCachePar(env *extmem.Env, buf []extmem.Element, less Less) {
	w := env.ParWorkers(len(buf))
	if w <= 1 {
		InCache(buf, less)
		return
	}
	if free := env.M - env.Cache.Used(); free < len(buf) {
		InCache(buf, less)
		return
	}
	scratch := env.Cache.Buf(len(buf))
	ranges := par.Split(len(buf), w)
	par.For(w, len(ranges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			InCache(buf[ranges[i][0]:ranges[i][1]], less)
		}
	})

	// Serial stable k-way merge of the sorted chunks into scratch: among
	// the current heads, pick the smallest, preferring the lowest chunk on
	// ties (strict less-than when comparing against the current best).
	heads := make([]int, len(ranges))
	for i, r := range ranges {
		heads[i] = r[0]
	}
	for out := range scratch {
		best := -1
		for i, r := range ranges {
			if heads[i] >= r[1] {
				continue
			}
			if best < 0 || less(buf[heads[i]], buf[heads[best]]) {
				best = i
			}
		}
		scratch[out] = buf[heads[best]]
		heads[best]++
	}
	par.For(w, len(buf), func(lo, hi int) {
		copy(buf[lo:hi], scratch[lo:hi])
	})
	env.Cache.Free(scratch)
}
