// Package par provides the static fan-out primitive for parallel
// oblivious compute on Alice's side.
//
// The security argument for parallelism is that the work partition must be
// a function of PUBLIC geometry only — the range length and the worker
// count — never of data values. par.Split is exactly that: contiguous
// near-equal ranges computed arithmetically from (n, w). There is no work
// stealing and no dynamic load balancing, because either would make worker
// scheduling (and potentially the order or timing of any observable side
// effect) depend on how long each element took to process, i.e. on data.
// Data-oblivious schedules are statically partitionable precisely because
// every worker's slice of the work is known before any data is read.
//
// Callers keep all external I/O outside the parallel region: workers
// compute over private in-cache buffers only, and the coordinating
// goroutine performs every Disk access in the same order as the serial
// path, so the per-block access trace is bit-identical for every worker
// count.
package par

import "sync"

// Split partitions [0, n) into at most w contiguous ranges of near-equal
// size. The boundaries are a pure function of (n, w): range i is
// [i·n/w, (i+1)·n/w). Empty ranges are omitted, so the result holds
// min(w, n) entries for n > 0 and is empty for n <= 0.
func Split(n, w int) [][2]int {
	if n <= 0 {
		return nil
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	out := make([][2]int, 0, w)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// For runs fn over the ranges of Split(n, w) on up to w goroutines and
// waits for all of them. With w <= 1 (or a single range) it calls fn
// inline — the serial path spawns nothing and allocates nothing, so
// Workers=0/1 behaves exactly like code written without this package. fn
// must not touch the extmem cache accountant or perform Disk I/O; both
// belong to the caller, before and after the fan-out.
//
// A panic inside any worker is captured and re-raised on the calling
// goroutine after every worker has finished, so buffers owned by the
// caller are never written concurrently with the unwinding.
func For(w, n int, fn func(lo, hi int)) {
	if w <= 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	ForWorker(w, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForWorker is For with the worker's index (its position in Split(n, w),
// 0-based) passed to fn, so callers can hand each worker its own
// pre-allocated scratch. Worker i processes exactly the i-th Split range —
// the assignment is static, never raced for.
func ForWorker(w, n int, fn func(worker, lo, hi int)) {
	if w <= 1 || n <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	ranges := Split(n, w)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure any
	capture := func(worker, lo, hi int) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if failure == nil {
					failure = p
				}
				mu.Unlock()
			}
		}()
		fn(worker, lo, hi)
	}
	for i, r := range ranges[1:] {
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			capture(worker, lo, hi)
		}(i+1, r[0], r[1])
	}
	capture(0, ranges[0][0], ranges[0][1])
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}
