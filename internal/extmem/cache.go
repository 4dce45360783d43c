package extmem

import "fmt"

// Cache is the accountant for Alice's private memory. The paper's bounds
// hold only when the client really uses at most M words of private state;
// rather than assume that, every algorithm checks buffers out of the Cache
// and tests assert HighWater() <= Capacity().
//
// Accounting is at buffer granularity (the dominant private state: block
// buffers, sample windows, counters); loop variables and other O(1) state
// are covered by the slack callers are expected to leave.
type Cache struct {
	capacity int
	used     int
	high     int
	strict   bool
	slab     []Element // storage behind Buf, allocated on first use
	top      int       // slab[top:] is free
	carved   []carve   // the buffers carved from slab[:top], in address order
}

// carve is one buffer carved from the slab; a buffer freed out of order
// stays in the list, marked, until everything above it is freed too.
type carve struct {
	off   int
	freed bool
}

// NewCache returns an accountant for M elements of private memory. In
// strict mode, exceeding the capacity panics immediately; otherwise it is
// recorded in the high-water mark for tests to inspect.
func NewCache(m int, strict bool) *Cache {
	if m <= 0 {
		panic("extmem: cache capacity must be positive")
	}
	return &Cache{capacity: m, strict: strict}
}

// Strict reports whether exceeding the capacity panics immediately.
func (c *Cache) Strict() bool { return c.strict }

// Used returns the elements currently checked out.
func (c *Cache) Used() int { return c.used }

// HighWater returns the peak concurrent usage observed.
func (c *Cache) HighWater() int { return c.high }

// ResetHighWater clears the peak marker (usage is unaffected).
func (c *Cache) ResetHighWater() { c.high = c.used }

// Acquire records a checkout of n elements of private memory.
func (c *Cache) Acquire(n int) {
	if n < 0 {
		panic("extmem: negative cache acquire")
	}
	c.used += n
	if c.used > c.high {
		c.high = c.used
	}
	if c.strict && c.used > c.capacity {
		panic(fmt.Sprintf("extmem: private cache overflow: %d used > %d capacity", c.used, c.capacity))
	}
}

// Release returns n elements of private memory.
func (c *Cache) Release(n int) {
	if n < 0 || n > c.used {
		panic("extmem: unbalanced cache release")
	}
	c.used -= n
}

// Buf checks out an n-element zeroed buffer. Buffers are carved from one
// capacity-sized slab, stack fashion: the pass-structured algorithms check
// the same few buffers out and back in pass after pass, in LIFO order, so
// after the first pass a checkout allocates nothing. A request the slab
// cannot serve — an overdraft, or a hole pinned by an out-of-order Free —
// gets ordinary heap storage.
func (c *Cache) Buf(n int) []Element {
	c.Acquire(n)
	if n == 0 || c.top+n > c.capacity {
		return make([]Element, n)
	}
	if c.slab == nil {
		c.slab = make([]Element, c.capacity)
	}
	buf := c.slab[c.top : c.top+n : c.top+n]
	clear(buf)
	c.carved = append(c.carved, carve{off: c.top})
	c.top += n
	return buf
}

// Free returns a buffer checked out with Buf; the caller must not touch it
// again. Like all accounting, Buf and Free belong to the coordinating
// goroutine.
func (c *Cache) Free(buf []Element) {
	c.Release(cap(buf))
	if cap(buf) == 0 {
		return
	}
	first := &buf[:1][0]
	for i := len(c.carved) - 1; i >= 0; i-- {
		if &c.slab[c.carved[i].off] == first {
			c.carved[i].freed = true
			break
		}
	}
	for i := len(c.carved) - 1; i >= 0 && c.carved[i].freed; i-- {
		c.top = c.carved[i].off
		c.carved = c.carved[:i]
	}
}
