// Package bufpool provides size-classed, reference-counted buffer pools
// for the steady-state delivery path.
//
// The protocol stack moves one payload through many holders: the TCP
// read block it arrives in, the coordinator's flight table, the WAL batch,
// the forward queue, the merge layer and finally the state machine. A
// naive implementation allocates at each hop and leaves the garbage
// collector to clean up millions of short-to-medium-lived buffers per
// second; at NIC-bound rates the collector becomes the throughput
// ceiling. bufpool instead recycles buffers through explicit reference
// counting: a payload is copied at most once (off the inbound read
// block, into a pooled buffer) and every downstream holder takes a ref
// on the same buffer, releasing it deterministically when done.
//
// Pools are deliberately NOT built on sync.Pool: the runtime clears
// sync.Pool on every GC cycle, which makes allocation-regression tests
// (testing.AllocsPerRun) nondeterministic and re-introduces allocation
// spikes after each collection. Instead each size class keeps a small
// bounded free list; overflow falls back to the allocator.
//
// Ownership contract: Get and Copy return a buffer with one reference,
// owned by the caller. Every Retain must be paired with exactly one
// Release; the final Release recycles the buffer. Releasing or
// retaining a dead buffer panics (always for double-release; guard
// builds — `-race` or the bufpooldebug tag — additionally poison
// recycled memory to surface use-after-release reads).
package bufpool

import (
	"sync"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits cover 64 B to 1 MiB in powers of two;
	// larger requests fall back to plain heap buffers (unpooled, still
	// refcounted so callers need no special case).
	minClassBits = 6
	maxClassBits = 20
	numClasses   = maxClassBits - minClassBits + 1

	// MaxPooled is the largest request served from a pool.
	MaxPooled = 1 << maxClassBits

	// freeListCap bounds each class's free list. 64 buffers of the
	// largest class is 64 MiB worst case, but in practice only the
	// small payload classes fill up; the bound exists so a burst of
	// jumbo frames cannot pin memory forever.
	freeListCap = 64
)

// A Buf is a reference-counted, possibly pooled byte buffer.
// The zero value is not usable; obtain Bufs from Get or Copy.
type Buf struct {
	data  []byte
	n     int
	class int32 // -1 when unpooled
	refs  atomic.Int32
}

// Bytes returns the buffer's payload slice. Nil-safe: a nil Buf yields
// a nil slice. The slice must not be used after the final Release.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.data[:b.n]
}

// Retain adds a reference for a new holder. Nil-safe so callers can
// blindly retain optional buffers.
func (b *Buf) Retain() {
	if b == nil {
		return
	}
	if n := b.refs.Add(1); n <= 1 {
		panic("bufpool: Retain of released buffer")
	}
}

// Release drops one reference; the final release recycles the buffer.
// Nil-safe. Releasing more times than retained panics — a double
// release means two holders think they own the buffer and one of them
// will observe recycled bytes.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	n := b.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("bufpool: Release of already-released buffer")
	}
	outstanding.Add(-1)
	if b.class < 0 {
		return // unpooled: let the GC have it
	}
	guardPoison(b.data)
	c := &classes[b.class]
	c.mu.Lock()
	if len(c.free) < freeListCap {
		c.free = append(c.free, b)
	}
	c.mu.Unlock()
}

// Refs reports the current reference count (for tests and debugging).
//
//lint:allow testonly TestDeliveryQueueContract (ring) and TestTCPRefcountRoundTrip (transport) check that each holder took its reference
func (b *Buf) Refs() int32 {
	if b == nil {
		return 0
	}
	return b.refs.Load()
}

type class struct {
	mu   sync.Mutex
	free []*Buf
	_    [40]byte // keep neighbouring classes off one cache line
}

var (
	classes     [numClasses]class
	hits        atomic.Uint64
	misses      atomic.Uint64
	oversize    atomic.Uint64
	outstanding atomic.Int64
)

// classFor returns the smallest class index whose capacity holds n, or
// -1 if n exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for size := 1 << minClassBits; size < n; size <<= 1 {
		c++
	}
	return c
}

// Get returns a buffer of length n with one reference, recycled from
// the matching size-class pool when possible. Requests larger than
// MaxPooled are served from the heap (still refcounted).
func Get(n int) *Buf {
	outstanding.Add(1)
	ci := classFor(n)
	if ci < 0 {
		oversize.Add(1)
		b := &Buf{data: make([]byte, n), n: n, class: -1}
		b.refs.Store(1)
		return b
	}
	c := &classes[ci]
	c.mu.Lock()
	if last := len(c.free) - 1; last >= 0 {
		b := c.free[last]
		c.free[last] = nil
		c.free = c.free[:last]
		c.mu.Unlock()
		hits.Add(1)
		b.n = n
		b.refs.Store(1)
		return b
	}
	c.mu.Unlock()
	misses.Add(1)
	b := &Buf{data: make([]byte, 1<<(minClassBits+ci)), n: n, class: int32(ci)}
	b.refs.Store(1)
	return b
}

// Copy returns a pooled buffer holding a copy of p, with one reference.
func Copy(p []byte) *Buf {
	b := Get(len(p))
	copy(b.data, p)
	return b
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Hits counts Gets served from a free list; Misses counts Gets
	// that hit the allocator; Oversize counts Gets beyond MaxPooled.
	Hits, Misses, Oversize uint64
	// Outstanding is the number of live (unreleased) buffers.
	Outstanding int64
}

// Snapshot returns current pool statistics.
func Snapshot() Stats {
	return Stats{
		Hits:        hits.Load(),
		Misses:      misses.Load(),
		Oversize:    oversize.Load(),
		Outstanding: outstanding.Load(),
	}
}

// Outstanding returns the number of live buffers. Zero at process
// quiescence means every Get/Copy was balanced by a final Release;
// internal/leakcheck asserts this at test-binary exit.
func Outstanding() int64 { return outstanding.Load() }
