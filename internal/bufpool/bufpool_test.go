package bufpool

import (
	"bytes"
	"sync"
	"testing"
)

// TestClassFor pins the size-class boundaries: exact powers of two stay
// in their own class, one byte over spills to the next, and anything
// beyond MaxPooled is unpooled.
func TestClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, numClasses - 1}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestGetReleaseRecycles proves the final Release really returns the
// buffer (struct and backing array) to its class free list.
func TestGetReleaseRecycles(t *testing.T) {
	drain()
	a := Get(100)
	if len(a.Bytes()) != 100 {
		t.Fatalf("Get(100): len %d", len(a.Bytes()))
	}
	a.Release()
	b := Get(90) // same class (128)
	if a != b {
		t.Errorf("Get after Release allocated a fresh Buf; want recycled")
	}
	if len(b.Bytes()) != 90 {
		t.Errorf("recycled Buf has stale length %d, want 90", len(b.Bytes()))
	}
	b.Release()
}

// TestCopyDetaches proves Copy snapshots the source bytes.
func TestCopyDetaches(t *testing.T) {
	src := []byte("payload-bytes")
	b := Copy(src)
	src[0] = 'X'
	if !bytes.Equal(b.Bytes(), []byte("payload-bytes")) {
		t.Errorf("Copy aliases its source: %q", b.Bytes())
	}
	b.Release()
}

// TestOversizeUnpooled: requests beyond MaxPooled come from the heap
// but keep the refcount discipline.
func TestOversizeUnpooled(t *testing.T) {
	before := Snapshot().Oversize
	b := Get(MaxPooled + 1)
	if b.class != -1 {
		t.Errorf("oversize Get got class %d, want -1", b.class)
	}
	if got := Snapshot().Oversize; got != before+1 {
		t.Errorf("oversize stat = %d, want %d", got, before+1)
	}
	b.Retain()
	b.Release()
	b.Release()
}

// TestDoubleReleasePanics: a second final Release must panic, because
// it means two holders both believed they owned the last reference.
func TestDoubleReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Errorf("double Release did not panic")
		}
	}()
	b.Release()
}

// TestRetainAfterReleasePanics: reviving a dead buffer is a
// use-after-free in the making.
func TestRetainAfterReleasePanics(t *testing.T) {
	drain() // keep the dead Buf out of the free list's reach
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Errorf("Retain after final Release did not panic")
		}
		drain() // drop the corrupted refcount Buf
	}()
	b.Retain()
}

// TestNilSafe: nil receivers are inert so optional buffers need no
// call-site guards.
func TestNilSafe(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release()
	if b.Bytes() != nil || b.Refs() != 0 {
		t.Errorf("nil Buf not inert")
	}
}

// TestConcurrentHolders hammers Retain/Release from many goroutines
// under -race: the refcount must serialize the final release and the
// outstanding gauge must return to its starting point.
func TestConcurrentHolders(t *testing.T) {
	start := Outstanding()
	const holders = 16
	for iter := 0; iter < 100; iter++ {
		b := Copy([]byte("shared"))
		var wg sync.WaitGroup
		for h := 0; h < holders; h++ {
			b.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !bytes.Equal(b.Bytes(), []byte("shared")) {
					t.Errorf("holder read %q", b.Bytes())
				}
				b.Release()
			}()
		}
		b.Release() // creator's ref
		wg.Wait()
	}
	if got := Outstanding(); got != start {
		t.Errorf("outstanding = %d after balanced use, want %d", got, start)
	}
}

// TestStatsHitMiss: a cold Get misses, a recycled Get hits.
func TestStatsHitMiss(t *testing.T) {
	drain()
	before := Snapshot()
	a := Get(256)
	a.Release()
	b := Get(256)
	b.Release()
	after := Snapshot()
	if after.Misses != before.Misses+1 {
		t.Errorf("misses %d → %d, want +1", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("hits %d → %d, want +1", before.Hits, after.Hits)
	}
}

// TestAllocsSteadyState pins the whole point of the package: once the
// free list is warm, a Get/Copy/Release cycle performs zero heap
// allocations.
func TestAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	payload := make([]byte, 200)
	// Warm the class.
	Get(len(payload)).Release()
	allocs := testing.AllocsPerRun(1000, func() {
		b := Copy(payload)
		b.Retain()
		b.Release()
		b.Release()
	})
	if allocs > 0 {
		t.Errorf("steady-state Copy/Retain/Release allocates %.1f/op, want 0", allocs)
	}
}

// drain empties every free list, for tests that want a cold pool.
func drain() {
	for i := range classes {
		c := &classes[i]
		c.mu.Lock()
		c.free = nil
		c.mu.Unlock()
	}
}
