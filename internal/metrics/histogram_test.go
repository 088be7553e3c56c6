package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lockedHistogram is the pre-atomic reference implementation, kept here so
// the equivalence test pins the lock-free version against it.
type lockedHistogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

func newLockedHistogram() *lockedHistogram {
	return &lockedHistogram{counts: make([]uint64, histBuckets)}
}

func (h *lockedHistogram) Record(d time.Duration) {
	h.mu.Lock()
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

func (h *lockedHistogram) quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			return bucketValue(b)
		}
	}
	return h.max
}

// TestHistogramEquivalentToLocked feeds identical sample streams to the
// atomic histogram and the locked reference and requires every exported
// statistic to agree exactly: the lock removal must not change results.
func TestHistogramEquivalentToLocked(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	atomicH := NewHistogram()
	lockedH := newLockedHistogram()
	for i := 0; i < 100000; i++ {
		var d time.Duration
		switch i % 4 {
		case 0:
			d = time.Duration(rng.Int63n(int64(time.Millisecond)))
		case 1:
			d = time.Duration(rng.Int63n(int64(time.Second)))
		case 2:
			d = time.Duration(rng.Int63n(int64(time.Microsecond))) // below first bucket
		default:
			d = time.Duration(rng.Int63n(int64(30 * time.Minute))) // above last bucket
		}
		atomicH.Record(d)
		lockedH.Record(d)
	}
	if got, want := atomicH.Count(), lockedH.total; got != want {
		t.Fatalf("Count %d != %d", got, want)
	}
	if got, want := atomicH.Mean(), lockedH.sum/time.Duration(lockedH.total); got != want {
		t.Fatalf("Mean %v != %v", got, want)
	}
	if got, want := atomicH.Max(), lockedH.max; got != want {
		t.Fatalf("Max %v != %v", got, want)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
		if got, want := atomicH.Quantile(q), lockedH.quantile(q); got != want {
			t.Fatalf("Quantile(%v) %v != %v", q, got, want)
		}
	}
	for b := range atomicH.counts {
		if atomicH.counts[b].Load() != lockedH.counts[b] {
			t.Fatalf("bucket %d: %d != %d", b, atomicH.counts[b].Load(), lockedH.counts[b])
		}
	}
}

// TestHistogramConcurrentRecord hammers Record from many goroutines and
// checks the aggregate totals: no sample may be lost or double counted.
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const perWorker = 50000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(1 + rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("lost samples: Count %d != %d", got, workers*perWorker)
	}
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
	}
	if cum != workers*perWorker {
		t.Fatalf("bucket sum %d != %d", cum, workers*perWorker)
	}
	if h.Max() <= 0 || h.Max() > time.Second {
		t.Fatalf("max out of range: %v", h.Max())
	}
}

// BenchmarkHistogramRecordParallel measures Record under contention —
// the satellite's reason for the per-bucket atomics.
func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			h.Record(d)
			d += time.Microsecond
		}
	})
}

// BenchmarkLockedHistogramRecordParallel is the mutex baseline.
func BenchmarkLockedHistogramRecordParallel(b *testing.B) {
	h := newLockedHistogram()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			h.Record(d)
			d += time.Microsecond
		}
	})
}
