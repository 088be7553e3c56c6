package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || histMin(h) != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if mean := h.Mean(); mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Errorf("Mean = %v, want ~50.5ms", mean)
	}
	if min := histMin(h); min != time.Millisecond {
		t.Errorf("Min = %v", min)
	}
	if max := h.Max(); max != 100*time.Millisecond {
		t.Errorf("Max = %v", max)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Errorf("p50 = %v, want ~50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Millisecond || p99 > 110*time.Millisecond {
		t.Errorf("p99 = %v, want ~99ms", p99)
	}
}

func TestHistogramPrecision(t *testing.T) {
	// Quantile of a constant stream must be within ~5% of the value.
	f := func(usRaw uint32) bool {
		us := int64(usRaw%1000000) + 1
		d := time.Duration(us) * time.Microsecond
		h := NewHistogram()
		for i := 0; i < 10; i++ {
			h.Record(d)
		}
		got := h.Quantile(0.5)
		rel := math.Abs(float64(got-d)) / float64(d)
		return rel < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * 37 * time.Microsecond)
	}
	last := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantile %v < quantile at lower q (%v < %v)", q, v, last)
		}
		last = v
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cdf := h.CDF(10)
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	lastF := 0.0
	for _, p := range cdf {
		if p.Fraction < lastF {
			t.Fatal("CDF fractions not monotone")
		}
		lastF = p.Fraction
	}
	if lastF < 0.999 {
		t.Errorf("CDF ends at %v, want ~1.0", lastF)
	}
	if NewHistogram().CDF(10) != nil {
		t.Error("empty histogram should yield nil CDF")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Add(10, 1000)
	m.Add(5, 500)
	if n, b := m.n, m.bytes; n != 15 || b != 1500 {
		t.Errorf("Counts = %d, %d", n, b)
	}
	time.Sleep(20 * time.Millisecond)
	ops, mbps := m.Rate()
	if ops <= 0 || mbps <= 0 {
		t.Errorf("Rate = %v, %v", ops, mbps)
	}
	m.Reset()
	if m.n != 0 {
		t.Error("Reset did not clear counts")
	}
}

// histMin returns h's smallest sample (0 if empty).
func histMin(h *Histogram) time.Duration {
	if h.total.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}
