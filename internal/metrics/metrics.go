// Package metrics provides the measurement primitives the benchmark
// harness uses to regenerate the paper's figures: latency histograms with
// quantiles and CDF extraction, throughput meters, counters, gauges and
// moving averages.
//
// It is a leaf on purpose, importing only math, sync, sync/atomic and
// time: ring, storage, core, smr and store record into it on their hot
// paths. Exposition lives in internal/obs, which imports net/http/pprof
// (whose init registers handlers on http.DefaultServeMux), trace and
// bufpool. Merging the two would pull an HTTP mux into every protocol
// package.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations in logarithmic buckets (HdrHistogram-style:
// ~5% relative precision). Recording is lock-free — one atomic add per
// bucket plus atomic total/sum and CAS-raced min/max — so it can sit on
// concurrent hot paths (every traced request, every merge stall) without
// a global mutex serializing recorders. Readers observe a possibly
// slightly torn view under concurrent recording (each counter is
// individually consistent); quantiles clamp accordingly, which is the
// standard telemetry trade.
type Histogram struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; MaxInt64 when empty
	max    atomic.Int64 // nanoseconds
}

// bucketCount covers 1µs..~17min with 64 buckets per octave step below.
const (
	histBuckets = 1024
	// histGrowth is the per-bucket growth factor: bucket i covers
	// [base*g^i, base*g^(i+1)).
	histGrowth = 1.05
	histBase   = float64(time.Microsecond)
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{counts: make([]atomic.Uint64, histBuckets)}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := int(math.Log(float64(d)/histBase) / math.Log(histGrowth))
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketValue(b int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(b)+0.5))
}

// Record adds one sample. Lock-free: safe for any number of concurrent
// recorders.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	return h.total.Load()
}

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()) / time.Duration(total)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load())
}

// Quantile returns the q-quantile (0 < q <= 1), e.g. 0.5 for the median.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		if cum > target {
			return bucketValue(b)
		}
	}
	return h.Max()
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF extracts up to n evenly spaced points of the latency CDF, as plotted
// in the paper's latency CDF graphs (Figures 3, 6 and 7).
func (h *Histogram) CDF(n int) []CDFPoint {
	total := h.total.Load()
	if total == 0 || n <= 0 {
		return nil
	}
	var out []CDFPoint
	var cum uint64
	step := 1.0 / float64(n)
	next := step
	for b := range h.counts {
		c := h.counts[b].Load()
		if c == 0 {
			continue
		}
		cum += c
		frac := float64(cum) / float64(total)
		if frac >= next || cum >= total {
			out = append(out, CDFPoint{Latency: bucketValue(b), Fraction: frac})
			for next <= frac {
				next += step
			}
		}
	}
	return out
}

// Meter counts events and bytes over a measurement window.
type Meter struct {
	mu    sync.Mutex
	n     uint64
	bytes uint64
	start time.Time
}

// NewMeter starts a meter.
func NewMeter() *Meter {
	return &Meter{start: time.Now()}
}

// Add records n events totalling b bytes.
func (m *Meter) Add(n, b uint64) {
	m.mu.Lock()
	m.n += n
	m.bytes += b
	m.mu.Unlock()
}

// Reset zeroes the meter and restarts its clock.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.n, m.bytes = 0, 0
	m.start = time.Now()
	m.mu.Unlock()
}

// Rate returns events/sec and megabits/sec since start or last Reset.
func (m *Meter) Rate() (opsPerSec, mbps float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := time.Since(m.start).Seconds()
	if elapsed <= 0 {
		return 0, 0
	}
	return float64(m.n) / elapsed, float64(m.bytes) * 8 / 1e6 / elapsed
}

// Counter is a lock-free monotonically increasing event counter, for hot
// paths where a Meter's mutex would show up (e.g. fsyncs issued by the
// acceptor WAL). The zero value is ready to use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one event.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is a lock-free settable instantaneous value — e.g. the schema
// epoch a process currently operates under. The zero value is ready to
// use and reads 0.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (monotonic gauges such as
// epochs, where concurrent setters must never move it backwards).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// BatchGauge tracks the size distribution of batches flowing through a hot
// path — group-commit WAL batches, coalesced network flushes — cheaply
// enough to stay enabled in production: three atomics per observation. The
// zero value is ready to use.
type BatchGauge struct {
	batches atomic.Uint64
	items   atomic.Uint64
	max     atomic.Uint64
}

// Observe records one batch of the given size.
func (g *BatchGauge) Observe(size int) {
	if size <= 0 {
		return
	}
	g.batches.Add(1)
	g.items.Add(uint64(size))
	for {
		cur := g.max.Load()
		if uint64(size) <= cur || g.max.CompareAndSwap(cur, uint64(size)) {
			return
		}
	}
}

// Snapshot returns the totals so far.
//
//lint:allow testonly TestFileWALPutBatchGroupCommit (storage) and TestPackingBoundaries, TestCoordinatorPacksDrainedBurst and TestOverloadHintTracksDrainTime (ring) count batches and items with it
func (g *BatchGauge) Snapshot() (batches, items, maxSize uint64) {
	return g.batches.Load(), g.items.Load(), g.max.Load()
}

// Mean returns the average batch size (0 if nothing was observed).
func (g *BatchGauge) Mean() float64 {
	b := g.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(g.items.Load()) / float64(b)
}

// EWMA is an exponentially weighted moving average: each Update folds a
// new sample in with weight alpha. The first sample initializes the
// average directly, so a freshly started rate tracker does not spend its
// first windows climbing from zero. Not safe for concurrent use — it is
// meant for single-goroutine accounting (e.g. a ring coordinator's
// decided-rate tracking per Δ window).
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with the given sample weight (0 < alpha <= 1).
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{alpha: alpha}
}

// Update folds one sample in and returns the new average.
func (e *EWMA) Update(sample float64) float64 {
	if !e.init {
		e.v, e.init = sample, true
		return e.v
	}
	e.v = e.alpha*sample + (1-e.alpha)*e.v
	return e.v
}

// Value returns the current average (0 before the first sample).
func (e *EWMA) Value() float64 { return e.v }
