package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Load model shared by every workload: open loop at a fixed rate. One
// generator goroutine wakes every millisecond and starts every operation
// whose due time has passed; latency runs from the due time, so a stall
// anywhere is charged to every operation it delays. A finer tick buys
// nothing: Go timers on the host this was defined on fire about 0.5 ms
// late whatever the period, and that lateness is most of lat_p50_ms on the
// in-process workloads. svc_p50_ms takes it out.
const (
	genTick    = time.Millisecond
	opDeadline = time.Second // completion later than this after due = failed
	poolSize   = 64          // worker goroutines for the synchronous clients
	queueDepth = 4096        // operations waiting for a worker; beyond = failed
	payloadLen = 1024
)

// Operation classes, for the per-class latency metrics.
const (
	classRead  uint8 = iota // changes no state (ordered or local read)
	classWrite              // ordered through one ring and changes state
	classMulti              // ordered through the ring common to all groups
)

// run is the schedule and the outcome of one trial's operations.
type run struct {
	t0    time.Time // due time of operation 0
	gapNs float64   // nanoseconds between due times
	warm  int       // operations before the measured window
	n     int       // warm-up + measured operations

	lat   []atomic.Int64 // completion − due in ns; 0 pending, -1 failed
	late  []int64        // start − due in ns: how late the generator ran
	class []uint8

	// Filled only on a traced trial, for matching the program's spans to
	// the operation that caused them.
	traced    bool
	callStart []int64 // ns since t0
	callEnd   []int64
	client    []uint8
}

func newRun(rate int, warmup, window time.Duration, traced bool) *run {
	warm := int(float64(rate) * warmup.Seconds())
	n := warm + int(float64(rate)*window.Seconds())
	r := &run{
		gapNs: 1e9 / float64(rate), warm: warm, n: n, traced: traced,
		lat: make([]atomic.Int64, n), late: make([]int64, n), class: make([]uint8, n),
	}
	if traced {
		r.callStart, r.callEnd, r.client = make([]int64, n), make([]int64, n), make([]uint8, n)
	}
	return r
}

func (r *run) dueOffset(i int) time.Duration { return time.Duration(float64(i) * r.gapNs) }
func (r *run) due(i int) time.Time           { return r.t0.Add(r.dueOffset(i)) }

// done records the end of operation i; only the first report counts.
func (r *run) done(i int, ok bool) {
	d := int64(time.Since(r.due(i)))
	if !ok || d > int64(opDeadline) {
		d = -1
	} else if d <= 0 {
		d = 1
	}
	r.lat[i].CompareAndSwap(0, d)
}

// drive issues the schedule through start. atWindow runs just before the
// first measured operation and the function returns right after the last
// one has been started.
func (r *run) drive(start func(i int), atWindow func()) {
	tick := time.NewTicker(genTick)
	defer tick.Stop()
	r.t0 = time.Now()
	for i := 0; i < r.n; {
		<-tick.C
		now := time.Since(r.t0)
		for ; i < r.n && r.dueOffset(i) <= now; i++ {
			if i == r.warm {
				atWindow()
				now = time.Since(r.t0)
			}
			r.late[i] = int64(now - r.dueOffset(i))
			start(i)
		}
	}
}

// drain waits until every operation has ended or the deadline of the last
// one has passed.
func (r *run) drain() {
	limit := r.due(r.n - 1).Add(opDeadline)
	for i := 0; i < r.n; i++ {
		for r.lat[i].Load() == 0 && time.Now().Before(limit) {
			time.Sleep(time.Millisecond)
		}
	}
}

// outcome summarises the measured window.
type outcome struct {
	attempted, failed int
	all, write, multi []float64 // sorted latencies from the due time, ms
	svc               []float64 // sorted latencies from the actual start, ms
	latePs            []float64 // sorted generator lateness, ms
	maxGapMs          float64   // longest time between two completions
}

func (r *run) outcome() outcome {
	o := outcome{attempted: r.n - r.warm}
	ends := make([]float64, 0, o.attempted)
	for i := r.warm; i < r.n; i++ {
		o.latePs = append(o.latePs, float64(r.late[i])/1e6)
		d := r.lat[i].Load()
		if d <= 0 {
			o.failed++
			continue
		}
		ms := float64(d) / 1e6
		o.all = append(o.all, ms)
		o.svc = append(o.svc, ms-float64(r.late[i])/1e6)
		if r.class[i] >= classWrite {
			o.write = append(o.write, ms)
		}
		if r.class[i] == classMulti {
			o.multi = append(o.multi, ms)
		}
		ends = append(ends, float64(r.dueOffset(i))/1e6+ms)
	}
	for _, s := range [][]float64{o.all, o.svc, o.write, o.multi, o.latePs, ends} {
		sort.Float64s(s)
	}
	for i := 1; i < len(ends); i++ {
		o.maxGapMs = math.Max(o.maxGapMs, ends[i]-ends[i-1])
	}
	return o
}

// quantile reads the q-quantile of a sorted sample (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// job is one operation handed to the worker pool of a synchronous client.
type job struct {
	i    int
	kind uint8
	key  string
}

// pool runs the synchronous service clients: a fixed set of workers fed
// from a bounded queue, so a slow system meets a growing queue and then
// failures instead of a slower generator.
type pool struct {
	r     *run
	queue chan job // queueDepth: the backlog an open loop may build before operations fail
	wg    sync.WaitGroup
	once  sync.Once
}

// newPool starts the workers; do executes one job on the given worker's
// client endpoint and reports whether it succeeded.
func newPool(r *run, clients int, do func(client int, j job) bool) *pool {
	p := &pool{r: r, queue: make(chan job, queueDepth)}
	for w := 0; w < poolSize; w++ {
		p.wg.Add(1)
		go func(client int) {
			defer p.wg.Done()
			for j := range p.queue {
				if r.traced {
					r.client[j.i] = uint8(client)
					r.callStart[j.i] = int64(time.Since(r.t0))
				}
				ok := do(client, j)
				if r.traced {
					r.callEnd[j.i] = int64(time.Since(r.t0))
				}
				r.done(j.i, ok)
			}
		}(w % clients)
	}
	return p
}

func (p *pool) submit(j job) {
	select {
	case p.queue <- j:
	default:
		p.r.done(j.i, false)
	}
}

// stop lets the workers finish what is queued and waits for them.
func (p *pool) stop() {
	p.once.Do(func() { close(p.queue) })
	p.wg.Wait()
}

// parallelDo runs fn(0..n-1) on up to poolSize goroutines and returns the
// first error.
func parallelDo(n int, fn func(i int) error) error {
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < min(poolSize, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && first.Load() == nil; i = int(next.Add(1)) - 1 {
				if err := fn(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if e := first.Load(); e != nil {
		return *e
	}
	return nil
}
