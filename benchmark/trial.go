package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/cluster"
	"amcast/internal/obs"
	"amcast/internal/trace"
	"amcast/internal/ycsb"
)

// env is what a workload's boot function gets for one trial.
type env struct {
	r          *run
	seed       int64
	dir        string // scratch directory of this trial, inside the checkout
	traceEvery int    // sample one operation in this many on a traced trial
}

// target is one booted deployment under load.
type target interface {
	// start begins operation i without blocking; its end is reported
	// through run.done (never, if the operation is lost).
	start(i int)
	// samples scrapes the deployment's cumulative counters and gauges.
	samples() []obs.Sample
	// layer returns per-layer values the registry does not carry.
	layer() map[string]float64
	// tracedSpans returns everything recorded on a traced trial.
	tracedSpans() []trace.Span
	// check verifies the outputs once the load has drained.
	check() error
	shutdown()
}

// windowHook is implemented by targets that act during the measured window.
type windowHook interface{ atWindow(window time.Duration) }

type workload struct {
	name       string
	rate       int // operations per second, open loop
	traceEvery int
	boot       func(*env) (target, error)
}

// workloads holds the six deployments; BENCHMARK.json and README.md say why
// each exists. Rates are sized to about half a core on the 2-core host the
// benchmark was defined on, so it measures the program and not the
// scheduler.
var workloads = []workload{
	{"mcast-1ring-mem", 10000, 20, func(e *env) (target, error) { return bootMcast(e, false) }},
	{"mcast-1ring-tcp-wal", 5000, 20, func(e *env) (target, error) { return bootMcast(e, true) }},
	{"dlog-multiring", 2000, 20, bootDLog},
	{"store-ycsb-a", 2000, 20, func(e *env) (target, error) {
		return bootStore(e, storeSpec{partitions: 3, records: 10000, mix: ycsb.WorkloadA})
	}},
	// Local reads are not traced, so the 5 % of updates are sampled more
	// densely to give the traced trial as many traces as the others.
	{"store-ycsb-b-localread", 4000, 2, func(e *env) (target, error) {
		return bootStore(e, storeSpec{partitions: 3, records: 10000, mix: ycsb.WorkloadB, localReads: true})
	}},
	{"store-recovery", 2000, 20, func(e *env) (target, error) {
		return bootStore(e, storeSpec{partitions: 1, records: 2000, recovery: true})
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// snapshot is the process and deployment state at one edge of the window.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	pool    bufpool.Stats
	samples []obs.Sample
}

// cpuTime is the CPU time, user and system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(tg target) snapshot {
	s := snapshot{samples: tg.samples(), pool: bufpool.Snapshot()}
	runtime.ReadMemStats(&s.mem)
	s.cpu, s.at = cpuTime(), time.Now()
	return s
}

// cpuSlice is the length of the slices the window's CPU time is read in.
const cpuSlice = 100 * time.Millisecond

// windowWatch samples, while the window runs, the heap in use (every half
// slice, without stopping the world) and the process CPU time of each slice.
type windowWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64    // bytes
	cpu  []float64 // µs of process CPU per slice
}

func watchWindow() *windowWatch {
	h := &windowWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(cpuSlice / 2)
		defer tick.Stop()
		last, n := cpuTime(), 0
		for {
			select {
			case <-tick.C:
				metrics.Read(s)
				h.peak = max(h.peak, s[0].Value.Uint64())
				if n++; n%2 == 0 {
					c := cpuTime()
					h.cpu = append(h.cpu, float64(c-last)/1e3)
					last = c
				}
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *windowWatch) done() {
	close(h.stop)
	h.wg.Wait()
	sort.Float64s(h.cpu)
}

// trial is the outcome of one fresh deployment driven for one window.
type trial struct {
	attempted, failed int
	checkErr          error
	e2e               map[string]float64
	layer             map[string]float64 // counters over the window
	spans             []trace.Span       // traced trials only
}

// runTrial boots the workload, drives warm-up and window, checks the
// outputs and tears the deployment down.
func runTrial(w workload, seed int64, pl plan, traced bool, scratch string) (*trial, error) {
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	runtime.GC() // every deployment starts on a collected heap, as in a process of its own
	booting := time.Now()
	r := newRun(w.rate, pl.warmup, pl.window, traced)
	tg, err := w.boot(&env{r: r, seed: seed, dir: dir, traceEvery: w.traceEvery})
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}

	var begin snapshot
	var watch *windowWatch
	r.drive(tg.start, func() {
		if h, ok := tg.(windowHook); ok {
			h.atWindow(pl.window)
		}
		watch = watchWindow()
		begin = takeSnapshot(tg)
	})
	end := takeSnapshot(tg)
	watch.done()
	r.drain()

	t := &trial{}
	if traced {
		t.spans = tg.tracedSpans()
	}
	t.checkErr = tg.check()
	own := tg.layer() // after check, which waits for what the target did during the window
	tg.shutdown()

	o := r.outcome()
	t.attempted, t.failed = o.attempted, o.failed
	ops := float64(max(1, len(o.all)))
	secs := end.at.Sub(begin.at).Seconds()
	t.e2e = map[string]float64{
		// Everything before the measured window opens: boot, preload,
		// readiness and the warm-up load.
		"setup_s":       begin.at.Sub(booting).Seconds(),
		"lat_p50_ms":    quantile(o.all, 0.50),
		"allocs_per_op": float64(end.mem.Mallocs-begin.mem.Mallocs) / ops,
	}

	d := newDeltas(begin.samples, end.samples)
	localReads := d.sum("mrp.replica.local_reads_total")
	ordered := max(1, ops-localReads)
	stalls := d.perRingMax("mrp.merge.stall_seconds_total")
	lookups := float64(end.pool.Hits-begin.pool.Hits) + float64(end.pool.Misses-begin.pool.Misses)
	t.layer = map[string]float64{
		"ring.instances_per_op":         sumValues(d.perRingMax("mrp.ring.decided_total")) / ordered,
		"ring.skips_per_s":              sumValues(d.perRingMax("mrp.ring.skipped_total")) / secs,
		"ring.send_batch_mean":          d.meanPositive("mrp.send.batch_items_mean"),
		"ring.shed_per_kop":             1000 * d.sum("mrp.flow.shed_proposals_total") / ordered,
		"ring.overruns":                 d.sum("mrp.flow.overruns_total"),
		"storage.fsyncs_per_op":         d.sum("mrp.wal.fsyncs_total") / ordered,
		"storage.wal_batch_mean":        d.meanPositive("mrp.wal.batch_items_mean"),
		"core.merge_stall_ms_per_s":     1000 * sumValues(stalls) / secs,
		"core.merge_stall_global_share": stalls[ringLabel(cluster.GlobalRing)] / max(1e-9, sumValues(stalls)),
		"core.merge_stall_max_ms":       1000 * d.maxEnd("mrp.merge.stall_max_seconds"),
		"smr.retransmits_per_kop":       1000 * d.sum("mrp.client.retransmits_total") / ops,
		"smr.overload_backoffs_per_kop": 1000 * d.sum("mrp.client.overload_backoffs_total") / ops,
		"smr.local_read_share":          localReads / ops,
		"smr.outage_max_gap_ms":         o.maxGapMs,
		"recovery.checkpoints":          d.sum("mrp.replica.checkpoints_total"),
		"transport.dropped_sends":       d.sum("transport.send.dropped"),
		"bufpool.miss_share":            float64(end.pool.Misses-begin.pool.Misses) / max(1, lookups),
		"bufpool.outstanding_end":       float64(bufpool.Outstanding()),
		"runtime.gc_pause_p99_us":       gcPauseP99(&begin.mem, &end.mem),
		"runtime.heap_inuse_peak_mb":    float64(watch.peak) / (1 << 20),
		"runtime.alloc_bytes_per_op":    float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / ops,
		"load.gen_late_p99_ms":          quantile(o.latePs, 0.99),
		"load.achieved_rate_share":      pl.window.Seconds() / secs,
		"load.fail_share":               float64(o.failed) / float64(o.attempted),
		"load.boot_ms":                  float64(r.t0.Sub(booting)) / 1e6,
		"load.lat_write_p50_ms":         quantile(o.write, 0.50),
		"load.lat_multi_p50_ms":         quantile(o.multi, 0.50),
		"load.lat_p90_ms":               quantile(o.all, 0.90),
		"load.lat_p99_ms":               quantile(o.all, 0.99),
		"load.svc_p50_ms":               quantile(o.svc, 0.50),
		"runtime.cpu_mean_us_per_op":    float64(end.cpu-begin.cpu) / 1e3 / ops,
		// The lower decile of the window's 100 ms slices: what the work
		// costs when the shared host does not interfere.
		"runtime.cpu_p10_us_per_op": quantile(watch.cpu, 0.10) / (float64(w.rate) * cpuSlice.Seconds()),
		// Read through the target's own accessors where it has them.
		"core.delivery_batch_mean":   0,
		"recovery.ckpt_stall_max_ms": 0,
		"recovery.catchup_ms":        0,
		"smr.read_wait_p99_ms":       0,
	}
	for name, v := range own {
		t.layer[name] = v
	}
	return t, nil
}

// gcPauseP99 reads the stop-the-world pauses of the collections that ran
// between two MemStats readings.
func gcPauseP99(begin, end *runtime.MemStats) float64 {
	var pauses []float64
	for n := begin.NumGC; n < end.NumGC && len(pauses) < len(end.PauseNs); n++ {
		pauses = append(pauses, float64(end.PauseNs[n%uint32(len(end.PauseNs))])/1e3)
	}
	sort.Float64s(pauses)
	return quantile(pauses, 0.99)
}

// series identifies one scraped metric.
type series struct{ name, process, ring string }

// deltas holds, for every series, its change over the window (counters)
// and its value at the end (gauges).
type deltas struct {
	change, end map[series]float64
}

func newDeltas(begin, end []obs.Sample) deltas {
	key := func(s obs.Sample) series { return series{s.Name, s.Labels["process"], s.Labels["ring"]} }
	before := make(map[series]float64, len(begin))
	for _, s := range begin {
		before[key(s)] = s.Value
	}
	d := deltas{make(map[series]float64, len(end)), make(map[series]float64, len(end))}
	for _, s := range end {
		k := key(s)
		d.end[k] = s.Value
		d.change[k] = s.Value - before[k]
		if s.Value < before[k] {
			d.change[k] = s.Value // the process restarted and counts from 0
		}
	}
	return d
}

func (d deltas) sum(name string) float64 {
	var t float64
	for k, v := range d.change {
		if k.name == name {
			t += v
		}
	}
	return t
}

// perRingMax returns, per ring, the largest change any process saw: every
// learner of a ring counts the same instances, and a crashed one fewer.
func (d deltas) perRingMax(name string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range d.change {
		if k.name == name {
			out[k.ring] = max(out[k.ring], v)
		}
	}
	return out
}

func (d deltas) maxEnd(name string) float64 {
	var m float64
	for k, v := range d.end {
		if k.name == name {
			m = max(m, v)
		}
	}
	return m
}

func (d deltas) meanPositive(name string) float64 {
	var t float64
	var n int
	for k, v := range d.end {
		if k.name == name && v > 0 {
			t += v
			n++
		}
	}
	return t / float64(max(1, n))
}

func sumValues(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}
