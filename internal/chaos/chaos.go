// Package chaos is a declarative fault-injection harness for the
// MRP-Store stack: a scenario is faults × schedule × workload ×
// invariants. The harness boots a full deployment with real failure
// detectors (no oracle MarkDown anywhere), drives an acked-write
// workload, fires scheduled fault events (process kills, network
// partitions, disk faults), heals, and then verifies the three
// invariants every campaign shares:
//
//   - liveness: after the last fault heals, a fresh client makes
//     progress within RecoveryBound;
//   - safety: no acknowledged write is lost or regressed — each key has
//     a single writer issuing strictly increasing values, so the final
//     value must be at least the last acknowledged one;
//   - convergence: every running replica of every partition serializes
//     to identical bytes.
//
// Detection and recovery latencies (kill → marked down, restart →
// marked up) are measured per event and reported as percentiles,
// together with the longest window during which no writer got an ack
// (unavailability) and the throughput dip across 100 ms windows.
package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/coord"
	"amcast/internal/metrics"
	"amcast/internal/netem"
	"amcast/internal/transport"
)

// Workload drives the acked-write load under which faults are injected.
type Workload struct {
	// Writers is the number of concurrent writer loops. Each owns a
	// disjoint key set (single writer per key), so "last acknowledged
	// value" is unambiguous. Default 3.
	Writers int
	// Keys per writer. Default 24.
	Keys int
	// Think pauses between a writer's operations. Default 0 (tight loop).
	Think time.Duration
	// Timeout bounds each store operation. Default 10s.
	Timeout time.Duration
}

// Event is one scheduled step of a scenario. Do must return quickly:
// long-running actions (a live split, a restart that replays a WAL)
// should be launched with Run.Go so later events fire on schedule.
type Event struct {
	// At is the offset from workload start.
	At   time.Duration
	Name string
	Do   func(*Run) error
}

// Spec declares a chaos scenario.
type Spec struct {
	Name string
	// Store configures the deployment. The harness forces RetainLogs on
	// (kills must not lose the WAL — that is a different fault) and
	// installs a default Detector when none is set: failure detection is
	// the point, not an option.
	Store cluster.StoreOptions
	// Topology is the latency model (nil = uniform local).
	Topology *netem.Topology
	Workload Workload
	Events   []Event
	// Tail keeps the workload running after the last event. Default 500ms.
	Tail time.Duration
	// RecoveryBound bounds the post-heal liveness probe and the
	// detection/recovery watchers. Default 20s.
	RecoveryBound time.Duration
	// Check, when set, runs extra scenario-specific invariants after the
	// workload stopped and before teardown. Errors land in the report.
	Check func(*Run) error
}

// Report is the machine-readable outcome of one scenario.
type Report struct {
	Name        string  `json:"name"`
	DurationSec float64 `json:"duration_sec"`

	AckedWrites  uint64 `json:"acked_writes"`
	FailedWrites uint64 `json:"failed_writes"`
	// LostWrites counts keys whose final value is below the last
	// acknowledged one — each is a broken promise. Must be zero.
	LostWrites int `json:"lost_writes"`

	Kills    int `json:"kills"`
	Restarts int `json:"restarts"`

	DetectP50Ms  float64 `json:"detect_p50_ms"`
	DetectP99Ms  float64 `json:"detect_p99_ms"`
	RecoverP50Ms float64 `json:"recover_p50_ms"`
	RecoverP99Ms float64 `json:"recover_p99_ms"`
	// MaxUnavailabilityMs is the longest gap between two consecutive
	// acknowledgements observed by any single writer.
	MaxUnavailabilityMs float64 `json:"max_unavailability_ms"`

	SteadyOpsPerSec float64 `json:"steady_ops_per_sec"`
	MinWindowOps    float64 `json:"min_window_ops_per_sec"`
	// ThroughputDip is 1 - min/steady across 100 ms ack windows.
	ThroughputDip float64 `json:"throughput_dip"`

	Liveness  bool     `json:"liveness"`
	Converged bool     `json:"converged"`
	Errors    []string `json:"errors,omitempty"`
	Timeline  []string `json:"timeline"`
}

// Passed reports whether every invariant held.
//
//lint:allow testonly every TestChaos campaign checks its verdict with it (chaos_test.go runCampaign)
func (r *Report) Passed() bool {
	return r.LostWrites == 0 && r.Liveness && r.Converged && len(r.Errors) == 0
}

// Run is the live scenario handed to events and checks.
type Run struct {
	Spec    *Spec
	D       *cluster.Deployment
	Cluster *cluster.StoreCluster
	Faults  *netem.FaultPlan

	start time.Time

	mu         sync.Mutex
	timeline   []string
	errs       []string
	detect     *metrics.Histogram
	recoverH   *metrics.Histogram
	kills      int
	restarts   int
	partitions []int // partition indices with running replicas
	stash      map[string]any

	watchers sync.WaitGroup // detection/recovery watchers
	async    sync.WaitGroup // Run.Go background actions
}

// Note appends a timestamped line to the scenario timeline.
func (r *Run) Note(format string, args ...any) {
	line := fmt.Sprintf("%8.0fms %s", float64(time.Since(r.start))/float64(time.Millisecond), fmt.Sprintf(format, args...))
	r.mu.Lock()
	r.timeline = append(r.timeline, line)
	r.mu.Unlock()
}

// Fail records an invariant violation without stopping the scenario.
func (r *Run) Fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.errs = append(r.errs, msg)
	r.mu.Unlock()
	r.Note("FAIL: %s", msg)
}

// Go launches a long-running action (a split, a slow restart) without
// blocking the event scheduler. The harness waits for it before
// verifying invariants.
func (r *Run) Go(name string, fn func() error) {
	r.async.Add(1)
	go func() {
		defer r.async.Done()
		if err := fn(); err != nil {
			r.Note("async %s: %v", name, err)
		}
	}()
}

// Put stashes a scenario-scoped value for a later event or check.
func (r *Run) Put(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stash[key] = v
}

// Get reads a value stashed by an earlier event.
func (r *Run) Get(key string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stash[key]
}

// Coordinator resolves the current coordinator of partition p's ring to
// (partition, replica) indices.
func (r *Run) Coordinator(p int) (int, int, bool) {
	cfg, ok := r.D.Svc.Ring(transport.RingID(p))
	if !ok || cfg.Coordinator == 0 {
		return 0, 0, false
	}
	id := int(cfg.Coordinator)
	return id / 100, id % 100, true
}

// Kill hard-crashes a replica — no liveness mark; the detectors must
// notice — and measures how long detection takes.
func (r *Run) Kill(p, rep int) {
	r.Note("kill %d/%d", p, rep)
	r.mu.Lock()
	r.kills++
	r.mu.Unlock()
	r.Cluster.Kill(p, rep)
	r.WatchDown(p, rep, fmt.Sprintf("kill %d/%d", p, rep))
}

// Restart reboots a killed replica quietly — no liveness mark; the
// detectors re-admit it — and measures how long the rejoin takes.
func (r *Run) Restart(p, rep int) {
	r.Note("restart %d/%d", p, rep)
	r.mu.Lock()
	r.restarts++
	r.mu.Unlock()
	if err := r.Cluster.RestartQuiet(p, rep); err != nil {
		r.Fail("restart %d/%d: %v", p, rep, err)
		return
	}
	r.WatchUp(p, rep, fmt.Sprintf("restart %d/%d", p, rep))
}

// WatchDown measures the time until the replica is marked down on its
// partition ring (for faults injected outside Kill, e.g. partitions).
func (r *Run) WatchDown(p, rep int, label string) { r.watchLiveness(p, rep, label, true) }

// WatchUp measures the time until the replica is marked up again.
func (r *Run) WatchUp(p, rep int, label string) { r.watchLiveness(p, rep, label, false) }

func (r *Run) watchLiveness(p, rep int, label string, wantDown bool) {
	id := cluster.ReplicaID(p, rep)
	ring := transport.RingID(p)
	from := time.Now()
	r.watchers.Add(1)
	go func() {
		defer r.watchers.Done()
		deadline := from.Add(r.Spec.RecoveryBound)
		for {
			cfg, ok := r.D.Svc.Ring(ring)
			if ok && cfg.Down[id] == wantDown {
				el := time.Since(from)
				r.mu.Lock()
				if wantDown {
					r.detect.Record(el)
				} else {
					r.recoverH.Record(el)
				}
				r.mu.Unlock()
				if wantDown {
					r.Note("detected down %d/%d after %v (%s)", p, rep, el.Round(time.Millisecond), label)
				} else {
					r.Note("rejoined %d/%d after %v (%s)", p, rep, el.Round(time.Millisecond), label)
				}
				return
			}
			if time.Now().After(deadline) {
				verb := "marked down"
				if !wantDown {
					verb = "marked up"
				}
				r.Fail("%s: replica %d/%d never %s within %v", label, p, rep, verb, r.Spec.RecoveryBound)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
}

// TrackPartition registers a partition added mid-scenario (a scale-out
// split) so the convergence check covers its replicas too.
func (r *Run) TrackPartition(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partitions = append(r.partitions, p)
}

func (s *Spec) withDefaults() {
	if s.Workload.Writers == 0 {
		s.Workload.Writers = 3
	}
	if s.Workload.Keys == 0 {
		s.Workload.Keys = 24
	}
	if s.Workload.Timeout == 0 {
		s.Workload.Timeout = 10 * time.Second
	}
	if s.Tail == 0 {
		s.Tail = 500 * time.Millisecond
	}
	if s.RecoveryBound == 0 {
		s.RecoveryBound = 20 * time.Second
	}
	if s.Store.Detector == nil {
		s.Store.Detector = &coord.DetectorOptions{Interval: 20 * time.Millisecond}
	}
	s.Store.RetainLogs = true
	if s.Store.RecoveryTimeout == 0 {
		s.Store.RecoveryTimeout = 2 * time.Second
	}
}

// Key returns the workload key with index i (shared with campaigns that
// need to pick a split point inside the loaded key space).
func Key(i int) string { return fmt.Sprintf("k%04d", i) }

// Execute boots the scenario, runs workload and events to completion,
// verifies the invariants and tears the deployment down.
//
//lint:allow testonly every TestChaos campaign runs through it (chaos_test.go runCampaign)
func Execute(spec Spec) (*Report, error) {
	spec.withDefaults()
	d := cluster.NewDeployment(spec.Topology)
	defer d.Close()
	c, err := d.StartStore(spec.Store)
	if err != nil {
		return nil, fmt.Errorf("chaos: start store: %w", err)
	}
	defer c.StopAll()

	run := &Run{
		Spec:     &spec,
		D:        d,
		Cluster:  c,
		Faults:   d.Net.Faults(),
		detect:   metrics.NewHistogram(),
		recoverH: metrics.NewHistogram(),
		stash:    make(map[string]any),
	}
	for p := 1; p <= spec.Store.Partitions; p++ {
		run.partitions = append(run.partitions, p)
	}

	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		return nil, fmt.Errorf("chaos: client: %w", err)
	}
	defer cl.Close()
	sc.Timeout = spec.Workload.Timeout

	// Preload every workload key through consensus so writers can issue
	// pure updates (single writer per key, strictly increasing values).
	total := spec.Workload.Writers * spec.Workload.Keys
	for i := 0; i < total; i++ {
		if err := sc.Insert(Key(i), []byte("init")); err != nil {
			return nil, fmt.Errorf("chaos: preload %s: %w", Key(i), err)
		}
	}

	run.start = time.Now()
	run.Note("scenario %s: %d partitions × %d replicas, %d writers × %d keys",
		spec.Name, spec.Store.Partitions, spec.Store.Replicas, spec.Workload.Writers, spec.Workload.Keys)

	// Writers: each owns key indices ≡ w (mod Writers).
	type writerStats struct {
		lastAck map[string]string
		ackAt   []time.Duration // offsets of every ack, for windows
		acks    uint64
		fails   uint64
		maxGap  time.Duration
	}
	stats := make([]*writerStats, spec.Workload.Writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < spec.Workload.Writers; w++ {
		ws := &writerStats{lastAck: make(map[string]string)}
		stats[w] = ws
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsc, wcl, err := c.NewClient(netem.SiteLocal)
			if err != nil {
				run.Fail("writer %d client: %v", w, err)
				return
			}
			defer wcl.Close()
			wsc.Timeout = spec.Workload.Timeout
			last := time.Now()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				k := Key((seq%spec.Workload.Keys)*spec.Workload.Writers + w)
				v := fmt.Sprintf("w%d-%08d", w, seq)
				if err := wsc.Update(k, []byte(v)); err != nil {
					// Faults make timeouts legitimate; the safety net is
					// that an errored write was never acknowledged.
					ws.fails++
					continue
				}
				now := time.Now()
				if gap := now.Sub(last); gap > ws.maxGap {
					ws.maxGap = gap
				}
				last = now
				ws.acks++
				ws.lastAck[k] = v
				ws.ackAt = append(ws.ackAt, now.Sub(run.start))
				if spec.Workload.Think > 0 {
					time.Sleep(spec.Workload.Think)
				}
			}
		}(w)
	}

	// Fire events on schedule.
	events := append([]Event(nil), spec.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	var last time.Duration
	for _, ev := range events {
		if d := ev.At - time.Since(run.start); d > 0 {
			time.Sleep(d)
		}
		run.Note("event: %s", ev.Name)
		if err := ev.Do(run); err != nil {
			run.Fail("event %s: %v", ev.Name, err)
		}
		last = ev.At
	}
	_ = last
	run.async.Wait() // long-running actions (splits, slow restarts)
	time.Sleep(spec.Tail)
	close(stop)
	wg.Wait()
	workDur := time.Since(run.start)

	// Liveness: a fresh client must make progress within RecoveryBound.
	liveness := false
	probeDeadline := time.Now().Add(spec.RecoveryBound)
	sc.Timeout = 2 * time.Second
	if err := sc.Insert("probe", []byte("0")); err != nil {
		run.Note("probe insert: %v", err)
	}
	for n := 0; time.Now().Before(probeDeadline); n++ {
		if err := sc.Update("probe", []byte(fmt.Sprintf("%d", n))); err == nil {
			liveness = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !liveness {
		run.Fail("no progress within %v after the last event", spec.RecoveryBound)
	}

	run.watchers.Wait() // detection/recovery measurements (bounded)

	// Convergence: every running replica of every partition serializes
	// to identical bytes.
	converged := true
	for _, p := range run.partitions {
		if !waitConverged(run, p, 10*time.Second) {
			converged = false
		}
	}

	if spec.Check != nil {
		if err := spec.Check(run); err != nil {
			run.Fail("check: %v", err)
		}
	}

	// Safety: the final value of every key must be at least the last
	// acknowledged one (single writer per key, monotonic values).
	lost := 0
	sc.Timeout = spec.Workload.Timeout
	for w, ws := range stats {
		for k, want := range ws.lastAck {
			got, ok, err := sc.Read(k)
			if err != nil {
				run.Fail("final read %s: %v", k, err)
				lost++
				continue
			}
			if !ok || string(got) < want {
				run.Fail("acked write lost: key %s writer %d: final %q < acked %q", k, w, got, want)
				lost++
			}
		}
	}

	rep := &Report{
		Name:        spec.Name,
		DurationSec: workDur.Seconds(),
		Liveness:    liveness,
		Converged:   converged,
		LostWrites:  lost,
	}
	var allAcks []time.Duration
	for _, ws := range stats {
		rep.AckedWrites += ws.acks
		rep.FailedWrites += ws.fails
		if ms := float64(ws.maxGap) / float64(time.Millisecond); ms > rep.MaxUnavailabilityMs {
			rep.MaxUnavailabilityMs = ms
		}
		allAcks = append(allAcks, ws.ackAt...)
	}
	rep.SteadyOpsPerSec, rep.MinWindowOps, rep.ThroughputDip = throughputWindows(allAcks, workDur)
	run.mu.Lock()
	rep.Kills, rep.Restarts = run.kills, run.restarts
	if run.detect.Count() > 0 {
		rep.DetectP50Ms = float64(run.detect.Quantile(0.50)) / float64(time.Millisecond)
		rep.DetectP99Ms = float64(run.detect.Quantile(0.99)) / float64(time.Millisecond)
	}
	if run.recoverH.Count() > 0 {
		rep.RecoverP50Ms = float64(run.recoverH.Quantile(0.50)) / float64(time.Millisecond)
		rep.RecoverP99Ms = float64(run.recoverH.Quantile(0.99)) / float64(time.Millisecond)
	}
	rep.Errors = append(rep.Errors, run.errs...)
	rep.Timeline = append(rep.Timeline, run.timeline...)
	run.mu.Unlock()
	return rep, nil
}

// throughputWindows buckets acks into 100 ms windows and reports the
// median window rate, the worst window rate, and the dip between them.
func throughputWindows(acks []time.Duration, dur time.Duration) (steady, min, dip float64) {
	const win = 100 * time.Millisecond
	n := int(dur / win)
	if n < 2 || len(acks) == 0 {
		return 0, 0, 0
	}
	counts := make([]int, n)
	for _, at := range acks {
		if b := int(at / win); b >= 0 && b < n {
			counts[b]++
		}
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	steady = float64(sorted[len(sorted)/2]) * float64(time.Second/win)
	min = float64(sorted[0]) * float64(time.Second/win)
	if steady > 0 {
		dip = 1 - min/steady
	}
	return steady, min, dip
}

// waitConverged polls until every running replica of partition p
// serializes to identical bytes.
func waitConverged(r *Run, p int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		var snaps [][]byte
		for rep := 1; rep <= r.Spec.Store.Replicas; rep++ {
			srv := r.Cluster.Server(p, rep)
			if srv == nil {
				continue // killed and not restarted: excused
			}
			snaps = append(snaps, srv.SM().Snapshot())
		}
		equal := len(snaps) > 0
		for i := 1; i < len(snaps); i++ {
			if !bytes.Equal(snaps[0], snaps[i]) {
				equal = false
				break
			}
		}
		if equal {
			return true
		}
		if time.Now().After(deadline) {
			r.Fail("partition %d replicas did not converge within %v", p, timeout)
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
