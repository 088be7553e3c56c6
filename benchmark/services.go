package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/dlog"
	"amcast/internal/netem"
	"amcast/internal/obs"
	"amcast/internal/store"
	"amcast/internal/trace"
	"amcast/internal/ycsb"
)

// clientEndpoints is fixed, not nproc, so that the load has the same shape
// on every host; the issue caps it at nproc, which is 2 where it was set.
const clientEndpoints = 2

// traceCap bounds the traces assembled after a traced trial: the only
// public export is Collector.Trace(id), which copies every recorder's
// whole ring for each id.
const traceCap = 256

// readBack is how many positions of each log the dLog check reads back.
const readBack = 256

// Job kinds.
const (
	kindRead uint8 = iota
	kindReadLocal
	kindUpdate
	kindAppend
	kindMulti
)

// clusterSpans assembles up to traceCap of the traces a deployment holds,
// spread evenly over the trial, and adds the benchmark's own span to each.
func clusterSpans(d *cluster.Deployment, r *run, procs []*cluster.Client) []trace.Span {
	ids := d.Trace.TraceIDs(0)
	step := max(1, (len(ids)+traceCap-1)/traceCap)
	var out []trace.Span
	for i := 0; i < len(ids); i += step {
		out = append(out, d.Trace.Trace(ids[i])...)
	}
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = fmt.Sprintf("client%d", p.ID) // the name cluster gives a client's recorder
	}
	return attachOps(out, r, names)
}

// ---- MRP-Store ----

type storeSpec struct {
	partitions int
	records    int
	mix        ycsb.Workload // 0 = updates only, uniform keys
	localReads bool          // reads go to one replica's read index, not through the ring
	recovery   bool          // crash and restart replica 3 of partition 1 during the window
}

// update is one attempt to overwrite a key, for the read-back check.
type update struct {
	id         uint64 // the value's operation number + 1
	start, end time.Time
	acked      bool
}

type storeTarget struct {
	r       *run
	spec    storeSpec
	d       *cluster.Deployment
	c       *cluster.StoreCluster
	clients []*store.Client
	procs   []*cluster.Client // the client processes under clients
	pool    *pool
	gen     *ycsb.Generator
	rng     *rand.Rand

	mu   sync.Mutex
	hist map[string][]update

	recovered chan struct{} // closed when the crash/restart plan has run
	catchupMs float64
	planErr   error
}

func bootStore(e *env, spec storeSpec) (target, error) {
	t := &storeTarget{
		r: e.r, spec: spec, rng: rand.New(rand.NewPCG(uint64(e.seed), 2)),
		hist: make(map[string][]update), d: cluster.NewDeployment(nil),
	}
	ok := false
	defer func() {
		if !ok {
			t.shutdown()
		}
	}()
	opts := cluster.StoreOptions{
		Partitions: spec.partitions, Replicas: 3,
		Ring: core.RingOptions{BatchBytes: packBytes},
	}
	if spec.recovery {
		opts.CheckpointEvery = 2000
		opts.RecoveryTimeout = 2 * time.Second
		opts.Ring.TrimInterval = 500 * time.Millisecond
	}
	var err error
	if t.c, err = t.d.StartStore(opts); err != nil {
		return nil, err
	}
	for i := 0; i < clientEndpoints; i++ {
		sc, proc, err := t.c.NewClient(netem.SiteLocal)
		if err != nil {
			return nil, err
		}
		sc.Timeout = opDeadline
		t.clients, t.procs = append(t.clients, sc), append(t.procs, proc)
	}
	if spec.mix != 0 {
		f, err := ycsb.NewFactory(ycsb.Config{Workload: spec.mix, Records: spec.records, Seed: e.seed})
		if err != nil {
			return nil, err
		}
		t.gen = f.Generator(0)
	}

	// Preload through consensus, one loader per partition.
	byGroup := t.clients[0].BatchByPartition(preloadOps(spec.records, t.rng.Uint64()))
	groups := t.c.Schema.Groups()
	err = parallelDo(len(groups), func(g int) error {
		ops := byGroup[groups[g]]
		for len(ops) > 0 {
			n := min(128, len(ops))
			res, err := t.clients[g%clientEndpoints].Batch(groups[g], ops[:n])
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			for _, r := range res {
				if r.Status != store.StatusOK {
					return fmt.Errorf("preload: insert status %s", r.Status)
				}
			}
			ops = ops[n:]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, found, err := t.clients[0].Read(ycsb.Key(0)); err != nil || !found {
		return nil, fmt.Errorf("readiness read: found=%v err=%v", found, err)
	}
	if e.r.traced {
		t.d.SetTraceSampling(uint64(e.traceEvery))
	}
	t.pool = newPool(e.r, clientEndpoints, t.do)
	ok = true
	return t, nil
}

func preloadOps(records int, tag uint64) []store.Op {
	ops := make([]store.Op, records)
	for i := range ops {
		ops[i] = store.Op{Kind: store.OpInsert, Key: ycsb.Key(i), Value: payload(0, tag)}
	}
	return ops
}

func (t *storeTarget) start(i int) {
	j := job{i: i, kind: kindUpdate}
	if t.gen != nil {
		op := t.gen.Next()
		j.key = op.Key
		if op.Type == ycsb.OpRead {
			j.kind = kindRead
			if t.spec.localReads {
				j.kind = kindReadLocal
			}
		}
	} else {
		j.key = ycsb.Key(t.rng.IntN(t.spec.records))
	}
	if j.kind == kindUpdate {
		t.r.class[i] = classWrite
	}
	t.pool.submit(j)
}

func (t *storeTarget) do(client int, j job) bool {
	cl := t.clients[client]
	switch j.kind {
	case kindRead:
		v, found, err := cl.Read(j.key)
		return err == nil && found && len(v) == payloadLen
	case kindReadLocal:
		v, found, err := cl.ReadLocal(j.key)
		return err == nil && found && len(v) == payloadLen
	default:
		u := update{id: uint64(j.i) + 1, start: time.Now()}
		err := cl.Update(j.key, payload(u.id, 0))
		u.end, u.acked = time.Now(), err == nil
		t.mu.Lock()
		t.hist[j.key] = append(t.hist[j.key], u)
		t.mu.Unlock()
		return err == nil
	}
}

// atWindow schedules the fault of store-recovery: replica 3 of partition 1
// crashes a quarter into the window and restarts at half. Catch-up runs
// from the Restart call until the victim has applied to within 64
// instances of replica 2.
func (t *storeTarget) atWindow(window time.Duration) {
	if !t.spec.recovery {
		return
	}
	t.recovered = make(chan struct{})
	go func() {
		defer close(t.recovered)
		time.Sleep(window / 4)
		t.c.Crash(1, 3)
		time.Sleep(window / 4)
		began := time.Now()
		if err := t.c.Restart(1, 3); err != nil {
			t.planErr = fmt.Errorf("restart: %w", err)
			return
		}
		for time.Since(began) < 5*time.Second {
			victim := t.c.Server(1, 3).Replica().AppliedVector()[1]
			peer := t.c.Server(1, 2).Replica().AppliedVector()[1]
			if victim+64 >= peer {
				t.catchupMs = float64(time.Since(began)) / 1e6
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.planErr = fmt.Errorf("restarted replica did not catch up within 5 s")
	}()
}

func (t *storeTarget) samples() []obs.Sample { return t.d.Obs.Samples() }

func (t *storeTarget) layer() map[string]float64 {
	var stall, wait time.Duration
	for p := 1; p <= t.spec.partitions; p++ {
		for r := 1; r <= 3; r++ {
			if s := t.c.Server(p, r); s != nil {
				stall = max(stall, s.Replica().CheckpointStallMax())
				wait = max(wait, s.Replica().ReadWait().Quantile(0.99))
			}
		}
	}
	return map[string]float64{
		"recovery.ckpt_stall_max_ms": float64(stall) / 1e6,
		"recovery.catchup_ms":        t.catchupMs,
		"smr.read_wait_p99_ms":       float64(wait) / 1e6,
	}
}

func (t *storeTarget) tracedSpans() []trace.Span { return clusterSpans(t.d, t.r, t.procs) }

// check: every touched key reads back a value no acknowledged update
// supersedes, and each partition's replicas hold byte-identical state.
func (t *storeTarget) check() error {
	t.pool.stop()
	if t.recovered != nil {
		<-t.recovered
		if t.planErr != nil {
			return t.planErr
		}
	}
	keys := make([]string, 0, len(t.hist))
	for k := range t.hist {
		keys = append(keys, k)
	}
	err := parallelDo(len(keys), func(i int) error {
		v, found, err := t.clients[i%clientEndpoints].Read(keys[i])
		if err != nil || !found || len(v) != payloadLen {
			return fmt.Errorf("read back %q: found=%v len=%d err=%v", keys[i], found, len(v), err)
		}
		return lastWriteWins(keys[i], binary.LittleEndian.Uint64(v), t.hist[keys[i]])
	})
	if err != nil {
		return err
	}
	for p := 1; p <= t.spec.partitions; p++ {
		if err := t.replicasAgree(p); err != nil {
			return err
		}
	}
	return nil
}

// lastWriteWins checks the final value of a key against its update
// history: it must come from an update that no acknowledged update began
// after. Updates that overlap in time may be ordered either way, and one
// that was never acknowledged may or may not have been applied.
func lastWriteWins(key string, final uint64, hist []update) error {
	var winner *update
	for i := range hist {
		if hist[i].id == final {
			winner = &hist[i]
		}
	}
	for _, u := range hist {
		switch {
		case !u.acked:
		case winner == nil:
			return fmt.Errorf("key %q: holds value %d, acknowledged update %d lost", key, final, u.id)
		case winner.acked && u.start.After(winner.end):
			return fmt.Errorf("key %q: holds value %d, later acknowledged update %d lost", key, final, u.id)
		}
	}
	return nil
}

// replicasAgree waits for partition p to quiesce and compares snapshots.
func (t *storeTarget) replicasAgree(p int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		ref := t.c.Server(p, 1).SM().Snapshot()
		same := true
		for r := 2; r <= 3; r++ {
			same = same && bytes.Equal(ref, t.c.Server(p, r).SM().Snapshot())
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("partition %d: replica snapshots differ after quiesce", p)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (t *storeTarget) shutdown() {
	if t.pool != nil {
		t.pool.stop()
	}
	for i, c := range t.clients {
		c.Close()
		t.procs[i].Close()
	}
	t.d.Close()
}

// ---- dLog ----

var dlogLogs = []dlog.LogID{1, 2}

// appended is one acknowledged append, for the position checks.
type appended struct {
	pos, id uint64
}

type dlogTarget struct {
	r       *run
	d       *cluster.Deployment
	c       *cluster.DLogCluster
	clients []*dlog.Client
	procs   []*cluster.Client // the client processes under clients
	pool    *pool
	rng     *rand.Rand

	mu     sync.Mutex
	logs   map[dlog.LogID][]appended
	missed bool // an append was not acknowledged, so positions may have gaps
}

func bootDLog(e *env) (target, error) {
	t := &dlogTarget{
		r: e.r, rng: rand.New(rand.NewPCG(uint64(e.seed), 3)),
		logs: make(map[dlog.LogID][]appended), d: cluster.NewDeployment(nil),
	}
	ok := false
	defer func() {
		if !ok {
			t.shutdown()
		}
	}()
	var err error
	t.c, err = t.d.StartDLog(cluster.DLogOptions{
		Logs: len(dlogLogs), Servers: 3, Global: true, M: 1,
		Ring: core.RingOptions{SkipEnabled: true, Delta: 5 * time.Millisecond, Lambda: 9000},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < clientEndpoints; i++ {
		dc, proc, err := t.c.NewClient()
		if err != nil {
			return nil, err
		}
		dc.Timeout = opDeadline
		t.clients, t.procs = append(t.clients, dc), append(t.procs, proc)
	}
	// Readiness: one multi-append crosses all three rings.
	if !t.do(0, job{i: -1, kind: kindMulti}) {
		return nil, fmt.Errorf("readiness multi-append failed")
	}
	if e.r.traced {
		t.d.SetTraceSampling(uint64(e.traceEvery))
	}
	t.pool = newPool(e.r, clientEndpoints, t.do)
	ok = true
	return t, nil
}

func (t *dlogTarget) start(i int) {
	j := job{i: i, kind: kindAppend}
	t.r.class[i] = classWrite
	if t.rng.IntN(10) == 0 {
		j.kind = kindMulti
		t.r.class[i] = classMulti
	}
	t.pool.submit(j)
}

func (t *dlogTarget) do(client int, j job) bool {
	id := uint64(j.i + 1)
	pos := make(map[dlog.LogID]uint64, len(dlogLogs))
	var err error
	if j.kind == kindMulti {
		pos, err = t.clients[client].MultiAppend(dlogLogs, payload(id, 0))
	} else {
		l := dlogLogs[j.i%len(dlogLogs)]
		pos[l], err = t.clients[client].Append(l, payload(id, 0))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.missed = true
		return false
	}
	for l, p := range pos {
		t.logs[l] = append(t.logs[l], appended{p, id})
	}
	return true
}

func (t *dlogTarget) samples() []obs.Sample     { return t.d.Obs.Samples() }
func (t *dlogTarget) layer() map[string]float64 { return nil }
func (t *dlogTarget) tracedSpans() []trace.Span { return clusterSpans(t.d, t.r, t.procs) }

// check: acknowledged positions are unique per log, dense when nothing
// was missed, and a spread of them read back the payload appended there.
func (t *dlogTarget) check() error {
	t.pool.stop()
	for _, l := range dlogLogs {
		as := t.logs[l]
		sort.Slice(as, func(i, j int) bool { return as[i].pos < as[j].pos })
		for k := 1; k < len(as); k++ {
			if as[k].pos == as[k-1].pos {
				return fmt.Errorf("log %d: position %d returned twice", l, as[k].pos)
			}
			if !t.missed && as[k].pos != as[k-1].pos+1 {
				return fmt.Errorf("log %d: gap between positions %d and %d", l, as[k-1].pos, as[k].pos)
			}
		}
		step := max(1, len(as)/readBack)
		err := parallelDo(len(as)/step, func(k int) error {
			a := as[k*step]
			v, err := t.clients[k%clientEndpoints].Read(l, a.pos)
			if err != nil || len(v) != payloadLen || binary.LittleEndian.Uint64(v) != a.id {
				return fmt.Errorf("log %d position %d: read back does not match append %d (err=%v)", l, a.pos, a.id, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *dlogTarget) shutdown() {
	if t.pool != nil {
		t.pool.stop()
	}
	for _, p := range t.procs {
		p.Close()
	}
	t.d.Close()
}
