package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/obs"
	"amcast/internal/storage"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

const (
	mcastNodes = 3
	mcastRing  = transport.RingID(1)
	packBytes  = 32 << 10 // coordinator message packing, the paper's 32 KB
	// walFlushEvery is the period of the WAL's background fsync. The WAL
	// holds its lock while it syncs, so at its default of 10 ms a slow disk
	// still reaches one put in ten.
	walFlushEvery = time.Second
)

// delivered is one entry of a learner's delivery sequence. id is the
// payload's operation number + 1; readiness messages carry 0 and are left
// out.
type delivered struct {
	instance, id uint64
}

// mcastTarget is the ordering substrate alone: three core.Node processes
// holding every role of one ring, no service on top. Node 1 proposes and
// its learner stops the clock.
type mcastTarget struct {
	r     *run
	rng   *rand.Rand
	nodes [mcastNodes]*core.Node
	recs  [mcastNodes]*trace.Recorder
	reg   *obs.Registry
	close []func()

	mu   sync.Mutex // guards seqs; each learner appends from its own merge goroutine
	seqs [mcastNodes][]delivered
	// Delivery batches and messages seen by node 1's handler.
	batches, msgs atomic.Uint64

	ready     chan struct{} // closed when node 1 delivers a readiness message
	readyOnce sync.Once

	spanMu   sync.Mutex
	spans    map[spanKey]trace.Span
	harvestC chan struct{}
	harvestW sync.WaitGroup
}

type spanKey struct {
	process string
	id      uint64
}

// bootMcast wires the three nodes over the in-process Network with
// in-memory logs, or over loopback TCP with WALs under dir that are synced
// in the background.
func bootMcast(e *env, tcp bool) (target, error) {
	t := &mcastTarget{
		r: e.r, rng: rand.New(rand.NewPCG(uint64(e.seed), 1)),
		reg: obs.NewRegistry(), ready: make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			t.shutdown()
		}
	}()

	svc := coord.NewService()
	var members []coord.Member
	for id := 1; id <= mcastNodes; id++ {
		members = append(members, coord.Member{
			ID:    transport.ProcessID(id),
			Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
		})
	}
	if err := svc.CreateRing(mcastRing, members); err != nil {
		return nil, err
	}

	var trs [mcastNodes]transport.Transport
	if tcp {
		var tcps [mcastNodes]*transport.TCPNode
		for i := range tcps {
			n, err := transport.ListenTCP(transport.ProcessID(i+1), "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			tcps[i], trs[i] = n, n
			t.close = append(t.close, func() { _ = n.Close() })
			obs.RegisterTransport(t.reg, procName(i), n)
		}
		for _, n := range tcps {
			// Every node registers itself too: a TCPNode drops sends to
			// an unregistered self without a word, and the coordinator
			// sends to itself.
			for _, peer := range tcps {
				n.SetPeer(peer.ID(), peer.Addr())
			}
		}
	} else {
		net := transport.NewNetwork(nil)
		t.close = append(t.close, net.Close)
		for i := range trs {
			trs[i] = net.Attach(transport.ProcessID(i+1), netem.SiteLocal)
		}
	}

	for i := range t.nodes {
		t.recs[i] = trace.NewRecorder(procName(i), 0)
		cfg := core.Config{
			Self:   transport.ProcessID(i + 1),
			Router: transport.NewRouter(trs[i]),
			Coord:  svc,
			Ring:   core.RingOptions{BatchBytes: packBytes},
			Tracer: t.recs[i],
		}
		if tcp {
			cfg.NewLog = func(ring transport.RingID) (storage.Log, error) {
				dir := filepath.Join(e.dir, fmt.Sprintf("wal-%d-%d", ring, i+1))
				// Asynchronous disk writes, the paper's other durable mode.
				// With SyncEveryPut every vote waits for an fsync of the
				// host's shared disk, whose latency drifts by half within
				// a minute (README.md), and the gate then measures the disk.
				wal, err := storage.OpenWAL(dir, storage.WALOptions{Mode: storage.SyncPeriodic, FlushInterval: walFlushEvery})
				if err != nil {
					return nil, err
				}
				t.close = append(t.close, func() { _ = wal.Close() })
				lbl := map[string]string{"process": procName(i), "ring": ringLabel(ring)}
				t.reg.Counter("mrp.wal.fsyncs_total", lbl, func() float64 { return float64(wal.Fsyncs()) })
				return wal, nil
			}
		}
		node, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		t.nodes[i] = node
		if err := node.Join(mcastRing); err != nil {
			return nil, err
		}
		if err := node.SubscribeBatch(func(ds []core.Delivery) { t.deliver(i, ds) }, mcastRing); err != nil {
			return nil, err
		}
		registerNode(t.reg, procName(i), node, mcastRing)
	}
	obs.RegisterBufPool(t.reg)

	// Readiness: multicast until node 1 delivers. Multicast does not
	// promise delivery, and the first sends over TCP can be lost while
	// the connections are set up (a node's dial to itself races with its
	// own accept loop). The retry is short because it is part of the boot
	// time: at 20 ms, one boot in four took 23, 44 or 64 ms instead of 3.
	deadline := time.Now().Add(5 * time.Second)
	for ready := false; !ready; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("readiness message not delivered")
		}
		if err := t.nodes[0].Multicast(mcastRing, make([]byte, payloadLen)); err != nil {
			return nil, err
		}
		select {
		case <-t.ready:
			ready = true
		case <-time.After(2 * time.Millisecond):
		}
	}

	if e.r.traced {
		t.recs[0].SetSampling(uint64(e.traceEvery))
		t.spans = make(map[spanKey]trace.Span)
		t.harvestC = make(chan struct{})
		t.harvestW.Add(1)
		go t.harvestLoop()
	}
	ok = true
	return t, nil
}

func procName(i int) string               { return "node" + strconv.Itoa(i+1) }
func ringLabel(g transport.RingID) string { return strconv.FormatUint(uint64(g), 10) }

// registerNode publishes a bare core.Node's ring counters under the names
// the cluster package uses for its processes, so one derivation reads all
// six workloads.
func registerNode(reg *obs.Registry, proc string, n *core.Node, g transport.RingID) {
	lbl := map[string]string{"process": proc, "ring": ringLabel(g)}
	stall := func() core.RingStall {
		for _, s := range n.MergeStalls() {
			if s.Ring == g {
				return s
			}
		}
		return core.RingStall{}
	}
	reg.Counter("mrp.ring.decided_total", lbl, func() float64 { d, _, _ := n.RingStats(g); return float64(d) })
	reg.Counter("mrp.ring.skipped_total", lbl, func() float64 { _, s, _ := n.RingStats(g); return float64(s) })
	reg.Counter("mrp.flow.overruns_total", lbl, func() float64 { fs, _ := n.RingFlowStats(g); return float64(fs.Overruns) })
	reg.Counter("mrp.flow.shed_proposals_total", lbl, func() float64 { fs, _ := n.RingFlowStats(g); return float64(fs.ShedProposals) })
	reg.Counter("mrp.merge.stall_seconds_total", lbl, func() float64 { return stall().Total.Seconds() })
	reg.Gauge("mrp.merge.stall_max_seconds", lbl, func() float64 { return stall().Max.Seconds() })
	reg.Gauge("mrp.wal.batch_items_mean", lbl, func() float64 { w, _ := n.RingIOGauges(g); return w.Mean() })
	reg.Gauge("mrp.send.batch_items_mean", lbl, func() float64 { _, s := n.RingIOGauges(g); return s.Mean() })
}

// payload builds a fresh 1 KB message: the in-process Network passes
// slices by reference, so a buffer is never reused.
func payload(id uint64, tag uint64) []byte {
	p := make([]byte, payloadLen)
	binary.LittleEndian.PutUint64(p, id)
	binary.LittleEndian.PutUint64(p[8:], tag)
	return p
}

func (t *mcastTarget) start(i int) {
	t.r.class[i] = classWrite
	p := payload(uint64(i)+1, t.rng.Uint64())
	ctx := t.recs[0].StartRoot()
	var began time.Time
	if ctx.Sampled() {
		began = time.Now()
	}
	err := t.nodes[0].MulticastValueTraced(mcastRing, 0, p, ctx)
	if ctx.Sampled() {
		t.recs[0].Add(ctx, spanSend, uint32(mcastRing), 0, 0, began, time.Since(began))
	}
	if err != nil {
		t.r.done(i, false)
	}
}

// deliver is learner i's delivery handler.
func (t *mcastTarget) deliver(i int, ds []core.Delivery) {
	now := time.Now()
	seq := make([]delivered, 0, len(ds))
	for _, d := range ds {
		id := binary.LittleEndian.Uint64(d.Data)
		if id == 0 {
			t.readyOnce.Do(func() { close(t.ready) })
			continue
		}
		seq = append(seq, delivered{d.Instance, id})
		if i != 0 {
			continue
		}
		t.r.done(int(id-1), true)
		if d.Trace.Sampled() {
			due := t.r.due(int(id - 1))
			t.recs[0].Record(trace.Span{
				TraceID: d.Trace.TraceID, SpanID: d.Trace.SpanID, Name: spanOp,
				Ring: uint32(d.Group), Instance: d.Instance, ValueID: d.ValueID,
				Start: due, Duration: now.Sub(due),
			})
		}
	}
	if i == 0 {
		t.batches.Add(1)
		t.msgs.Add(uint64(len(ds)))
	}
	t.mu.Lock()
	t.seqs[i] = append(t.seqs[i], seq...)
	t.mu.Unlock()
}

func (t *mcastTarget) samples() []obs.Sample { return t.reg.Samples() }

func (t *mcastTarget) layer() map[string]float64 {
	return map[string]float64{
		"core.delivery_batch_mean": float64(t.msgs.Load()) / float64(max(1, t.batches.Load())),
	}
}

// harvestLoop copies the recorders' rings out before they wrap: at 1 in
// 20 of 10 000 msgs/s node 1 records about 3 000 spans a second into
// 4 096 slots.
func (t *mcastTarget) harvestLoop() {
	defer t.harvestW.Done()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.harvest()
		case <-t.harvestC:
			t.harvest()
			return
		}
	}
}

func (t *mcastTarget) harvest() {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	for _, rec := range t.recs {
		for _, s := range rec.Spans() {
			t.spans[spanKey{s.Process, s.SpanID}] = s
		}
	}
}

func (t *mcastTarget) tracedSpans() []trace.Span {
	close(t.harvestC)
	t.harvestW.Wait()
	t.harvestC = nil
	out := make([]trace.Span, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, s)
	}
	return out
}

// check: the three learners delivered identical (instance, id) sequences
// and every id that was sent appears exactly once.
func (t *mcastTarget) check() error {
	want := t.r.n
	deadline := time.Now().Add(2 * time.Second)
	for {
		t.mu.Lock()
		short := len(t.seqs[0]) < want || len(t.seqs[1]) < want || len(t.seqs[2]) < want
		t.mu.Unlock()
		if !short || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make([]bool, want+1)
	for k, d := range t.seqs[0] {
		if d.id > uint64(want) || seen[d.id] {
			return fmt.Errorf("learner 1 position %d: id %d out of range or delivered twice", k, d.id)
		}
		seen[d.id] = true
	}
	if len(t.seqs[0]) != want {
		return fmt.Errorf("learner 1 delivered %d of %d messages", len(t.seqs[0]), want)
	}
	for l := 1; l < mcastNodes; l++ {
		if len(t.seqs[l]) != want {
			return fmt.Errorf("learner %d delivered %d of %d messages", l+1, len(t.seqs[l]), want)
		}
		for k := range t.seqs[0] {
			if t.seqs[l][k] != t.seqs[0][k] {
				return fmt.Errorf("learner %d diverges from learner 1 at position %d: %v vs %v", l+1, k, t.seqs[l][k], t.seqs[0][k])
			}
		}
	}
	return nil
}

func (t *mcastTarget) shutdown() {
	if t.harvestC != nil {
		close(t.harvestC)
		t.harvestW.Wait()
	}
	for _, n := range t.nodes {
		if n != nil {
			n.Stop()
		}
	}
	for i := len(t.close) - 1; i >= 0; i-- {
		t.close[i]()
	}
}
