package ring

import (
	"sync"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// White-box tests of the coordinator's single propose point. They drive
// the handlers of a node whose loops are not running — consume, then the
// tail of one event-loop iteration (endBurst) — over a transport that
// only records, so what was packed into which instance is a function of
// the test's inputs, not of how a burst happened to arrive.

// sentMsg is what a sinkTransport keeps of one outbound message: the
// node recycles a staged send's pooled payload right after the send
// returns, so the packet is unpacked at send time.
type sentMsg struct {
	kind     transport.Kind
	instance uint64          // of a KindOverloaded reply: the retry-after hint in ms
	value    transport.Value // Data and Buf dropped
	ids      []uint64        // value ids carried, in packet order
}

// sinkTransport is a stand-in transport that records every send and
// delivers nothing.
type sinkTransport struct {
	id   transport.ProcessID
	recv chan transport.Message

	mu   sync.Mutex
	sent []sentMsg
}

var _ transport.BatchSender = (*sinkTransport)(nil)

func newSinkTransport(id transport.ProcessID) *sinkTransport {
	return &sinkTransport{id: id, recv: make(chan transport.Message)}
}

func (s *sinkTransport) ID() transport.ProcessID        { return s.id }
func (s *sinkTransport) Recv() <-chan transport.Message { return s.recv }
func (s *sinkTransport) Close() error                   { close(s.recv); return nil }
func (s *sinkTransport) SendBatch(msgs []transport.Message) error {
	for i := range msgs {
		_ = s.Send(msgs[i].To, msgs[i])
	}
	return nil
}

func (s *sinkTransport) Send(_ transport.ProcessID, m transport.Message) error {
	rec := sentMsg{kind: m.Kind, instance: m.Instance, value: m.Value}
	rec.value.Data, rec.value.Buf = nil, nil
	if m.Value.Batched {
		batch, err := transport.DecodeBatch(m.Value.Data)
		if err != nil {
			panic(err)
		}
		for _, iv := range batch {
			rec.ids = append(rec.ids, iv.Value.ID)
		}
	} else {
		rec.ids = []uint64{m.Value.ID}
	}
	s.mu.Lock()
	s.sent = append(s.sent, rec)
	s.mu.Unlock()
	return nil
}

// take returns and forgets the recorded sends of one kind.
func (s *sinkTransport) take(kind transport.Kind) []sentMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out, rest []sentMsg
	for _, m := range s.sent {
		if m.kind == kind {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	s.sent = rest
	return out
}

// quietCoordinator builds process 1 of a ring of `members` processes (all
// holding `roles`) as an idleNode, with Phase 1 completed by hand.
func quietCoordinator(t *testing.T, members int, roles coord.Role, tweak func(*Config)) (*Node, *sinkTransport) {
	t.Helper()
	n, sink := idleNode(t, ringService(t, members, roles), 1, tweak)
	if members > 1 {
		// The startup Phase 1A comes back around the ring with a promise
		// from every acceptor.
		endBurst(n, transport.Message{
			Kind: transport.KindPhase1A, Ring: 1, Ballot: n.px.ballot,
			Instance: n.px.nextDeliver, Votes: uint32(members),
		})
		sink.take(transport.KindPhase1A)
	}
	if !n.px.phase1Ready {
		t.Fatal("coordinator's Phase 1 did not complete")
	}
	return n, sink
}

// ringService registers ring 1 with processes 1..members holding roles.
func ringService(t *testing.T, members int, roles coord.Role) *coord.Service {
	t.Helper()
	svc := coord.NewService()
	var ms []coord.Member
	for i := 1; i <= members; i++ {
		ms = append(ms, coord.Member{ID: transport.ProcessID(i), Roles: roles})
	}
	if err := svc.CreateRing(1, ms); err != nil {
		t.Fatal(err)
	}
	return svc
}

// idleNode builds process self of ring 1 over a sinkTransport and a
// MemLog (tweak may replace either setting), with its loop not started.
// Cleanup starts the loop and stops the node, so every reference the test
// left in run-loop state is dropped by the node's own exit path.
func idleNode(t *testing.T, svc *coord.Service, self transport.ProcessID, tweak func(*Config)) (*Node, *sinkTransport) {
	t.Helper()
	sink := newSinkTransport(self)
	cfg := Config{
		Ring: 1, Self: self, Router: transport.NewRouter(sink), Coord: svc,
		Log: storage.NewMemLog(), RetryInterval: time.Hour,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := newNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		go n.run()
		n.Stop()
		_ = sink.Close()
	})
	return n, sink
}

// endBurst feeds msgs to the node as one drained burst and runs the rest
// of the event-loop iteration: the single propose point, the group
// commit, the delivery handoff and the burst's reference release.
func endBurst(n *Node, msgs ...transport.Message) {
	for _, m := range msgs {
		n.consume(m)
	}
	tick(n, evPropose)
	n.commitStaged()
	n.handoffPending()
	n.releaseBurst()
}

// tick feeds the node one event of kind — the retry tick at the current
// time, the Δ tick, the propose point — as the event loop does.
func tick(n *Node, kind paxosEventKind) {
	n.feed(&paxosEvent{kind: kind, now: time.Now()})
}

// pooledProposal is a client proposal whose payload sits in a pooled
// buffer, as one interned from a TCP read block does: the message carries
// the creation reference, which consume parks with the burst.
func pooledProposal(id uint64, size int) transport.Message {
	buf := bufpool.Get(size)
	data := buf.Bytes()
	for i := range data {
		data[i] = byte(id)
	}
	return transport.Message{
		Kind: transport.KindProposal, Ring: 1, From: 99,
		Value: transport.Value{ID: id, Count: 1, Data: data, Buf: buf},
	}
}

// decisionFor is the Decision of an in-flight instance arriving back at
// the coordinator (originated by process 2).
func decisionFor(n *Node, inst uint64) transport.Message {
	v := n.px.inFlight[inst].value
	v.Buf.Retain() // the reference a transport hands over with the message
	return transport.Message{Kind: transport.KindDecision, Ring: 1, Instance: inst, Value: v, Seq: 2}
}

// expectOutstanding fails the test if, after every later-registered
// cleanup ran (the node stopped), the pool's ledger is not back where it
// was: a queue reference a packet consumed but never released — or
// released twice, which panics — shows here.
func expectOutstanding(t *testing.T) {
	t.Helper()
	before := bufpool.Outstanding()
	t.Cleanup(func() {
		if got := bufpool.Outstanding(); got != before {
			t.Errorf("pooled buffers outstanding = %d, want %d", got, before)
		}
	})
}

func flatten(msgs []sentMsg) (ids []uint64) {
	for _, m := range msgs {
		ids = append(ids, m.ids...)
	}
	return ids
}

const fullRoles = coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner

// TestCoordinatorPacksDrainedBurst: N proposals consumed in one burst
// become ⌈N·size/BatchBytes⌉ instances at the one propose point, in
// head-of-line order, never more than Window at a time.
func TestCoordinatorPacksDrainedBurst(t *testing.T) {
	expectOutstanding(t)
	const (
		count      = 100
		size       = 1 << 10
		batchBytes = 32 << 10
		window     = 3
	)
	n, sink := quietCoordinator(t, 3, fullRoles, func(cfg *Config) {
		cfg.BatchBytes = batchBytes
		cfg.Window = window
	})
	var burst []transport.Message
	for id := uint64(1); id <= count; id++ {
		burst = append(burst, pooledProposal(id, size))
	}
	endBurst(n, burst...)

	// 100 KB wants four packets; the window admits three.
	phase2 := sink.take(transport.KindPhase2)
	if len(phase2) != window || len(n.px.inFlight) != window {
		t.Fatalf("proposed %d instances (%d in flight), want the window's %d", len(phase2), len(n.px.inFlight), window)
	}
	for i, m := range phase2 {
		if m.instance != uint64(i+1) || !m.value.Batched || len(m.ids) != batchBytes/size {
			t.Fatalf("instance %d: number %d, batched=%v, %d values; want a full packet of %d", i+1, m.instance, m.value.Batched, len(m.ids), batchBytes/size)
		}
	}
	left := count - window*batchBytes/size
	if n.px.pendingQ.len() != left || n.FlowStats().QueueDepth != left {
		t.Fatalf("queued = %d (gauge %d), want %d", n.px.pendingQ.len(), n.FlowStats().QueueDepth, left)
	}

	// A decision frees a slot; the propose point of that burst fills it.
	endBurst(n, decisionFor(n, 1))
	rest := sink.take(transport.KindPhase2)
	if len(rest) != 1 || len(rest[0].ids) != left || rest[0].instance != window+1 {
		t.Fatalf("after one decision: %+v, want instance %d carrying %d values", rest, window+1, left)
	}
	want := (count*size + batchBytes - 1) / batchBytes
	if got := int(n.px.nextInstance - 1); got != want {
		t.Fatalf("instances used = %d, want ⌈%d·%d/%d⌉ = %d", got, count, size, batchBytes, want)
	}
	for i, id := range flatten(append(phase2, rest...)) {
		if id != uint64(i+1) {
			t.Fatalf("value %d sits at position %d: head-of-line order broken", id, i)
		}
	}
	if batches, items := n.PackGauge().Snapshot(); batches != uint64(want) || items != count {
		t.Fatalf("pack gauge saw %d instances / %d messages, want %d / %d", batches, items, want, count)
	}
	if n.px.pendingQ.len() != 0 || n.FlowStats().QueueDepth != 0 {
		t.Fatalf("queue not drained: %d", n.px.pendingQ.len())
	}
}

// TestPackingBoundaries: a value larger than BatchBytes travels alone and
// unpacked, a Skip is never packed (neither as head nor behind one), and
// packing resumes behind both.
func TestPackingBoundaries(t *testing.T) {
	expectOutstanding(t)
	const batchBytes = 32 << 10
	n, sink := quietCoordinator(t, 3, fullRoles, func(cfg *Config) { cfg.BatchBytes = batchBytes })
	skip := transport.Message{
		Kind: transport.KindProposal, Ring: 1, From: 99,
		Value: transport.Value{ID: 7, Skip: true, Count: 3},
	}
	endBurst(n,
		pooledProposal(1, 1<<10), pooledProposal(2, 1<<10), pooledProposal(3, 1<<10),
		pooledProposal(4, 40<<10),
		pooledProposal(5, 1<<10), pooledProposal(6, 1<<10),
		skip,
		pooledProposal(8, 1<<10), pooledProposal(9, 1<<10),
	)
	type shape struct {
		instance uint64
		batched  bool
		skip     bool
		ids      []uint64
	}
	want := []shape{
		{1, true, false, []uint64{1, 2, 3}},
		{2, false, false, []uint64{4}},
		{3, true, false, []uint64{5, 6}},
		{4, false, true, []uint64{7}},
		{7, true, false, []uint64{8, 9}}, // the skip spans instances 4..6
	}
	got := sink.take(transport.KindPhase2)
	if len(got) != len(want) {
		t.Fatalf("proposed %d instances, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.instance != w.instance || g.value.Batched != w.batched || g.value.Skip != w.skip || len(g.ids) != len(w.ids) {
			t.Fatalf("instance %d = %+v, want %+v", i, g, w)
		}
		for j := range w.ids {
			if g.ids[j] != w.ids[j] {
				t.Fatalf("instance %d carries %v, want %v", i, g.ids, w.ids)
			}
		}
	}
	// The skip counts neither as a packed instance nor toward λ.
	if batches, items := n.PackGauge().Snapshot(); batches != 4 || items != 8 {
		t.Fatalf("pack gauge saw %d instances / %d messages, want 4 / 8", batches, items)
	}
	if n.px.proposedInWin != 4 {
		t.Fatalf("proposedInWin = %d, want 4 (instances, skips excluded)", n.px.proposedInWin)
	}
}

// TestPackedVoteWedgedThenRecovered: the log rejects the burst that
// carries a packed vote. The packed Phase 2 must not leave the node, the
// packet must stay in the flight table and the retained WAL batch, and
// once the log accepts writes again the retry path sends the same packet —
// whose decision then delivers every message once, in queue order.
func TestPackedVoteWedgedThenRecovered(t *testing.T) {
	expectOutstanding(t)
	fl := newFailLog(storage.NewMemLog())
	n, sink := quietCoordinator(t, 3, fullRoles, func(cfg *Config) {
		cfg.BatchBytes = 32 << 10
		cfg.Log = fl
	})
	fl.fail()
	var burst []transport.Message
	for id := uint64(1); id <= 16; id++ {
		burst = append(burst, pooledProposal(id, 1<<10))
	}
	endBurst(n, burst...)
	if got := sink.take(transport.KindPhase2); len(got) != 0 {
		t.Fatalf("un-logged packed vote left the node: %+v", got)
	}
	if !n.commitWedged || len(n.walBatch) == 0 {
		t.Fatalf("commit not wedged with the vote retained (wedged=%v, staged records=%d)", n.commitWedged, len(n.walBatch))
	}
	f, inFlight := n.px.inFlight[1]
	var staged transport.Value
	for _, r := range n.walBatch {
		if r.Instance == 1 {
			if _, _, v, err := decodeAccept(r.Data); err == nil {
				staged = v
			}
		}
	}
	if !inFlight || !f.value.Batched || !staged.Batched || len(n.px.inFlight) != 1 {
		t.Fatalf("packet not held for retry: inFlight=%v staged vote=%+v", n.px.inFlight, staged)
	}
	if _, ok := fl.Get(1); ok {
		t.Fatal("rejected vote reached the log")
	}

	// The log recovers; the retry tick finds the instance overdue.
	fl.heal()
	f.lastSent = time.Time{}
	n.px.inFlight[1] = f
	tick(n, evRetry)
	endBurst(n)
	got := sink.take(transport.KindPhase2)
	if len(got) != 1 || got[0].instance != 1 || len(got[0].ids) != 16 {
		t.Fatalf("after recovery: %+v, want instance 1 carrying 16 values", got)
	}
	rec, ok := fl.Get(1)
	if !ok {
		t.Fatal("packed Phase 2 sent before its vote was durable")
	}
	_, _, logged, err := decodeAccept(rec)
	if err != nil || !logged.Batched {
		t.Fatalf("logged vote %+v (err %v), want the packet", logged, err)
	}
	if n.commitWedged {
		t.Fatal("still wedged after the retained batch committed")
	}

	// Decided: one delivery entry carries the packet, messages in queue
	// order, and nothing is delivered twice when the decision loops again.
	endBurst(n, decisionFor(n, 1))
	endBurst(n, transport.Message{Kind: transport.KindDecision, Ring: 1, Instance: 1, Value: logged, Seq: 2})
	n.dmu.Lock()
	var delivered []Delivery
	for _, b := range n.dqueue[n.dhead:] {
		delivered = append(delivered, b...)
	}
	n.dmu.Unlock()
	if len(delivered) != 1 || delivered[0].Instance != 1 {
		t.Fatalf("delivered %+v, want the one packed instance", delivered)
	}
	batch, err := transport.DecodeBatch(delivered[0].Value.Data)
	if err != nil || len(batch) != 16 {
		t.Fatalf("delivered packet: %d values, err %v", len(batch), err)
	}
	for i, iv := range batch {
		if iv.Value.ID != uint64(i+1) || len(iv.Value.Data) != 1<<10 || iv.Value.Data[0] != byte(i+1) {
			t.Fatalf("delivered value %d = id %d: queue order or payload lost", i, iv.Value.ID)
		}
	}
}

// TestOverloadHintTracksDrainTime: a coordinator packing 8 messages per
// instance under MaxPending pressure tells shed proposers to back off for
// about the time its queue really takes to drain — messages, not
// instances, per second — whether or not rate leveling runs. The truth it
// is compared with is measured by the test on the same clock.
func TestOverloadHintTracksDrainTime(t *testing.T) {
	for _, skips := range []bool{false, true} {
		name := "skips-off"
		if skips {
			name = "skips-on"
		}
		t.Run(name, func(t *testing.T) {
			expectOutstanding(t)
			const (
				size       = 256
				perPacket  = 8
				maxPending = 400
			)
			n, sink := quietCoordinator(t, 3, fullRoles, func(cfg *Config) {
				cfg.BatchBytes = perPacket * size
				cfg.Window = 1
				cfg.MaxPending = maxPending
				cfg.SkipEnabled = skips
			})
			id := uint64(0)
			var start time.Time
			var startMsgs uint64
			for round := 0; round < 150; round++ {
				// Refill the queue to MaxPending plus one proposal to shed,
				// and decide what is in flight (one ring circulation).
				var burst []transport.Message
				for i := n.px.pendingQ.len(); i <= maxPending; i++ {
					id++
					burst = append(burst, pooledProposal(id, size))
				}
				for inst := range n.px.inFlight {
					burst = append(burst, decisionFor(n, inst))
				}
				if skips {
					tick(n, evDelta)
				}
				endBurst(n, burst...)
				if round == 0 {
					// The meter's first window opens at the first dequeue.
					start = time.Now()
					_, startMsgs = n.PackGauge().Snapshot()
				}
				time.Sleep(time.Millisecond)
			}
			elapsed := time.Since(start)
			_, msgs := n.PackGauge().Snapshot()
			dequeued := msgs - startMsgs
			sink.take(transport.KindPhase2)
			shed := sink.take(transport.KindOverloaded)
			if len(shed) == 0 {
				t.Fatal("no proposal was shed")
			}
			trueDrain := time.Duration(float64(maxPending) / (float64(dequeued) / elapsed.Seconds()) * float64(time.Second))
			hint := time.Duration(shed[len(shed)-1].instance) * time.Millisecond
			if packed := n.PackGauge().Mean(); packed < perPacket-1 {
				t.Fatalf("packing %.1f per instance, want %d: the test does not exercise the bug", packed, perPacket)
			}
			t.Logf("hint %v, measured drain time %v (%d messages in %v)", hint, trueDrain, dequeued, elapsed)
			if hint < trueDrain/2 || hint > 2*trueDrain {
				t.Fatalf("retry-after hint %v, true queue-drain time %v (%d messages in %v): off by more than 2x", hint, trueDrain, dequeued, elapsed)
			}
		})
	}
}
