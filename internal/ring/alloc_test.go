package ring

import (
	"testing"

	"amcast/internal/coord"
	"amcast/internal/storage"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// discardLog accepts every write and keeps nothing, so the pins below
// charge the ring's own code, not a log's copy of each record.
type discardLog struct{}

func (discardLog) Put(uint64, []byte) error        { return nil }
func (discardLog) PutBatch([]storage.Record) error { return nil }
func (discardLog) Get(uint64) ([]byte, bool)       { return nil, false }
func (discardLog) Trim(uint64) error               { return nil }
func (discardLog) FirstRetained() uint64           { return 0 }
func (discardLog) Last() uint64                    { return 0 }
func (discardLog) Sync() error                     { return nil }
func (discardLog) Close() error                    { return nil }

// soloCoordinator is a one-acceptor ring (the vote decides at once) whose
// member does not learn, so a burst runs consume → pack → vote → group
// commit → decide and ends with nothing handed to a delivery stage.
func soloCoordinator(t *testing.T) *Node {
	n, _ := quietCoordinator(t, 1, coord.RoleProposer|coord.RoleAcceptor, func(cfg *Config) {
		cfg.BatchBytes = 32 << 10
		cfg.Log = discardLog{}
		cfg.Tracer = trace.NewRecorder("p1", 0)
	})
	return n
}

// TestPackBurstAllocs pins the coordinator's hot path once warm: sixteen
// one-KB proposals consumed as a burst, the propose point and the group
// commit allocate nothing — the flight table holds its entries by value
// and reuses its own slots, and once the vote is logged nothing holds the
// packet's buffer, so it recycles.
func TestPackBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	n := soloCoordinator(t)
	id := uint64(0)
	burst := func() {
		for i := 0; i < 16; i++ {
			id++
			n.consume(pooledProposal(id, 1<<10))
		}
		n.feed(&paxosEvent{kind: evPropose})
		n.commitStaged()
		n.releaseBurst()
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	if got := n.px.nextInstance - 1; got != 64 {
		t.Fatalf("%d instances for 64 bursts: the burst is not packed into one", got)
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("a packed burst of 16 allocates %.2f times, want 0", allocs)
	}
}

// discardTransport sends nothing anywhere, so the pin below charges the
// ring's own code, not a transport's copy of each frame.
type discardTransport struct{ recv chan transport.Message }

func (discardTransport) ID() transport.ProcessID                           { return 2 }
func (d discardTransport) Recv() <-chan transport.Message                  { return d.recv }
func (discardTransport) Send(transport.ProcessID, transport.Message) error { return nil }
func (discardTransport) SendBatch([]transport.Message) error               { return nil }
func (discardTransport) Close() error                                      { return nil }

// TestAcceptorBurstAllocs pins a warm acceptor-learner's hot path: process 2
// of a three-acceptor ring takes sixteen Phase 2 messages as a burst, votes
// on each (the vote that decides), sends each Decision on, learns the
// instances, hands them to the delivery stage, and its consumer takes and
// releases the batch — without allocating.
func TestAcceptorBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	tr := discardTransport{recv: make(chan transport.Message)}
	t.Cleanup(func() { close(tr.recv) }) // after the node stopped: ends its router
	n, _ := idleNode(t, ringService(t, 3, fullRoles), 2, func(cfg *Config) {
		cfg.Router = transport.NewRouter(tr)
		cfg.Log = discardLog{}
		cfg.Tracer = trace.NewRecorder("p2", 0)
	})
	inst := uint64(0)
	burst := func() {
		for i := 0; i < 16; i++ {
			inst++
			m := pooledProposal(inst, 1<<10)
			m.Kind, m.From, m.Ballot, m.Instance, m.Votes = transport.KindPhase2, 1, 1, inst, 1
			n.consume(m)
		}
		tick(n, evPropose)
		n.commitStaged()
		n.handoffPending()
		n.releaseBurst()
		for b, _ := n.TakeBatch(); b != nil; b, _ = n.TakeBatch() {
			n.ReleaseBatch(b)
		}
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	if decided, _ := n.Stats(); decided != inst || n.px.nextDeliver != inst+1 {
		t.Fatalf("decided %d, delivering from %d, after %d Phase 2 messages", decided, n.px.nextDeliver, inst)
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("an acceptor burst of 16 allocates %.2f times, want 0", allocs)
	}
}

// TestPackBatchAllocs: sizing the packet in the queue and encoding it from
// the queue into the pooled buffer allocates nothing.
func TestPackBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	n := soloCoordinator(t)
	payload := make([]byte, 1<<10)
	pack := func() {
		for id := uint64(1); id <= 16; id++ {
			n.px.pendingQ.push(transport.Value{ID: id, Count: 1, Data: payload})
		}
		v, packed := n.px.packBatch()
		if packed != 16 || !v.Batched {
			t.Fatalf("packed %d (batched=%v), want 16", packed, v.Batched)
		}
		v.Buf.Release()
	}
	pack()
	if allocs := testing.AllocsPerRun(200, pack); allocs != 0 {
		t.Errorf("packBatch allocates %.2f times per packet, want 0", allocs)
	}
}

// TestTraceWalkAllocs: the per-instance trace hooks walk a packed value
// without allocating when none of its ids is sampled — both before any
// sampled context reached the node and after.
func TestTraceWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	n := soloCoordinator(t)
	var batch []transport.InstanceValue
	for id := uint64(1); id <= 16; id++ {
		batch = append(batch, transport.InstanceValue{Value: transport.Value{ID: id, Count: 1, Data: make([]byte, 64)}})
	}
	packed := transport.Value{ID: 1, Batched: true, Count: 1, Data: transport.EncodeBatch(batch)}
	hooks := func() {
		var m transport.Message
		n.spanNow("vote", 1, packed)
		n.traceStagedVote(1, packed)
		n.attachTraces(&m, packed)
		if len(m.Traces) != 0 || len(n.stagedTraces) != 0 {
			t.Fatal("unsampled packet produced trace output")
		}
	}
	if allocs := testing.AllocsPerRun(200, hooks); allocs != 0 {
		t.Errorf("trace hooks allocate %.2f times on an untraced node, want 0", allocs)
	}
	n.tags.put(999, trace.Context{TraceID: 1, SpanID: 1, Flags: trace.FlagSampled})
	if n.tags.empty() {
		t.Fatal("sampled context was not parked")
	}
	if allocs := testing.AllocsPerRun(200, hooks); allocs != 0 {
		t.Errorf("trace hooks allocate %.2f times walking a packet with no sampled id, want 0", allocs)
	}
}
