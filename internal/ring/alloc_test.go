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
		n.tryPropose()
		n.commitStaged()
		n.releaseBurst()
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	if got := n.nextInstance - 1; got != 64 {
		t.Fatalf("%d instances for 64 bursts: the burst is not packed into one", got)
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("a packed burst of 16 allocates %.2f times, want 0", allocs)
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
			n.pendingQ.push(transport.Value{ID: id, Count: 1, Data: payload})
		}
		v, packed := n.packBatch()
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
