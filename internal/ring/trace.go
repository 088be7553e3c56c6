package ring

import (
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/trace"
	"amcast/internal/transport"
)

// Trace-context plumbing. The ring protocol's queues (pendingQ, learned,
// inFlight) and its log store values, not Messages, so the sampled trace
// contexts that arrive as optional frame headers are parked in a bounded
// value-id-keyed tag table and re-attached when the value leaves the
// node again (Phase 2, Decision, retransmission). All of it is
// telemetry: the table is best-effort (FIFO eviction) and never feeds
// protocol state.

// tagTableCap bounds the per-node tag table. At a 1% sampling rate this
// covers hundreds of thousands of in-flight proposals; entries evict
// FIFO, so a lost tag merely truncates one trace, never blocks a value.
const tagTableCap = 8192

type traceTags struct {
	// any flips to true on the first put and stays there: until a sampled
	// context has reached this node, every per-value lookup (five hooks
	// per instance, one per inner value of a packet) is skipped without
	// touching the mutex.
	any  atomic.Bool
	mu   sync.Mutex
	m    map[uint64]trace.Context
	fifo []uint64
}

func newTraceTags() *traceTags {
	return &traceTags{m: make(map[uint64]trace.Context, 64)}
}

func (t *traceTags) put(id uint64, ctx trace.Context) {
	if t == nil || id == 0 || !ctx.Sampled() {
		return
	}
	t.mu.Lock()
	if _, ok := t.m[id]; !ok {
		if len(t.fifo) >= tagTableCap {
			delete(t.m, t.fifo[0])
			t.fifo = t.fifo[1:]
		}
		t.fifo = append(t.fifo, id)
	}
	t.m[id] = ctx
	t.mu.Unlock()
	t.any.Store(true)
}

// empty reports that no sampled context was ever parked here.
func (t *traceTags) empty() bool { return t == nil || !t.any.Load() }

func (t *traceTags) get(id uint64) (trace.Context, bool) {
	if t == nil || id == 0 {
		return trace.Context{}, false
	}
	t.mu.Lock()
	ctx, ok := t.m[id]
	t.mu.Unlock()
	return ctx, ok
}

// TraceContextOf returns the sampled trace context this node has seen
// for a value id, if any. The Multi-Ring Paxos merge uses it to stamp
// deliveries (telemetry-only; never protocol state).
func (n *Node) TraceContextOf(id uint64) (trace.Context, bool) {
	return n.tags.get(id)
}

// ingestTraces parks the sampled contexts riding an incoming message.
func (n *Node) ingestTraces(m *transport.Message) {
	if n.tracer == nil || len(m.Traces) == 0 {
		return
	}
	for _, tr := range m.Traces {
		n.tags.put(tr.ValueID, tr.Ctx)
	}
}

// traceWalk iterates the sampled contexts attached to a value's id — or,
// for a message-packed value, to each inner value id. It is an iterator
// rather than a callback so the per-instance hooks below walk a packet
// without a heap-allocated closure:
//
//	for w := n.traces(v); ; {
//		id, ctx, ok := w.next()
//		if !ok {
//			break
//		}
//		...
//	}
//
// The zero value yields nothing.
type traceWalk struct {
	tags *traceTags
	id   uint64              // pending id of an unpacked value (0 = none)
	it   transport.BatchIter // remaining inner values of a packed one
}

// traces starts a walk over v's sampled contexts.
func (n *Node) traces(v transport.Value) traceWalk {
	if n.tracer == nil || n.tags.empty() {
		return traceWalk{}
	}
	if v.Batched {
		return traceWalk{tags: n.tags, it: transport.IterBatch(v.Data)}
	}
	return traceWalk{tags: n.tags, id: v.ID}
}

// next returns the next sampled (value id, context) pair.
func (w *traceWalk) next() (uint64, trace.Context, bool) {
	if id := w.id; id != 0 {
		w.id = 0
		ctx, ok := w.tags.get(id)
		return id, ctx, ok
	}
	for {
		iv, ok := w.it.Next()
		if !ok {
			return 0, trace.Context{}, false
		}
		if ctx, ok := w.tags.get(iv.Value.ID); ok {
			return iv.Value.ID, ctx, true
		}
	}
}

// attachTraces re-attaches v's parked contexts to an outgoing message
// built fresh from it (Phase 2, Decision). Forwarded messages keep their
// decoded Traces and need no re-attachment.
func (n *Node) attachTraces(m *transport.Message, v transport.Value) {
	for w := n.traces(v); ; {
		id, ctx, ok := w.next()
		if !ok {
			return
		}
		m.Traces = append(m.Traces, transport.TraceRef{ValueID: id, Ctx: ctx})
	}
}

// attachBatchTraces re-attaches parked contexts for the values of a
// retransmission batch, so the catch-up path re-delivers trace context
// along with the decided values it replays.
func (n *Node) attachBatchTraces(m *transport.Message) {
	if n.tracer == nil || n.tags.empty() {
		return
	}
	for it := transport.IterBatch(m.Payload); ; {
		iv, ok := it.Next()
		if !ok {
			return
		}
		n.attachTraces(m, iv.Value)
	}
}

// spanNow records a point span (zero duration) for every sampled
// context on v: the value passed through hop `name` at this node.
func (n *Node) spanNow(name string, inst uint64, v transport.Value) {
	var now time.Time
	for w := n.traces(v); ; {
		id, ctx, ok := w.next()
		if !ok {
			return
		}
		if now.IsZero() {
			now = time.Now()
		}
		n.tracer.Add(ctx, name, uint32(n.ring), inst, id, now, 0)
	}
}

// stagedTrace remembers a sampled vote staged for the current burst's
// group commit, so commitStaged can record one wal-commit span per
// traced value covering the PutBatch (and its fsync) the vote waited on.
type stagedTrace struct {
	id   uint64
	inst uint64
	ctx  trace.Context
}

// traceStagedVote queues wal-commit spans for a vote being staged.
func (n *Node) traceStagedVote(inst uint64, v transport.Value) {
	for w := n.traces(v); ; {
		id, ctx, ok := w.next()
		if !ok {
			return
		}
		n.stagedTraces = append(n.stagedTraces, stagedTrace{id: id, inst: inst, ctx: ctx})
	}
}
