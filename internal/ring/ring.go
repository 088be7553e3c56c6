// Package ring implements Ring Paxos: atomic broadcast over a
// unidirectional ring overlay, as described in Section 4 of the paper and
// originally in Marandi et al. (DSN 2012), in the TCP-only variant this
// paper introduces (no IP-multicast).
//
// All processes of a ring — proposers, acceptors, learners — are arranged
// in a logical ring. Consensus on a sequence of instances is reached with
// an optimized Paxos:
//
//   - Phase 1 is pre-executed once per coordinator term for all instances.
//   - A proposer sends its value to the coordinator (the first alive
//     acceptor of the ring).
//   - The coordinator assigns the value a consensus instance and forwards a
//     combined Phase 2A/2B message — proposal plus its own vote — to its
//     successor.
//   - Each acceptor durably logs its vote *before* forwarding (required for
//     recovery, Section 5.1) and increments the vote count; non-acceptors
//     forward verbatim.
//   - The acceptor whose vote completes a majority replaces the message
//     with a Decision that circulates one full loop so every process
//     learns the value and its decision.
//
// Skip values (rate leveling, Section 4) decide Count consecutive null
// instances in a single consensus instance; learners deliver them as
// Deliveries with Value.Skip set so Multi-Ring Paxos can advance its
// deterministic merge.
package ring

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/metrics"
	"amcast/internal/storage"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// Delivery is one decided consensus instance handed to the application (or
// to the Multi-Ring Paxos merge layer) in instance order.
type Delivery struct {
	Ring     transport.RingID
	Instance uint64
	Value    transport.Value
}

// deliveryBatchCap is the target size of one delivery batch: the learner
// coalesces contiguous decided instances into batches of at most this many
// entries.
const deliveryBatchCap = 256

// Config configures a ring node.
type Config struct {
	// Ring is the ring (multicast group) identifier.
	Ring transport.RingID
	// Self is this process's identifier.
	Self transport.ProcessID
	// Router delivers this process's incoming messages.
	Router *transport.Router
	// Coord is the coordination service holding the ring configuration.
	Coord *coord.Service
	// Log is the acceptor's stable vote log. Required for acceptors.
	Log storage.Log

	// Window bounds outstanding undecided instances at the coordinator.
	Window int
	// MaxPending bounds the coordinator's queued proposals.
	MaxPending int
	// RetryInterval is how often the coordinator re-proposes undecided
	// instances and learners chase delivery gaps.
	RetryInterval time.Duration
	// deliverBuffer caps the delivery queue's lag: every entry queued and
	// not yet taken (TakeBatch) counts. A consumer that falls further
	// behind than this transitions the learner to catch-up
	// (retransmit-path redelivery) instead of blocking the protocol event
	// loop.
	deliverBuffer int

	// SkipEnabled turns on rate leveling (Section 4).
	SkipEnabled bool
	// Delta is the rate-leveling interval (paper: 5 ms LAN, 20 ms WAN).
	Delta time.Duration
	// Lambda is the maximum expected message rate per second (paper:
	// 9000 LAN, 2000 WAN).
	Lambda int

	// TrimInterval enables coordinator-driven log trimming (Section 5.2).
	// Zero disables it.
	TrimInterval time.Duration

	// BatchBytes enables message packing: the coordinator packs queued
	// proposals into one consensus instance up to this many payload
	// bytes (paper: 32 KB packets). Zero disables batching, as in the
	// Figure 3 baseline.
	BatchBytes int

	// Wake, when set, is poked (a non-blocking send) for every batch
	// queued and once at the stream's end, so one consumer can wait on
	// several rings at once (the Multi-Ring Paxos merge).
	Wake chan<- struct{}

	// StartInstance makes the learner begin in-order delivery at this
	// instance, skipping everything below. Replica recovery uses it to
	// resume after an installed checkpoint (Section 5.2).
	StartInstance uint64
	// StartFromPeer marks a StartInstance taken from a peer's checkpoint.
	// This node never learned the instances below it, and its log may
	// still hold votes there that a higher ballot overrode: it serves
	// none of them to a catch-up learner.
	StartFromPeer bool

	// Tracer, when set, records distributed-tracing spans for values
	// whose frames carry a sampled trace context (internal/trace). Nil
	// disables all trace accounting on this node at zero cost.
	Tracer *trace.Recorder

	// CommitFailureBudget bounds consecutive failed group commits before
	// the acceptor steps out loudly: it marks itself down in the
	// coordination service so the surviving quorum routes around it,
	// instead of silently retrying a dead disk forever. The retained
	// batch keeps retrying; if the log recovers the node marks itself up
	// again. Zero or less means the default (32).
	CommitFailureBudget int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Window == 0 {
		out.Window = 256
	}
	if out.MaxPending == 0 {
		out.MaxPending = 16384
	}
	if out.RetryInterval == 0 {
		out.RetryInterval = 100 * time.Millisecond
	}
	if out.deliverBuffer == 0 {
		out.deliverBuffer = 8192
	}
	if out.Delta == 0 {
		out.Delta = 5 * time.Millisecond
	}
	if out.Lambda == 0 {
		out.Lambda = 9000
	}
	if out.CommitFailureBudget <= 0 {
		out.CommitFailureBudget = 32
	}
	return out
}

// Errors returned by ProposeValueTraced.
var (
	ErrNoCoordinator = errors.New("ring: no coordinator elected")
	ErrOverloaded    = errors.New("ring: proposal queue full")
	ErrStopped       = errors.New("ring: node stopped")
)

// Node is one process's participation in one ring. A process participates
// in several rings by creating one Node per ring over a shared Router.
type Node struct {
	cfg  Config
	id   transport.ProcessID
	ring transport.RingID
	tr   transport.Transport
	in   *transport.Inbox

	watch       <-chan coord.RingConfig
	cancelWatch func()

	// pending accumulates the next batch of contiguous decided instances
	// (run-loop owned) and batchFree recycles consumed batch buffers so
	// the hot path does not allocate per batch.
	pending   []Delivery
	batchFree chan []Delivery

	// Delivery queue (delivery.go): the run loop appends finished batches
	// to dqueue (bounded by deliverBuffer entries, tracked in dlag) and
	// the consumer pops them with TakeBatch.
	dmu       sync.Mutex
	dqueue    [][]Delivery
	dhead     int // index of the next batch to take (O(1) pops)
	dlag      int
	dclosed   bool
	lastValue atomic.Uint64 // see LastValue

	// Catch-up state: catchupNext (written only by the run loop; atomic
	// so FlowStats can read the watermark) is the next instance the
	// consumer still needs after a buffer overrun; inCatchup mirrors the
	// mode for concurrent readers. catchupRR rotates retransmission
	// targets and catchupUnavailFrom records which peers reported the
	// range unservable (abort once every live peer acceptor did).
	catchupNext        atomic.Uint64
	inCatchup          atomic.Bool
	catchupRR          int
	catchupUnavailFrom map[transport.ProcessID]bool

	// Flow-control instrumentation (atomics; read by FlowStats).
	overruns       atomic.Uint64
	catchupDropped atomic.Uint64
	catchupServed  atomic.Uint64
	catchupAborted atomic.Uint64
	shedCount      atomic.Uint64
	skipReqCount   atomic.Uint64
	skipAwaited    atomic.Uint64
	onDemandCount  atomic.Uint64

	// Run-loop owned: px is the Paxos state the loop drives and out the
	// reused output of its steps; drain measures how fast the proposal
	// queue empties (the Overloaded retry-after hint).
	px    paxosState
	out   paxosOut
	drain drainMeter

	// mu guards rc, the configuration ProposeValueTraced reads from other goroutines.
	mu sync.Mutex
	rc coord.RingConfig

	// Group-commit staging (run-loop owned): steps stage durable votes
	// into walBatch and outbound messages into stagedSends; at the end
	// of each drained burst commitStaged issues one Log.PutBatch — one
	// buffered write + one fsync for the burst under SyncEveryPut — and
	// only then releases the staged sends, preserving the paper's "log
	// before forward" invariant (Section 5.1) at batch granularity.
	walBatch    []storage.Record
	stagedSends []transport.Message
	// walBufs holds the pooled buffers backing walBatch's records; they
	// recycle once the group commit lands (the log copies records).
	// burstRefs holds the read-block and interned-payload references of
	// the burst being drained, released after the burst's commit+flush.
	walBufs   []*bufpool.Buf
	burstRefs []*bufpool.Buf
	batchTr   transport.BatchSender // non-nil when tr coalesces writes
	// commitWedged is set while a group commit has failed and its batch
	// is retained for retry: sends were dropped, no event that reads the
	// log is fed, and delivery release is withheld until the log accepts
	// the batch, so neither messages nor deliveries ever outrun
	// durability. cfgPending marks a configuration change (stored in rc)
	// the Paxos state has yet to apply: it reads the log.
	commitWedged bool
	cfgPending   bool
	// commitFails counts consecutive failed group commits (run-loop
	// owned); at CommitFailureBudget the node steps out (self MarkDown).
	commitFails int
	steppedOut  bool // run-loop owned mirror of steppedOutFlag

	// WAL-health instrumentation (atomics; read by WALHealth).
	commitFailCount atomic.Uint64
	steppedOutFlag  atomic.Bool
	lastCommitErr   atomic.Value // string

	walGauge  metrics.BatchGauge
	sendGauge metrics.BatchGauge
	// Coordinator-side packing instrumentation, written at the propose
	// point: messages per proposed non-skip instance, and the proposals
	// left queued behind the window.
	packGauge  metrics.BatchGauge
	queueDepth metrics.Gauge

	// Tracing (telemetry-only): tracer records spans, tags parks the
	// sampled contexts riding incoming frames keyed by value id, and
	// stagedTraces (run-loop owned) queues wal-commit spans for the
	// burst currently staged for group commit.
	tracer       *trace.Recorder
	tags         *traceTags
	stagedTraces []stagedTrace

	// Counters for instrumentation (atomic; read by Stats).
	decidedCount atomic.Uint64
	skippedCount atomic.Uint64

	done     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
}

// New creates and starts a ring node. The ring must already exist in the
// coordination service and Self must be one of its members.
func New(cfg Config) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	go n.run()
	return n, nil
}

// newNode builds a node with its durable state recovered and its initial
// configuration applied, but does not start its loop: white-box tests feed
// a not-yet-running node directly.
func newNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	rc, ok := cfg.Coord.Ring(cfg.Ring)
	if !ok {
		return nil, fmt.Errorf("ring: ring %d not registered", cfg.Ring)
	}
	roles := rc.Roles(cfg.Self)
	if roles == 0 {
		return nil, fmt.Errorf("ring: process %d is not a member of ring %d", cfg.Self, cfg.Ring)
	}
	if roles.Has(coord.RoleAcceptor) && cfg.Log == nil {
		return nil, fmt.Errorf("ring: acceptor %d needs a stable log", cfg.Self)
	}
	watch, cancel := cfg.Coord.Watch(cfg.Ring)
	n := &Node{
		rc:          rc,
		cfg:         cfg,
		id:          cfg.Self,
		ring:        cfg.Ring,
		tr:          cfg.Router.Transport(),
		in:          cfg.Router.Ring(cfg.Ring),
		watch:       watch,
		cancelWatch: cancel,
		pending:     make([]Delivery, 0, deliveryBatchCap),
		batchFree:   make(chan []Delivery, 32),
		px:          newPaxosState(cfg, cfg.Log, time.Now()),
		done:        make(chan struct{}),
		loopDone:    make(chan struct{}),
		tracer:      cfg.Tracer,
	}
	if n.tracer != nil {
		n.tags = newTraceTags()
	}
	n.drain.rate = metrics.NewEWMA(drainRateAlpha)
	n.batchTr, _ = n.tr.(transport.BatchSender)
	// Apply the initial configuration before accepting traffic, so
	// proposals arriving immediately after startup find the coordinator
	// role already established. Anything staged here (a coordinator's
	// initial Phase 1A) is committed by the run loop before it first
	// blocks.
	n.feed(&paxosEvent{kind: evConfig, cfg: rc})
	return n, nil
}

// IOGauges returns the node's group-commit instrumentation: the size
// distribution of WAL batches (records per PutBatch) and of staged send
// batches (messages per transport flush).
func (n *Node) IOGauges() (wal, send *metrics.BatchGauge) {
	return &n.walGauge, &n.sendGauge
}

// PackGauge returns the coordinator's message-packing instrumentation
// (Section 4): the distribution of application messages per proposed
// non-skip instance. Empty on nodes that never coordinated.
func (n *Node) PackGauge() *metrics.BatchGauge { return &n.packGauge }

// ReleaseBatch returns a batch obtained from TakeBatch to the node's
// buffer pool and drops the entries' pooled payload references. The caller
// must not touch the slice afterwards; on pooled transports payload bytes
// may recycle once every holder has released, so consumers that keep a
// payload past this call must copy it first (see Value.Buf).
func (n *Node) ReleaseBatch(b []Delivery) {
	if cap(b) == 0 {
		return
	}
	for i := range b {
		b[i].Value.Buf.Release()
		b[i] = Delivery{} // drop payload references held by the pooled array
	}
	select {
	case n.batchFree <- b[:0]:
	default: // pool full; let the GC take it
	}
}

// getBatch returns an empty batch buffer, reusing a released one if
// available.
func (n *Node) getBatch() []Delivery {
	select {
	case b := <-n.batchFree:
		return b
	default:
		return make([]Delivery, 0, deliveryBatchCap)
	}
}

// ProposeValueTraced multicasts a fully formed value (caller-chosen id)
// on this ring: the value goes to the ring's coordinator, which assigns
// it a consensus instance. Reconfiguration markers need the caller's id:
// every learner must know it before the value is proposed. When ctx is
// sampled the proposal frame carries it as an optional trailing header
// and this node records the "forward" hop (the client-side send of the
// value toward the ring's coordinator).
func (n *Node) ProposeValueTraced(v transport.Value, ctx trace.Context) error {
	select {
	case <-n.done:
		return ErrStopped
	default:
	}
	n.mu.Lock()
	coordID := n.rc.Coordinator
	n.mu.Unlock()
	if coordID == 0 {
		return ErrNoCoordinator
	}
	m := transport.Message{
		Kind:  transport.KindProposal,
		Ring:  n.ring,
		Value: v,
		// Seq carries the ORIGINAL proposer: the transport restamps From
		// at every hop, so a proposal forwarded to the real coordinator
		// would otherwise have its admission-control reply (Overloaded)
		// routed to the forwarder instead of the client.
		Seq: uint64(n.id),
	}
	if n.tracer != nil && ctx.Sampled() {
		n.tags.put(v.ID, ctx)
		m.Traces = append(m.Traces, transport.TraceRef{ValueID: v.ID, Ctx: ctx})
		n.tracer.Add(ctx, "forward", uint32(n.ring), 0, v.ID, time.Now(), 0)
	}
	return n.tr.Send(coordID, m) //lint:allow logbeforeforward a proposal is no vote: there is nothing to log before it leaves (reached from the smr client's loop)
}

// Stats reports instance counters (decided includes skipped).
func (n *Node) Stats() (decided, skipped uint64) {
	return n.decidedCount.Load(), n.skippedCount.Load()
}

// WALHealth reports group-commit failure accounting: total failed commits,
// whether the node has stepped out of the membership over a persistent WAL
// failure (see Config.CommitFailureBudget), and the most recent commit
// error (empty when the log has never failed).
func (n *Node) WALHealth() (failures uint64, steppedOut bool, lastErr string) {
	if e, ok := n.lastCommitErr.Load().(string); ok {
		lastErr = e
	}
	return n.commitFailCount.Load(), n.steppedOutFlag.Load(), lastErr
}

// Stop shuts down the node. Pending deliveries may be lost.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.cancelWatch()
		close(n.done)
		<-n.loopDone
		// The run loop ended the stream on its way out. What the consumer
		// has not taken by now is dropped — Stop's documented lossy
		// semantics — so a node whose deliveries were never consumed
		// leaves no pooled buffers outstanding.
		n.releaseQueuedBatches()
	})
}
