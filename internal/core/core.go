// Package core implements Multi-Ring Paxos, the paper's primary
// contribution: an atomic multicast protocol composed of coordinated Ring
// Paxos instances (Section 4).
//
// Each multicast group γ maps 1:1 to a ring. The group-addressing
// semantics are "inverted" with respect to classical atomic multicast
// (Section 3): a client addresses exactly one group per multicast, and
// each server subscribes to any set of groups it is interested in — like
// IP multicast. The set of groups a replica subscribes to defines its
// partition (Section 5.2).
//
// Ordered delivery across groups uses deterministic merge: a learner
// subscribed to rings r1 < r2 < ... delivers messages decided in M
// consensus instances from r1, then M from r2, and so on, cyclically.
// Because merge order is a pure function of (subscription set, M, decided
// sequences, start position), any two learners with the same subscription
// deliver the same global sequence — atomic multicast's acyclic order
// property.
//
// Unbalanced group load would make everyone run at the slowest group's
// pace, so coordinators of slow rings fill their windows with skip
// instances (rate leveling, configured by Δ and λ); the merge layer
// consumes skips silently, advancing the round-robin.
//
// Delivery is synchronous and batch-at-a-time: SubscribeBatch takes a
// handler invoked inline by the merge goroutine with a batch of
// consecutive merged deliveries, so every layer above (SMR, MRP-Store,
// dLog) amortizes its per-message lock, dispatch and allocation costs over
// the batch. Batches are bounded by count and bytes (512 messages, 1 MB)
// and the merge hands a batch over whenever it would otherwise block
// waiting for a ring, so batching never adds latency. Checkpointing stays
// consistent: DeliveredVector and MergeCursor are published together once
// per batch and, inside the handler, exactly describe the state after the
// batch's last delivery — which is what Section 5.2's tuple-identified
// checkpoints require, now at batch boundaries.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/recovery"
	"amcast/internal/ring"
	"amcast/internal/storage"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// Delivery is one application message delivered by atomic multicast.
type Delivery struct {
	// Group the message was multicast to.
	Group transport.RingID
	// Instance is the consensus instance within the group's ring.
	Instance uint64
	// ValueID is the proposal's unique identifier.
	ValueID uint64
	// Data is the multicast payload.
	Data []byte
	// Trace is the sampled trace context that rode the value's frames
	// (zero for unsampled values). Telemetry only: it never influences
	// execution, responses or checkpoint bytes.
	Trace trace.Context
}

// BatchHandler consumes batches of deliveries in merged order. It runs on
// the merge goroutine; blocking it back-pressures the whole subscription.
// The slice is reused between calls — handlers must not retain it. On
// pooled transports (TCP), and for packed values on any transport, the
// payload bytes are backed by refcounted pool buffers that recycle after
// the handler returns, so handlers must also
// not retain Data: anything kept past the call (applied state, queued
// replies) must be copied. smr.Replica applies and replies synchronously
// inside the handler, so the contract holds there by construction.
type BatchHandler func([]Delivery)

// Delivery batches handed to batch subscribers are bounded by message
// count (LimitBatch may lower it per node) and by cumulative payload bytes.
const (
	maxBatchMessages = 512
	maxBatchBytes    = 1 << 20
)

// RingOptions tunes every ring this node participates in.
type RingOptions struct {
	// Window bounds outstanding undecided instances at coordinators.
	Window int
	// MaxPending bounds queued proposals at coordinators.
	//lint:allow testonly TestClientsRideOutTransientOverload and TestDLogClientRidesOutOverload (cluster) shrink it to provoke overload
	MaxPending int
	// RetryInterval drives coordinator re-proposals and gap chasing.
	RetryInterval time.Duration
	// SkipEnabled turns on rate leveling.
	SkipEnabled bool
	// Delta is the rate-leveling interval (paper: 5 ms LAN, 20 ms WAN).
	Delta time.Duration
	// Lambda is the maximum expected rate, msgs/s (paper: 9000 LAN,
	// 2000 WAN).
	Lambda int
	// TrimInterval enables coordinator-driven acceptor log trimming.
	TrimInterval time.Duration
	// BatchBytes enables coordinator message packing up to this many
	// payload bytes per consensus instance (paper: 32 KB).
	BatchBytes int
	// CommitFailureBudget bounds consecutive failed group commits before
	// an acceptor steps out of the membership (see
	// ring.Config.CommitFailureBudget). 0 or less = the default.
	CommitFailureBudget int
}

// Config configures a Multi-Ring Paxos node.
type Config struct {
	// Self is this process's identifier.
	Self transport.ProcessID
	// Router delivers this process's incoming messages.
	Router *transport.Router
	// Coord is the coordination service with ring configurations.
	Coord *coord.Service
	// NewLog builds the stable log for each ring this process accepts
	// in. Figure 6 attaches one disk per ring through this hook.
	// Defaults to in-memory logs. An error fails the Join — durability
	// requested but unavailable must not degrade silently. The core never
	// closes logs itself: they may be retained across restarts for
	// recovery.
	NewLog func(transport.RingID) (storage.Log, error)
	// M is the deterministic-merge quota: consensus instances delivered
	// per ring per round-robin turn. The paper uses M=1.
	M int
	// Ring tunes the per-ring protocol.
	Ring RingOptions
	// LambdaOverride raises or lowers the rate-leveling λ for specific
	// rings (e.g. a global ring whose skip stream must outrun the
	// partition rings so the deterministic merge never waits on it).
	LambdaOverride map[transport.RingID]int
	// StartVector resumes delivery after a recovered checkpoint: for
	// each subscribed group, delivery starts at StartVector[g]+1.
	StartVector recovery.Vector
	// StartFromPeer marks StartVector as a peer's checkpoint: no ring
	// serves retransmissions below its start from its log (see
	// ring.Config.StartFromPeer).
	StartFromPeer bool
	// StartCursor resumes the merge round-robin at the checkpointed
	// position. Zero value starts a fresh merge.
	StartCursor Cursor
	// Tracer, when set, records distributed-tracing spans for sampled
	// values on this process (per-value tracing, internal/trace). It is
	// shared with every ring this node joins. Nil disables tracing.
	Tracer *trace.Recorder
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.M == 0 {
		out.M = 1
	}
	if out.NewLog == nil {
		out.NewLog = func(transport.RingID) (storage.Log, error) { return storage.NewMemLog(), nil }
	}
	return out
}

// Errors returned by Node operations.
var (
	ErrNotMember     = errors.New("core: process is not a member of the ring")
	ErrNotSubscribed = errors.New("core: ring not joined with the learner role")
	ErrStopped       = errors.New("core: node stopped")
)

// Node is one process's Multi-Ring Paxos endpoint: it can multicast to any
// group and, after SubscribeBatch, delivers the merged ordered stream of all
// groups it subscribes to.
type Node struct {
	cfg   Config
	id    transport.ProcessID
	tr    transport.Transport
	coord *coord.Service

	mu         sync.Mutex
	rings      map[transport.RingID]*ring.Node
	subscribed []transport.RingID
	vector     recovery.Vector // delivered high-water marks
	cursor     Cursor          // merge position (updated by merge loop)
	merging    bool
	stopped    bool
	// dropped records rings removed by a past epoch transition. Their
	// delivery stream ended at the marker (ring.Node.DropDeliveries), so
	// re-subscribing one would silently skip instances; it is refused.
	dropped map[transport.RingID]bool

	// batchMessages bounds the messages per delivery batch: maxBatchMessages
	// unless LimitBatch lowered it before the merge started.
	batchMessages int

	mergeDone chan struct{}
	done      chan struct{}
	// wake is poked by every joined ring's delivery queue (ring.Config.Wake)
	// so a merge blocked on one ring still sees what the others deliver.
	wake chan struct{}

	proposeSeq atomic.Uint32
	delivered  atomic.Uint64

	// progressNs is the monotonic-clock nanosecond reading of the last
	// merge flush (vector/cursor publication). Skip values count: a
	// batch flushed after consuming only rate-leveling fillers still
	// proves the merge is live, which is exactly the signal
	// bounded-staleness follower reads need.
	progressNs atomic.Int64

	// boundary, when set, is invoked by the merge goroutine after every
	// batch-boundary flush — i.e. after the published vector's whole
	// prefix has been handed to (and processed by) the delivery
	// handler. Skip-only flushes fire it too, so a listener tracking
	// "state applied through instance k" stays current even when the
	// stream advances purely by rate-leveling fillers. Read-index local
	// reads key off this signal.
	boundary atomic.Pointer[func()]

	// resub is the armed epoch transition (nil when none): the merge
	// consumes it when it delivers the marker value. Written by
	// PrepareResubscribe, read per consensus instance by the merge.
	resub atomic.Pointer[resubRequest]

	// Merge stall telemetry: per-ring records of how long the
	// deterministic merge waited on each subscribed ring.
	stallMu sync.Mutex
	stalls  map[transport.RingID]*ringStallRec
}

// resubRequest is an armed subscription change.
type resubRequest struct {
	marker uint64
	groups []transport.RingID // ascending, deduplicated
}

// New creates a Multi-Ring Paxos node. Join rings and SubscribeBatch to start
// delivering.
func New(cfg Config) (*Node, error) {
	if cfg.Router == nil || cfg.Coord == nil {
		return nil, errors.New("core: Router and Coord are required")
	}
	c := cfg.withDefaults()
	return &Node{
		cfg:           c,
		id:            c.Self,
		tr:            c.Router.Transport(),
		coord:         c.Coord,
		rings:         make(map[transport.RingID]*ring.Node),
		vector:        make(recovery.Vector),
		batchMessages: maxBatchMessages,
		mergeDone:     make(chan struct{}),
		done:          make(chan struct{}),
		wake:          make(chan struct{}, 1),
	}, nil
}

// Join makes this process participate in a ring with the roles recorded in
// the coordination service (acceptor, proposer and/or learner).
func (n *Node) Join(ringID transport.RingID) error {
	rc, ok := n.coord.Ring(ringID)
	if !ok {
		return fmt.Errorf("core: ring %d not registered", ringID)
	}
	roles := rc.Roles(n.id)
	if roles == 0 {
		return ErrNotMember
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	if _, ok := n.rings[ringID]; ok {
		return nil // already joined
	}
	var log storage.Log
	if roles.Has(coord.RoleAcceptor) {
		var err error
		if log, err = n.cfg.NewLog(ringID); err != nil {
			return fmt.Errorf("core: open stable log for ring %d: %w", ringID, err)
		}
	}
	lambda := n.cfg.Ring.Lambda
	if l, ok := n.cfg.LambdaOverride[ringID]; ok {
		lambda = l
	}
	rn, err := ring.New(ring.Config{
		Ring:                ringID,
		Self:                n.id,
		Router:              n.cfg.Router,
		Coord:               n.coord,
		Log:                 log,
		Window:              n.cfg.Ring.Window,
		MaxPending:          n.cfg.Ring.MaxPending,
		RetryInterval:       n.cfg.Ring.RetryInterval,
		Wake:                n.wake,
		SkipEnabled:         n.cfg.Ring.SkipEnabled,
		Delta:               n.cfg.Ring.Delta,
		Lambda:              lambda,
		TrimInterval:        n.cfg.Ring.TrimInterval,
		BatchBytes:          n.cfg.Ring.BatchBytes,
		StartInstance:       n.cfg.StartVector[ringID] + 1,
		StartFromPeer:       n.cfg.StartFromPeer,
		CommitFailureBudget: n.cfg.Ring.CommitFailureBudget,
		Tracer:              n.cfg.Tracer,
	})
	if err != nil {
		return err
	}
	n.rings[ringID] = rn
	return nil
}

// SubscribeBatch declares the set of groups this process delivers from and
// starts the deterministic merge, invoking handler inline with batches of
// consecutive merged deliveries. All groups must be joined with the
// learner role. SubscribeBatch may be called once.
//
// Batches end at the configured count/byte bounds and whenever the merge
// would block waiting for a ring, so delivery latency is never traded for
// batch size. Bounds hold at consensus-instance granularity: an instance
// is never split across batches (the delivered vector is per-instance),
// so one message-packed instance may overshoot the bounds by its content.
// DeliveredVector and MergeCursor are updated atomically per batch:
// inside the handler they exactly describe the state after the batch's
// last delivery, which is what Section 5.2's tuple-identified checkpoints
// require.
func (n *Node) SubscribeBatch(handler BatchHandler, groups ...transport.RingID) error {
	if handler == nil {
		return errors.New("core: nil delivery handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	if n.merging {
		return errors.New("core: already subscribed")
	}
	if len(groups) == 0 {
		return errors.New("core: empty subscription")
	}
	set := make(map[transport.RingID]bool, len(groups))
	sorted := append([]transport.RingID(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var srcs []*ringSource
	for _, g := range sorted {
		if set[g] {
			return fmt.Errorf("core: duplicate group %d in subscription", g)
		}
		set[g] = true
		rn, ok := n.rings[g]
		if !ok {
			return ErrNotSubscribed
		}
		rc, _ := n.coord.Ring(g)
		if !rc.Roles(n.id).Has(coord.RoleLearner) {
			return ErrNotSubscribed
		}
		srcs = append(srcs, &ringSource{rn: rn})
		if _, ok := n.vector[g]; !ok {
			n.vector[g] = n.cfg.StartVector[g]
		}
	}
	// Restore or initialize the merge cursor.
	cur := n.cfg.StartCursor.Clone()
	if len(cur.Groups) == 0 {
		cur = Cursor{Groups: sorted, Credits: make([]uint64, len(sorted)), Epoch: n.cfg.StartCursor.Epoch}
	} else if !ringIDsEqual(cur.Groups, sorted) {
		return fmt.Errorf("core: cursor subscription mismatch: the checkpointed cursor (epoch %d) covers groups %v but the subscription requests %v; subscribe with the checkpointed group set (recovery restores the post-reconfiguration subscription) or discard the cursor to start a fresh merge", cur.Epoch, cur.Groups, sorted)
	}
	n.subscribed = sorted
	n.cursor = cur
	n.merging = true
	go n.merge(newMergeState(n.cfg.M, cur.Clone(), n.cfg.StartVector), srcs, handler)
	return nil
}

// PrepareResubscribe arms an epoch transition: when the merge delivers
// the application message whose value id equals marker, it ends the
// delivery batch at exactly that instance, switches the subscription to
// groups (ascending ring-id order), increments the cursor epoch and
// restarts the round-robin at the first group. Every group must already
// be joined with the learner role; groups absent from the current
// subscription start delivering from their join point, and groups dropped
// from it stop delivering right after the marker.
//
// Determinism contract: the marker must be armed at every learner of the
// partition BEFORE the marker value is multicast. A learner that delivers
// the marker unarmed treats it as an ordinary (opaque) message and keeps
// the old subscription, diverging from its peers; reconfig.Controller
// implements the prepare/ack handshake that upholds the contract.
func (n *Node) PrepareResubscribe(marker uint64, groups ...transport.RingID) error {
	if marker == 0 {
		return errors.New("core: resubscribe marker must be nonzero")
	}
	if len(groups) == 0 {
		return errors.New("core: empty resubscription")
	}
	sorted := append([]transport.RingID(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	if !n.merging {
		return errors.New("core: PrepareResubscribe requires an active subscription")
	}
	for i, g := range sorted {
		if i > 0 && sorted[i-1] == g {
			return fmt.Errorf("core: duplicate group %d in resubscription", g)
		}
		if n.dropped[g] {
			// A past transition dropped this ring and ended its
			// delivery stream at the marker; re-adding it would skip
			// the instances decided since and diverge from peers.
			// Re-join semantics need ring-level redelivery, which does
			// not exist yet.
			return fmt.Errorf("core: group %d was dropped by a previous epoch transition and cannot be re-added", g)
		}
		if _, ok := n.rings[g]; !ok {
			return fmt.Errorf("core: resubscription group %d: %w", g, ErrNotSubscribed)
		}
		rc, _ := n.coord.Ring(g)
		if !rc.Roles(n.id).Has(coord.RoleLearner) {
			return fmt.Errorf("core: resubscription group %d: %w", g, ErrNotSubscribed)
		}
	}
	// A new prepare REPLACES an armed-but-unfired transition rather than
	// rejecting it: a controller that died (or whose cancel message was
	// lost) between prepare and marker would otherwise wedge this
	// learner's reconfiguration until restart. Replacement is safe under
	// the one-active-controller protocol: a marker is only multicast
	// after every learner acked its prepare, so a replaced marker either
	// was never proposed (aborted prepare phase) or — having been armed
	// everywhere — already fired and cleared the pending slot; in both
	// cases no learner can deliver the replaced marker armed.
	n.resub.Store(&resubRequest{marker: marker, groups: sorted})
	return nil
}

// CancelResubscribe disarms a pending epoch transition whose marker
// matches (an aborted reconfiguration whose marker will never be
// multicast). Reports whether a pending transition was removed.
func (n *Node) CancelResubscribe(marker uint64) bool {
	p := n.resub.Load()
	if p == nil || p.marker != marker {
		return false
	}
	return n.resub.CompareAndSwap(p, nil)
}

func containsRing(ids []transport.RingID, g transport.RingID) bool {
	for _, x := range ids {
		if x == g {
			return true
		}
	}
	return false
}

func ringIDsEqual(a, b []transport.RingID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DeliveredVector snapshots the per-group delivered instance high-water
// marks (the tuple k_p of Section 5.2). Inside a delivery handler it
// reflects exactly the deliveries up to and including the current one, and
// satisfies Predicate 1 (x < y ⇒ k[x] ≥ k[y]) at merge-turn boundaries.
func (n *Node) DeliveredVector() recovery.Vector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vector.Clone()
}

// FoldDeliveredVector raises dst's entries to the delivered high-water
// marks (adding groups dst does not track yet) under the node lock,
// without allocating a copy: the per-batch form of DeliveredVector.
func (n *Node) FoldDeliveredVector(dst recovery.Vector) {
	n.mu.Lock()
	for g, k := range n.vector { //lint:allow determinism a per-group maximum: the result does not depend on the order
		if have, ok := dst[g]; !ok || k > have {
			dst[g] = k
		}
	}
	n.mu.Unlock()
}

// MergeCursor snapshots the merge position. Pair it with DeliveredVector
// (read atomically inside a delivery handler) to identify a checkpoint.
func (n *Node) MergeCursor() Cursor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cursor.Clone()
}

// nowNanos reads the monotonic clock as nanoseconds (wall-clock jumps must
// not fake or hide merge progress).
//
//lint:allow determinism telemetry only: the monotonic reading feeds SinceProgress staleness bounds and merge-stall durations, never delivered state
func nowNanos() int64 { return int64(time.Since(progressEpoch)) }

var progressEpoch = time.Now()

// SetBatchBoundary installs fn to be called by the merge goroutine after
// every batch-boundary flush, once the flushed prefix has been fully
// processed by the delivery handler (including skip-only flushes, which
// advance the vector without invoking the handler). Install it before
// SubscribeBatch; fn must be fast and must not call back into the node's
// delivery path.
func (n *Node) SetBatchBoundary(fn func()) {
	if fn == nil {
		n.boundary.Store(nil)
		return
	}
	n.boundary.Store(&fn)
}

// SinceProgress reports how long ago the deterministic merge last flushed
// a batch boundary (published its vector and cursor). Skip-only flushes
// count as progress — they prove the merge is consuming the streams — so
// the value bounds how stale this learner's state can be relative to the
// global delivered order. ok is false before the first subscription
// flush, when no bound can be given.
func (n *Node) SinceProgress() (time.Duration, bool) {
	at := n.progressNs.Load()
	if at == 0 {
		return 0, false
	}
	return time.Duration(nowNanos() - at), true
}

// LimitBatch caps the number of messages per delivery batch. Call before
// subscribing; replicas with periodic checkpoints use it so the
// every-N-commands checkpoint cadence survives batch-at-a-time delivery
// (a batch never spans more than one checkpoint interval). Values <= 0 and
// values above the current bound are ignored.
func (n *Node) LimitBatch(maxMessages int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if maxMessages <= 0 || n.merging {
		return
	}
	if maxMessages < n.batchMessages {
		n.batchMessages = maxMessages
	}
}

// Subscription returns the subscribed groups in ascending order (the
// partition this node belongs to).
func (n *Node) Subscription() []transport.RingID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]transport.RingID(nil), n.subscribed...)
}

// Multicast sends data to group γ: the value is proposed to the ring's
// coordinator. The caller need not be a member of the ring (clients act as
// proposers). Delivery is not guaranteed; callers retry end-to-end.
func (n *Node) Multicast(group transport.RingID, data []byte) error {
	return n.MulticastValue(group, 0, data)
}

// MulticastValue multicasts data with a caller-chosen value id (0 picks a
// fresh one). Reconfiguration markers need a pre-agreed id: learners arm
// PrepareResubscribe with it before the value is multicast, and retries
// reuse the same id so a retransmitted marker cannot trigger two epochs.
func (n *Node) MulticastValue(group transport.RingID, id uint64, data []byte) error {
	return n.MulticastValueTraced(group, id, data, trace.Context{})
}

// MulticastValueTraced is MulticastValue with a trace context: when ctx
// is sampled the proposal frame carries it as an optional trailing
// header, so every hop of the value's journey records spans under it.
func (n *Node) MulticastValueTraced(group transport.RingID, id uint64, data []byte, ctx trace.Context) error {
	select {
	case <-n.done:
		return ErrStopped
	default:
	}
	if id == 0 {
		id = transport.MakeValueID(n.id, n.proposeSeq.Add(1))
	}
	v := transport.Value{ID: id, Count: 1, Data: data}
	n.mu.Lock()
	rn := n.rings[group]
	n.mu.Unlock()
	if rn != nil {
		return rn.ProposeValueTraced(v, ctx)
	}
	coordinator, ok := n.coord.Coordinator(group)
	if !ok {
		return fmt.Errorf("core: ring %d not registered", group)
	}
	if coordinator == 0 {
		return ring.ErrNoCoordinator
	}
	m := transport.Message{
		Kind:  transport.KindProposal,
		Ring:  group,
		Value: v,
		// Seq carries the original proposer so admission-control replies
		// survive proposal forwarding (see ring.ProposeValueTraced).
		Seq: uint64(n.id),
	}
	if n.cfg.Tracer != nil && ctx.Sampled() {
		m.Traces = append(m.Traces, transport.TraceRef{ValueID: id, Ctx: ctx})
		n.cfg.Tracer.Add(ctx, "forward", uint32(group), 0, id, time.Now(), 0)
	}
	return n.tr.Send(coordinator, m) //lint:allow logbeforeforward a proposal is no vote: there is nothing to log before it leaves (reached from the smr client's loop)
}

// MarkerID returns a fresh proposer-unique value id suitable for
// MulticastValue/PrepareResubscribe markers.
func (n *Node) MarkerID() uint64 {
	return transport.MakeValueID(n.id, n.proposeSeq.Add(1))
}

// DeliveredCount reports the number of application messages delivered.
func (n *Node) DeliveredCount() uint64 { return n.delivered.Load() }

// Stop shuts down the merge and every joined ring.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	merging := n.merging
	rings := make([]*ring.Node, 0, len(n.rings))
	for _, rn := range n.rings {
		rings = append(rings, rn)
	}
	n.mu.Unlock()

	close(n.done)
	for _, rn := range rings {
		rn.Stop()
	}
	if merging {
		<-n.mergeDone
	}
}
