package ring

import "amcast/internal/transport"

// This file implements the delivery stage: the queue between the event
// loop and the node's one consumer.
//
// The loop appends batches of what the Paxos state hands over to a
// bounded, lag-tracked queue and pokes Config.Wake. The consumer pulls from
// that queue (TakeBatch); nothing pushes, so the protocol event loop NEVER
// blocks on a slow subscriber: acceptor voting, forwarding and coordinator
// progress continue at full speed no matter how far behind the consumer
// falls.
//
// A consumer that lags is one more learner gap. The state keeps the
// consumer's position beside nextDeliver and hands over no more than the
// room the loop last read from the queue; what is decided while there is
// none is released, and the state's fill gets it again, in order, the one
// way the node gets any instance it lacks: from its own log when it is an
// acceptor, else by retransmission from a peer acceptor (paxos.go). If that
// instance is gone from every live acceptor, the state ends the stream.

// enqueueBatch queues one batch of contiguous deliveries for the consumer
// without blocking, publishes the last value in it and pokes the consumer,
// which may be waiting on another ring and must learn that this one holds a
// value. It reports false when the batch would take the lag past the cap.
// Once the stream has ended batches are accepted and released, matching
// Stop's documented semantics.
func (n *Node) enqueueBatch(b []Delivery) bool {
	if len(b) == 0 {
		return true
	}
	n.dmu.Lock()
	if n.dclosed {
		n.dmu.Unlock()
		// The stream ended; pending deliveries may be lost. Nothing will
		// take the batch, so drop its payload references here.
		n.ReleaseBatch(b)
		return true
	}
	if n.dlag > 0 && n.dlag+len(b) > n.cfg.deliverBuffer {
		n.dmu.Unlock()
		return false
	}
	for i := len(b) - 1; i >= 0; i-- { // before queueing: b is the consumer's from then on
		if !b[i].Value.Skip {
			n.lastValue.Store(b[i].Instance)
			break
		}
	}
	n.dqueue = append(n.dqueue, b)
	n.dlag += len(b)
	n.dmu.Unlock()
	n.poke()
	return true
}

// TakeBatch pops the oldest queued batch of contiguous decided instances
// (skip markers included) without blocking. Batches are never empty; hand
// each back with ReleaseBatch so its buffer is reused. nil, false means
// nothing is queued: wait on Config.Wake and call again. nil, true means
// the stream ended, after everything queued before the end was taken. It
// ends at Stop, or — with the node still running its acceptor and
// forwarder duties — when the next instance the consumer needs, after it
// fell behind the queue or the node missed decisions, was trimmed from
// every live acceptor's log (FlowStats.CatchupAborted): the lost range is
// unrecoverable at ring level and the consumer must recover via
// checkpoint transfer (Section 5.2). A node has at most one consumer.
func (n *Node) TakeBatch() (b []Delivery, closed bool) {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if n.dhead == len(n.dqueue) {
		return nil, n.dclosed
	}
	// O(1) pop via head index (no per-batch copy-down); the backing array
	// resets once fully taken, so the consumed prefix is pinned only while
	// a backlog exists.
	b = n.dqueue[n.dhead]
	n.dqueue[n.dhead] = nil
	n.dhead++
	if n.dhead == len(n.dqueue) {
		n.dqueue = n.dqueue[:0]
		n.dhead = 0
	}
	n.dlag -= len(b)
	return b, false
}

// DropDeliveries ends the delivery stream of a consumer that left: what is
// queued is released, and so is every batch the node decides later, so a
// node that stays an acceptor or forwarder of the ring queues nothing.
func (n *Node) DropDeliveries() {
	n.closeDelivery()
	n.releaseQueuedBatches()
}

// LastValue returns the highest instance carrying a value (not a skip)
// queued for the consumer so far (0: none).
func (n *Node) LastValue() uint64 { return n.lastValue.Load() }

// closeDelivery ends the delivery stream: the consumer still takes what is
// queued, then TakeBatch reports the end. Called from the run loop's exit
// paths, when the state ends the stream and by DropDeliveries.
func (n *Node) closeDelivery() {
	n.dmu.Lock()
	n.dclosed = true
	n.dmu.Unlock()
	n.poke()
}

// deliveryRoom reports how many more delivery entries the consumer takes
// before the lag cap: the cap less what is queued and what the run loop
// holds pending.
func (n *Node) deliveryRoom() int {
	n.dmu.Lock()
	room := n.cfg.deliverBuffer - n.dlag - len(n.pending)
	n.dmu.Unlock()
	return max(room, 0)
}

// poke tells the consumer waiting on Config.Wake that the queue changed.
// The slot is level-triggered: a poke that finds it full is covered by the
// one already there.
func (n *Node) poke() {
	select {
	case n.cfg.Wake <- struct{}{}:
	default:
	}
}

// releaseQueuedBatches drops every batch still queued. Its callers closed
// the stream first, so nothing is queued again afterwards.
func (n *Node) releaseQueuedBatches() {
	n.dmu.Lock()
	q := n.dqueue[n.dhead:]
	n.dqueue, n.dhead, n.dlag = nil, 0, 0
	n.dmu.Unlock()
	for _, b := range q {
		n.ReleaseBatch(b)
	}
}

// handoffPending queues the accumulated batch for the consumer. It never
// blocks, and the queue takes the batch: the state hands over no more than
// the room the loop read. Runs on the event loop; callers must have
// committed the burst's staged votes first (a released delivery must never
// outrun the durability of the votes that decided it).
func (n *Node) handoffPending() {
	if len(n.pending) == 0 || n.commitWedged {
		return
	}
	if n.enqueueBatch(n.pending) {
		n.pending = n.getBatch()
	}
}

// finalHandoff runs on the run loop's exit paths: the pending batch is
// queued (a live consumer takes it before it sees the stream end), and a
// consumer still lagging is recorded as aborted — the stream is about to
// end with the dropped range unrecovered, and the consumer must not
// mistake that for a complete clean shutdown.
func (n *Node) finalHandoff() {
	if n.commitWedged {
		return // withheld deliveries must never outrun durability
	}
	n.handoffPending()
	if n.px.lagging() {
		n.catchupAborted.Add(1)
	}
}

// FlowStats reports the delivery stage's flow-control counters.
type FlowStats struct {
	// Lag is the number of delivery entries queued and not yet taken by
	// the consumer.
	Lag int
	// CatchupActive reports whether the consumer lags behind what the
	// learner decided, which the learner re-fetches the way it fills any
	// gap; CatchupNext is then the next instance the consumer still needs
	// (the catch-up watermark), and 0 otherwise.
	CatchupActive bool
	CatchupNext   uint64
	// Overruns counts transitions into catch-up: the consumer ran out of
	// room in the queue (buffer overruns).
	Overruns uint64
	// DroppedEntries counts delivery entries released while the consumer
	// lagged (all re-served later through catch-up).
	DroppedEntries uint64
	// ServedEntries counts delivery entries re-served via catch-up, from
	// the node's own log or a peer's retransmission.
	ServedEntries uint64
	// CatchupAborted counts delivery streams terminated because the next
	// instance the consumer needed was trimmed from every live acceptor
	// (the consumer must recover via checkpoint transfer), plus streams
	// that ended at Stop while the consumer lagged.
	CatchupAborted uint64
	// ShedProposals counts proposals refused at this coordinator with an
	// Overloaded reply because the proposal queue was full.
	ShedProposals uint64
	// QueueDepth is the number of proposals this coordinator left queued
	// behind its pipeline window at its last propose point.
	QueueDepth int
	// SkipRequestsSent counts the skip-on-stall requests this learner sent
	// to the ring's coordinator and SkipAwaited is the instance the last
	// one named; SkipsOnDemand counts the skips this coordinator proposed
	// because of one, outside the Δ tick.
	SkipRequestsSent uint64
	SkipAwaited      uint64
	SkipsOnDemand    uint64
}

// FlowStats snapshots the node's flow-control instrumentation. Safe to
// call from any goroutine.
func (n *Node) FlowStats() FlowStats {
	n.dmu.Lock()
	lag := n.dlag
	n.dmu.Unlock()
	from := n.lagFrom.Load()
	return FlowStats{
		Lag:            lag,
		CatchupActive:  from != 0,
		CatchupNext:    from,
		Overruns:       n.overruns.Load(),
		DroppedEntries: n.catchupDropped.Load(),
		ServedEntries:  n.catchupServed.Load(),
		CatchupAborted: n.catchupAborted.Load(),
		ShedProposals:  n.shedCount.Load(),
		QueueDepth:     int(n.queueDepth.Load()),

		SkipRequestsSent: n.skipReqCount.Load(),
		SkipAwaited:      n.skipAwaited.Load(),
		SkipsOnDemand:    n.onDemandCount.Load(),
	}
}

// LambdaNow reports the ring's rate-leveling target λ in messages/second.
func (n *Node) LambdaNow() int { return n.cfg.Lambda }

// RequestSkip asks this ring's coordinator to skip through instance target
// now instead of at its next Δ tick: the deterministic merge holds a value
// of another ring that it cannot deliver before this ring has decided that
// far (see skipOnDemand). Best effort — a lost request costs the rest of
// the Δ window, as before. The merge asks once per new target. Safe to
// call from any goroutine (the merge goroutine calls it).
func (n *Node) RequestSkip(target uint64) {
	if !n.cfg.SkipEnabled {
		return
	}
	n.skipAwaited.Store(target)
	n.skipReqCount.Add(1)
	n.mu.Lock()
	coordID := n.rc.Coordinator
	n.mu.Unlock()
	if coordID != 0 {
		_ = n.tr.Send(coordID, transport.Message{Kind: transport.KindSkipRequest, Ring: n.ring, Instance: target})
	}
}
