package ring

import "amcast/internal/transport"

// This file implements the delivery stage: the half of the learner that
// used to live inside the protocol event loop.
//
// Decided instances accumulate (run-loop owned) into n.pending; at burst
// boundaries the loop appends finished batches to a bounded, lag-tracked
// queue and pokes Config.Wake. The consumer pulls from that queue
// (TakeBatch); nothing pushes, so the protocol event loop NEVER blocks on a
// slow subscriber: acceptor voting, forwarding and coordinator progress
// continue at full speed no matter how far behind the consumer falls.
//
// A consumer that overruns the queue's lag cap transitions the learner to
// catch-up: the overflowing batch is dropped locally, live deliveries are
// suppressed (the protocol keeps learning decisions and advancing its
// watermarks), and the dropped range [catchupNext, nextDeliver) is
// re-fetched through the existing retransmit path — locally when this
// process is an acceptor, from a peer acceptor otherwise — as the
// consumer drains. Delivery order stays contiguous: the queue holds a
// prefix ending exactly where catch-up resumes.

// enqueueBatch queues one batch of contiguous deliveries for the consumer
// without blocking. It reports false when the batch would take the lag past
// the cap — the consumer is too far behind and the caller must transition
// to catch-up instead of wedging the event loop. Once the stream has ended
// batches are accepted and released, matching Stop's documented semantics.
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
	if n.dlag > 0 && n.dlag+len(b) > n.cfg.DeliverBuffer {
		n.dmu.Unlock()
		return false
	}
	n.stage(b)
	return true
}

// stage queues b for the consumer (dmu held; unlocks), publishes the last
// value in it and pokes the consumer, which may be waiting on another ring
// and must learn that this one holds a value.
func (n *Node) stage(b []Delivery) {
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
}

// TakeBatch pops the oldest queued batch of contiguous decided instances
// (skip markers included) without blocking. Batches are never empty; hand
// each back with ReleaseBatch so its buffer is reused. nil, false means
// nothing is queued: wait on Config.Wake and call again. nil, true means
// the stream ended, after everything queued before the end was taken. It
// ends at Stop, or — with the node still running its acceptor and
// forwarder duties — when the consumer fell so far behind that its
// catch-up range was trimmed from every live acceptor's log
// (FlowStats.CatchupAborted): the lost range is unrecoverable at ring
// level and the consumer must recover via checkpoint transfer (Section
// 5.2). A node has at most one consumer.
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
// paths, at a catch-up abort and by DropDeliveries.
func (n *Node) closeDelivery() {
	n.dmu.Lock()
	n.dclosed = true
	n.dmu.Unlock()
	n.poke()
}

// deliveryRoom reports how many more delivery entries the queue accepts
// before the lag cap.
func (n *Node) deliveryRoom() int {
	n.dmu.Lock()
	room := n.cfg.DeliverBuffer - n.dlag
	n.dmu.Unlock()
	if room < 0 {
		room = 0
	}
	return room
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

// handoffPending hands the accumulated batch to the delivery stage. It
// never blocks: when the stage's lag cap is hit the learner transitions
// to catch-up — the batch is dropped locally and re-fetched through the
// retransmit path once the consumer drains — so a slow subscriber
// degrades only itself. Runs on the event loop; callers must have
// committed the burst's staged votes first (a released delivery must
// never outrun the durability of the votes that decided it).
func (n *Node) handoffPending() {
	if len(n.pending) == 0 || n.commitWedged {
		return
	}
	if n.enqueueBatch(n.pending) {
		n.pending = n.getBatch()
		return
	}
	if !n.inCatchup.Load() {
		n.inCatchup.Store(true)
		n.catchupNext.Store(n.pending[0].Instance)
		n.catchupUnavailFrom = nil
		n.overruns.Add(1)
	}
	n.catchupDropped.Add(uint64(len(n.pending)))
	n.ReleaseBatch(n.pending)
	n.pending = n.getBatch()
}

// finalHandoff runs on the run loop's exit paths: the pending batch is
// force-enqueued past the lag cap (a live consumer takes it before it
// sees the stream end), and a catch-up still in progress is recorded as
// aborted — the stream is about to end with the dropped range
// unrecovered, and the consumer must not mistake that for a complete
// clean shutdown.
func (n *Node) finalHandoff() {
	if n.commitWedged {
		return // withheld deliveries must never outrun durability
	}
	if len(n.pending) > 0 && !n.inCatchup.Load() {
		n.forceEnqueue(n.pending)
		n.pending = nil
	}
	if n.inCatchup.Load() {
		n.catchupAborted.Add(1)
	}
}

// forceEnqueue stages a batch bypassing the lag cap (exit paths only).
func (n *Node) forceEnqueue(b []Delivery) {
	if len(b) == 0 {
		return
	}
	n.dmu.Lock()
	if n.dclosed {
		n.dmu.Unlock()
		n.ReleaseBatch(b) // stream already ended: the batch is dropped
		return
	}
	n.stage(b)
}

// pumpCatchup advances catch-up once the consumer has drained enough of
// the delivery buffer: the dropped range [catchupNext, nextDeliver) is
// re-fetched through the retransmit path — served locally from the log
// when this process is an acceptor (its vote for every decided instance it
// voted on below the delivery watermark is committed there: this runs
// after the burst's group commit), requested from a peer acceptor
// otherwise. allowRemote gates the network request to the retry
// tick so a hot event loop does not spam duplicate RetransmitReqs while a
// response is in flight. Runs on the event loop.
func (n *Node) pumpCatchup(allowRemote bool) {
	if !n.inCatchup.Load() || n.commitWedged || n.deliveryClosed() {
		return
	}
	if n.catchupNext.Load() >= n.px.nextDeliver {
		n.inCatchup.Store(false) // caught up; live delivery resumes seamlessly
		return
	}
	room := n.deliveryRoom()
	if threshold := min(deliveryBatchCap, n.cfg.DeliverBuffer/2); room < max(1, threshold) {
		return // consumer still backlogged; try again next tick
	}
	if n.px.isAcceptor() {
		n.serveCatchupLocal(room)
		if n.catchupNext.Load() >= n.px.nextDeliver {
			n.inCatchup.Store(false)
			return
		}
		// Local serving stopped. Re-read the room: if it ran out, the
		// stop was room-limited — do not ask a peer for instances we
		// cannot accept (the zero-room response would read as trim
		// evidence). Only a hole in the local record (a decision learned
		// without our own vote) justifies the remote request.
		room = n.deliveryRoom()
		if room == 0 {
			return
		}
	}
	if !allowRemote {
		return
	}
	target := n.catchupTarget()
	if target == 0 {
		return
	}
	count := uint64(room)
	if c := n.px.nextDeliver - n.catchupNext.Load(); c < count {
		count = c
	}
	if count > 512 {
		count = 512
	}
	n.send(target, transport.Message{
		Kind:     transport.KindRetransmitReq,
		Ring:     n.ring,
		Instance: n.catchupNext.Load(),
		Count:    uint32(count),
	})
}

// serveCatchupLocal replays decided instances from this acceptor's own
// record into the delivery stage, stopping at the first hole, at the live
// watermark, or when room runs out. catchupNext only advances for entries
// the stage actually accepted.
func (n *Node) serveCatchupLocal(room int) {
	batch := n.getBatch()
	next := n.catchupNext.Load()
	for room > 0 && next < n.px.nextDeliver {
		v, ok := n.px.lookupDecided(next)
		if !ok {
			break
		}
		batch = append(batch, Delivery{Ring: n.ring, Instance: next, Value: v})
		next += v.Span()
		room--
		if len(batch) >= deliveryBatchCap {
			if !n.enqueueBatch(batch) {
				n.ReleaseBatch(batch)
				return
			}
			n.catchupServed.Add(uint64(len(batch)))
			n.catchupNext.Store(next)
			n.catchupUnavailFrom = nil // progress: stale evidence
			batch = n.getBatch()
		}
	}
	if len(batch) > 0 && n.enqueueBatch(batch) {
		n.catchupServed.Add(uint64(len(batch)))
		n.catchupNext.Store(next)
		n.catchupUnavailFrom = nil // progress invalidates unavailable reports
		return
	}
	n.ReleaseBatch(batch)
}

// catchupTarget rotates over the live peer acceptors (the state's copy, the
// same set that decides a catch-up abort) so consecutive catch-up requests
// consult different peers — one acceptor's vote hole must not look like a
// trimmed range.
func (n *Node) catchupTarget() transport.ProcessID {
	peers := n.px.peers
	if len(peers) == 0 {
		return 0
	}
	n.catchupRR++
	return peers[n.catchupRR%len(peers)]
}

// catchUpFrom replays a retransmission into the delivery stage while the
// learner catches up (entries contiguous from catchupNext, which the Paxos
// state, learning the response next, discards as duplicates).
func (n *Node) catchUpFrom(m *transport.Message) {
	if !n.inCatchup.Load() {
		return
	}
	next := n.catchupNext.Load()
	if len(m.Payload) == 0 && m.Count == retransmitUnavailable {
		// The range is gone from that peer (trimmed, or absent): the
		// report counts toward an abort, after which the consumer
		// recovers by checkpoint transfer (Section 5.2, Predicate 2).
		if m.Instance == next {
			n.noteCatchupUnavailable(m.From)
		}
		return
	}
	batch, err := transport.DecodeBatch(m.Payload)
	if err != nil {
		return
	}
	var cb []Delivery
	room := n.deliveryRoom()
	// Starved-above trim evidence counts only for a response to OUR
	// request (echoed start = watermark), not a late gap-chase response.
	forCatchup := m.Instance == next
	starvedAbove, sawNext := false, false
	for _, iv := range batch {
		switch {
		case iv.Instance >= n.px.nextDeliver:
		case iv.Instance == next && room > 0:
			if cb == nil {
				cb = n.getBatch()
			}
			cb = append(cb, Delivery{Ring: n.ring, Instance: iv.Instance, Value: iv.Value})
			next += iv.Value.Span()
			room--
		case iv.Instance == next:
			sawNext = true // only the local room ran out: no trim evidence
		case iv.Instance > next:
			// Served above the watermark but not at it (the trim point
			// fell inside the window): as good as an unavailable report.
			starvedAbove = true
		}
	}
	if len(cb) == 0 {
		if cb != nil {
			n.ReleaseBatch(cb)
		}
		if starvedAbove && !sawNext && forCatchup {
			n.noteCatchupUnavailable(m.From)
		}
		return
	}
	if !n.enqueueBatch(cb) {
		n.ReleaseBatch(cb) // room raced away; the next tick re-requests
		return
	}
	n.catchupServed.Add(uint64(len(cb)))
	n.catchupNext.Store(next)
	n.catchupUnavailFrom = nil // progress: earlier unavailable reports are stale
	if next >= n.px.nextDeliver {
		n.inCatchup.Store(false)
	}
}

// noteCatchupUnavailable records one peer's report that the catch-up
// range cannot be served. One acceptor might merely have a vote hole (or
// a fresh post-crash log) where others still serve, so the stream aborts
// only once every live peer acceptor has reported the range gone —
// distinct peers, not repeated reports from one (requests rotate over
// them).
func (n *Node) noteCatchupUnavailable(from transport.ProcessID) {
	if n.catchupUnavailFrom == nil {
		n.catchupUnavailFrom = make(map[transport.ProcessID]bool)
	}
	n.catchupUnavailFrom[from] = true
	if len(n.px.peers) == 0 {
		return
	}
	for _, p := range n.px.peers {
		if !n.catchupUnavailFrom[p] {
			return
		}
	}
	n.abortCatchup()
}

// deliveryClosed reports whether the delivery stream has been closed.
func (n *Node) deliveryClosed() bool {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.dclosed
}

// abortCatchup terminates the delivery stream: every live peer acceptor
// positively reported the catch-up range trimmed, so the dropped
// deliveries are unrecoverable at ring level. Closing the stream is the
// loud failure — the consumer observes end-of-stream and recovers via
// checkpoint transfer (Section 5.2), exactly as the trim quorum's
// Predicate 2 assumes for replicas outside it. The node keeps its
// acceptor and forwarder duties.
func (n *Node) abortCatchup() {
	n.catchupAborted.Add(1)
	n.closeDelivery()
}

// FlowStats reports the delivery stage's flow-control counters.
type FlowStats struct {
	// Lag is the number of delivery entries queued and not yet taken by
	// the consumer.
	Lag int
	// CatchupActive reports whether the learner is re-fetching dropped
	// deliveries through the retransmit path; CatchupNext is the next
	// instance the consumer still needs (the catch-up watermark).
	CatchupActive bool
	CatchupNext   uint64
	// Overruns counts transitions into catch-up (buffer overruns).
	Overruns uint64
	// DroppedEntries counts delivery entries dropped at overruns (all
	// re-served later through catch-up).
	DroppedEntries uint64
	// ServedEntries counts delivery entries re-served via catch-up.
	ServedEntries uint64
	// CatchupAborted counts delivery streams terminated because the
	// catch-up range was trimmed from every live acceptor (the consumer
	// must recover via checkpoint transfer).
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
	return FlowStats{
		Lag:            lag,
		CatchupActive:  n.inCatchup.Load(),
		CatchupNext:    n.catchupNext.Load(),
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
