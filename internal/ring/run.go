package ring

import (
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// run is the node's single event loop: it owns all protocol state, so no
// handler needs locking beyond the rc snapshot shared with Propose.
//
// Handlers do not write the log or the network directly: they stage
// durability into walBatch and output into stagedSends, and the loop
// commits both once per drained burst (commitStaged) — one group-commit
// fsync and one coalesced transport flush instead of a write barrier and
// a syscall per message.
//
//lint:eventloop
func (n *Node) run() {
	defer close(n.loopDone)
	// End the delivery stream once this loop exits: the consumer takes
	// what is queued, then sees the end.
	defer n.closeDelivery()
	// Drop every pooled buffer reference the loop state still holds, so
	// a stopped node leaves nothing outstanding in the pool. The deferred
	// commitStaged and finalHandoff below run first, so only references
	// with no remaining consumer are left by then.
	defer n.releaseRunState()
	defer n.finalHandoff()
	defer n.commitStaged()

	// The retry ticker fires at a quarter of the retry interval so phase-1
	// re-runs and gap probes react quickly after startup or elections; the
	// re-proposal cutoff below still honours the full RetryInterval.
	retry := time.NewTicker(n.cfg.RetryInterval / 4)
	defer retry.Stop()

	var skipC <-chan time.Time
	if n.cfg.SkipEnabled {
		t := time.NewTicker(n.cfg.Delta)
		defer t.Stop()
		skipC = t.C
	}
	var trimC <-chan time.Time
	if n.cfg.TrimInterval > 0 {
		t := time.NewTicker(n.cfg.TrimInterval)
		defer t.Stop()
		trimC = t.C
	}

	// New may have staged work (a coordinator's startup Phase 1A);
	// release it before first blocking.
	n.commitStaged()

	var burst []transport.Message

	for {
		allowRemoteCatchup := false
		select {
		case <-n.done:
			return
		case cfg, ok := <-n.watch:
			if !ok {
				return
			}
			n.applyConfig(cfg)
		case <-n.in.Ready():
			// Take the burst that arrived, up to 128 messages, so one WAL
			// group commit and one coalesced transport flush cover it
			// instead of paying a write barrier and a syscall per message.
			var open bool
			burst, open = n.in.Take(burst[:0], 128)
			for _, m := range burst {
				n.consume(m)
			}
			if !open {
				return
			}
		case <-retry.C:
			n.retryUndecided()
			n.chaseGaps()
			allowRemoteCatchup = true
		case <-skipC:
			n.maybeSkip()
		case <-trimC:
			n.startTrimRound()
		}
		// The coordinator's single propose point: handlers above only
		// enqueued proposals or freed window slots, so everything that
		// arrived in this burst is packed together (Section 4), logged as
		// one vote per acceptor and forwarded as one Phase 2 message. No
		// timer: a lone proposal is proposed in the iteration that
		// received it, and so is the skip a learner asked for.
		n.tryPropose()
		n.skipOnDemand()
		// Commit the burst's staged votes and sends before handing
		// deliveries over: a delivery must never outrun the durability
		// of the votes that decided it.
		n.commitStaged()
		n.handoffPending()
		// With everything durable, catch-up may replay dropped instances
		// into the freed delivery buffer. Remote retransmit requests are
		// paced by the retry tick; the extra commit releases one if
		// staged (a no-op otherwise).
		n.pumpCatchup(allowRemoteCatchup)
		n.commitStaged()
		// The burst is fully committed and flushed: the read blocks and
		// interned payload creation references can go back to the pool
		// (holders that outlive the burst took their own references).
		n.releaseBurst()
	}
}

// commitStaged is the group-commit barrier at the end of a drained burst:
// it makes the burst's staged votes durable with a single PutBatch (one
// buffered write + one fsync under SyncEveryPut) and only then releases
// the staged outbound messages, so every forwarded vote is durable first
// — the paper's Section 5.1 invariant at batch granularity. If the log
// rejects the batch the staged sends are dropped entirely (un-logged
// votes must not circulate; fair-lossy links make dropped messages
// indistinguishable from loss) and commitWedged holds back delivery
// release until the retained batch eventually commits.
//
//lint:release
func (n *Node) commitStaged() {
	if len(n.walBatch) > 0 {
		// Time the group commit only when a traced vote is staged: the
		// wal-commit span names the PutBatch (and its fsync) the sampled
		// value waited on.
		var walStart time.Time
		if len(n.stagedTraces) > 0 {
			walStart = time.Now()
		}
		if err := n.cfg.Log.PutBatch(n.walBatch); err != nil {
			// Durability failed. Drop the staged sends — un-logged votes
			// must not circulate — but KEEP the staged records: the node
			// has already acted on these votes and promises, so they stay
			// queued for the next commit attempt rather than be silently
			// forgotten. Phase 1 reports and retransmissions read the log
			// and commit first, so while the batch is retained they answer
			// nothing instead of reporting without these votes. A log that
			// fails persistently wedges this acceptor's output (sends
			// dropped, deliveries withheld) — and once the failure
			// budget is spent the node steps out loudly (self MarkDown)
			// so the surviving quorum stops waiting on its votes. The
			// batch keeps retrying: if the disk recovers, the node
			// rejoins on its own.
			n.commitWedged = true
			n.commitFails++
			n.commitFailCount.Add(1)
			n.lastCommitErr.Store(err.Error())
			if b := n.cfg.CommitFailureBudget; b > 0 && !n.steppedOut && n.commitFails >= b {
				n.steppedOut = true
				n.steppedOutFlag.Store(true)
				n.cfg.Coord.MarkDown(n.id)
			}
			for i := range n.stagedSends {
				n.stagedSends[i].Value.Buf.Release()
				n.stagedSends[i] = transport.Message{}
			}
			n.stagedSends = n.stagedSends[:0]
			return
		}
		n.commitFails = 0
		if n.steppedOut {
			// The log accepted the retained batch again: rejoin.
			n.steppedOut = false
			n.steppedOutFlag.Store(false)
			n.cfg.Coord.MarkUp(n.id)
		}
		n.walGauge.Observe(len(n.walBatch))
		if !walStart.IsZero() {
			d := time.Since(walStart)
			for _, st := range n.stagedTraces {
				n.tracer.Add(st.ctx, "wal-commit", uint32(n.ring), st.inst, st.id, walStart, d)
			}
		}
		n.stagedTraces = n.stagedTraces[:0]
		for i := range n.walBatch {
			n.walBatch[i] = storage.Record{} // release record buffers
		}
		n.walBatch = n.walBatch[:0]
		// The log copied the records (PutBatch contract), so the pooled
		// buffers they were encoded into can recycle now.
		n.releaseWALBufs()
	}
	n.commitWedged = false
	if len(n.stagedSends) == 0 {
		return
	}
	n.sendGauge.Observe(len(n.stagedSends))
	if n.batchTr != nil {
		_ = n.batchTr.SendBatch(n.stagedSends)
	} else {
		for i := range n.stagedSends {
			_ = n.tr.Send(n.stagedSends[i].To, n.stagedSends[i])
		}
	}
	for i := range n.stagedSends {
		// The transport serialized the frame synchronously (tcpConn.write
		// copies into its own buffer before the syscall), so the staged
		// send's payload reference can be dropped now.
		n.stagedSends[i].Value.Buf.Release()
		n.stagedSends[i] = transport.Message{} // release payload references
	}
	n.stagedSends = n.stagedSends[:0]
}

// stagePut queues a durable record for the burst's group commit.
func (n *Node) stagePut(instance uint64, record []byte) {
	n.walBatch = append(n.walBatch, storage.Record{Instance: instance, Data: record})
}

// recoverFromLog restores the acceptor's promise from the stable log after
// a restart (Section 5.1, acceptor recovery). Its votes need no restoring:
// they stay in the log, where Phase 1 and retransmission read them.
func (n *Node) recoverFromLog() {
	if n.cfg.Log == nil {
		return
	}
	if rec, ok := n.cfg.Log.Get(promiseInstance); ok {
		n.promised = decodePromise(rec)
	}
}

// applyConfig reacts to a ring configuration change: new successor, and
// possibly a coordinator handover to this process.
func (n *Node) applyConfig(cfg coord.RingConfig) {
	n.mu.Lock()
	n.rc = cfg
	n.mu.Unlock()

	if succ, ok := cfg.Successor(n.id); ok {
		n.succ = succ
	} else {
		n.succ = 0 // single-member ring (or everyone else down)
	}
	wasCoord := n.isCoord
	n.isCoord = cfg.Coordinator == n.id && cfg.Roles(n.id).Has(coord.RoleAcceptor)
	if n.isCoord && (!wasCoord || n.ballot < uint32(cfg.Version)) {
		n.becomeCoordinator(uint32(cfg.Version))
	}
	if !n.isCoord {
		n.phase1Ready = false
	}
}

// becomeCoordinator starts a coordinator term: it pre-executes Phase 1 for
// all instances above the node's decision watermark with a term-unique
// ballot (the ring config version, which only grows).
func (n *Node) becomeCoordinator(ballot uint32) {
	n.ballot = ballot
	n.phase1Ready = false
	n.proposedInWin = 0
	// Restart instance assignment above everything this process knows to
	// be decided; Phase 1B reports may push it further.
	if n.nextInstance < n.maxDecided+1 {
		n.nextInstance = n.maxDecided + 1
	}
	m := transport.Message{
		Kind:     transport.KindPhase1A,
		Ring:     n.ring,
		Ballot:   ballot,
		Instance: n.nextDeliver, // report votes from here up
	}
	// Vote for our own Phase 1A (the coordinator is an acceptor). A wedged
	// log cannot report our votes: the retry tick runs Phase 1 again.
	if !n.acceptPhase1(&m) {
		return
	}
	if n.succ == 0 {
		// Single-member ring: phase 1 trivially complete.
		n.completePhase1(m)
		return
	}
	n.send(n.succ, m)
}

// handle dispatches one protocol message.
func (n *Node) handle(m transport.Message) {
	n.ingestTraces(&m)
	switch m.Kind {
	case transport.KindProposal:
		n.handleProposal(m)
	case transport.KindPhase1A:
		n.handlePhase1A(m)
	case transport.KindPhase2:
		n.handlePhase2(m)
	case transport.KindDecision:
		n.handleDecision(m)
	case transport.KindRetransmitReq:
		n.handleRetransmitReq(m)
	case transport.KindRetransmitResp:
		n.handleRetransmitResp(m)
	case transport.KindSafeResp:
		n.handleSafeResp(m)
	case transport.KindTrim:
		n.handleTrim(m)
	case transport.KindSkipRequest:
		// Only recorded: the loop's propose point acts on it. Dropped
		// anywhere but at the coordinator — the Δ tick covers a request
		// that raced a coordinator change.
		if n.isCoord && m.Instance > n.skipTarget {
			n.skipTarget = m.Instance
		}
	default:
		// The router only delivers ring-protocol kinds to this inbox
		// (transport.isRingKind); service/heartbeat traffic never reaches
		// here. Anything else is a kind this ring version does not speak —
		// fair-lossy transport semantics make dropping it safe.
	}
}

// handleProposal enqueues a value at the coordinator (the loop's propose
// point assigns it an instance at the end of the burst) or forwards it
// there.
func (n *Node) handleProposal(m transport.Message) {
	if !n.isCoord {
		n.mu.Lock()
		coordID := n.rc.Coordinator
		n.mu.Unlock()
		if coordID != 0 && coordID != n.id {
			// Forwarded verbatim: m keeps its decoded Traces, so the
			// sampled context survives this hop (the transport restamps
			// From, never the optional trailing headers).
			n.spanNow("forward", 0, m.Value)
			n.send(coordID, m)
		}
		return
	}
	if n.pendingQ.len() >= n.cfg.MaxPending {
		// Queue-depth-aware admission control: shed the proposal loudly.
		// A silent drop is indistinguishable from loss, so clients used
		// to hammer the overloaded coordinator with blind retransmits;
		// the Overloaded reply carries a retry-after estimate derived
		// from the queue depth and the measured drain rate so they back
		// off for roughly one queue-drain time instead.
		n.shedCount.Add(1)
		// Reply to the ORIGINAL proposer (Seq, stamped at the client;
		// m.From is restamped per hop and would name the forwarder for
		// proposals that bounced through a non-coordinator).
		replyTo := m.From
		if m.Seq != 0 {
			replyTo = transport.ProcessID(m.Seq)
		}
		if replyTo != 0 {
			n.send(replyTo, transport.Message{
				Kind:     transport.KindOverloaded,
				Instance: uint64(n.retryAfter() / time.Millisecond),
				Count:    uint32(n.pendingQ.len()),
				Value:    transport.Value{ID: m.Value.ID},
			})
		}
		return
	}
	n.pendingQ.push(m.Value)
}

// tryPropose is the coordinator's propose point, called by the event loop
// once per iteration: it assigns queued proposals to consensus instances
// while the pipeline window has room, packing the head-of-line proposals
// into one instance when batching is enabled (message packing, Section 4).
func (n *Node) tryPropose() {
	if n.isCoord && n.phase1Ready && n.pendingQ.len() > 0 && len(n.inFlight) < n.cfg.Window {
		now := time.Now()
		dequeued := 0
		for n.pendingQ.len() > 0 && len(n.inFlight) < n.cfg.Window {
			v, packed := n.packBatch()
			if !v.Skip {
				n.proposedInWin++
				n.packGauge.Observe(packed)
			}
			dequeued += packed
			n.proposeValue(v, now)
		}
		n.drain.observe(dequeued, now)
	}
	n.queueDepth.Set(int64(n.pendingQ.len()))
}

// packBatch dequeues the value of the next instance and reports how many
// proposals it carries: the queue head alone, or — with packing enabled —
// the head plus every proposal queued behind it that fits BatchBytes
// payload bytes (a head larger than that travels alone; a Skip is never
// packed). The packet is sized by walking the queue in place and encoded
// straight from the queue into one pooled buffer, whose creation reference
// transfers to the returned value (and from there to the flight table);
// the packed proposals' queue references are released once their bytes
// are copied.
//
//lint:pooled
func (n *Node) packBatch() (transport.Value, int) {
	q := &n.pendingQ
	head := q.at(0)
	count, size, encoded := 1, len(head.Data), transport.BatchHeaderSize+transport.BatchEntrySize(*head)
	if n.cfg.BatchBytes > 0 && !head.Skip {
		for count < q.len() && size < n.cfg.BatchBytes {
			next := q.at(count)
			if next.Skip || size+len(next.Data) > n.cfg.BatchBytes {
				break
			}
			size += len(next.Data)
			encoded += transport.BatchEntrySize(*next)
			count++
		}
	}
	if count == 1 {
		return q.pop(), 1
	}
	// The packed value rides the same accept/WAL/forward path as an
	// inbound one.
	id := head.ID
	pb := bufpool.Get(encoded)
	data := transport.AppendBatchHeader(pb.Bytes()[:0], count)
	for i := 0; i < count; i++ {
		v := q.pop()
		data = transport.AppendBatchEntry(data, 0, v)
		v.Buf.Release()
	}
	return transport.Value{ID: id, Batched: true, Count: 1, Data: data, Buf: pb}, count
}

// proposeValue runs Phase 2 for one value: the coordinator logs its own
// vote and forwards the combined 2A/2B message. The flight slot takes
// ownership of the caller's payload reference (released when the slot
// frees: decided, superseded, or node exit).
func (n *Node) proposeValue(v transport.Value, now time.Time) {
	inst := n.nextInstance
	n.nextInstance += v.Span()
	n.inFlight[inst] = flight{value: v, lastSent: now}
	n.sendPhase2(inst, v)
}

// recordVote stages the durable vote record for an instance; the log is
// the acceptor's only memory of it. The staged record commits (group
// commit) before any message of this burst leaves the node. The record is
// encoded into a pooled buffer, tracked in walBufs and recycled once the
// commit lands.
//
//lint:pooled
func (n *Node) recordVote(ballot uint32, inst uint64, v transport.Value) {
	rec := bufpool.Get(acceptRecordSize(v))
	n.stagePut(inst, appendAccept(rec.Bytes()[:0], ballot, inst, v))
	n.walBufs = append(n.walBufs, rec)
	n.spanNow("vote", inst, v)
	n.traceStagedVote(inst, v)
}

// stagePromise stages the durable record of a raised promise.
func (n *Node) stagePromise() {
	n.stagePut(promiseInstance, encodePromise(n.promised))
}

// sendPhase2 stages the coordinator's vote (durable before sending, as
// recovery requires) and emits the Phase 2A/2B message.
func (n *Node) sendPhase2(inst uint64, v transport.Value) {
	// Durable vote first (Section 5.1) — staged, committed before the
	// message is released.
	n.recordVote(n.ballot, inst, v)
	m := transport.Message{
		Kind:     transport.KindPhase2,
		Ring:     n.ring,
		Ballot:   n.ballot,
		Instance: inst,
		Votes:    1,
		Value:    v,
	}
	n.attachTraces(&m, v)
	n.mu.Lock()
	majority := n.rc.Majority()
	n.mu.Unlock()
	if int(m.Votes) >= majority || n.succ == 0 {
		// Single-acceptor ring: decided immediately.
		n.decide(inst, v, n.id)
		return
	}
	n.send(n.succ, m)
}

// acceptPhase1 applies a Phase 1A message at an acceptor: promise the
// ballot (durably), vote, and attach this acceptor's logged votes so a new
// coordinator can re-propose possibly-chosen values. The votes are read
// from the log, so the burst's staged ones are committed first; it reports
// false when that commit is wedged, and the caller then sends nothing.
func (n *Node) acceptPhase1(m *transport.Message) bool {
	if !n.isAcceptor() || m.Ballot < n.promised {
		return true // no vote: a learner, or a stale ballot
	}
	if m.Ballot > n.promised {
		n.promised = m.Ballot
		n.stagePromise()
	}
	n.commitStaged()
	if n.commitWedged {
		return false
	}
	m.Votes++
	// Report every logged vote at or above the scan point, record as
	// stored, so each keeps the ballot it was cast at.
	var report []transport.InstanceValue
	for inst, last := max(m.Instance, n.cfg.Log.FirstRetained(), 1), n.cfg.Log.Last(); inst <= last; inst++ {
		if rec, ok := n.cfg.Log.Get(inst); ok {
			report = append(report, transport.InstanceValue{Instance: inst, Value: transport.Value{Data: rec}})
		}
	}
	if len(report) > 0 {
		existing, err := transport.DecodeBatch(m.Payload)
		if err != nil {
			existing = nil
		}
		m.Payload = transport.EncodeBatch(append(existing, report...))
	}
	return true
}

// handlePhase1A processes a circulating Phase 1A: the originating
// coordinator completes Phase 1 when the message returns with a majority;
// other acceptors vote and forward.
func (n *Node) handlePhase1A(m transport.Message) {
	if n.isCoord && m.Ballot == n.ballot {
		n.completePhase1(m)
		return
	}
	if n.acceptPhase1(&m) && n.succ != 0 {
		n.send(n.succ, m)
	}
}

// completePhase1 finishes the coordinator's Phase 1: with a majority of
// promises it re-proposes, for every reported instance, the value of the
// highest-ballot vote (it may have been chosen) and opens the pipeline.
// That vote wins over this coordinator's own flight for the instance too:
// its own vote is among the reports, so a higher one means its flight may
// have lost.
func (n *Node) completePhase1(m transport.Message) {
	n.mu.Lock()
	majority := n.rc.Majority()
	n.mu.Unlock()
	if int(m.Votes) < majority {
		// Election failed (stale promises elsewhere); retry with the
		// next config version or by re-running phase 1 on retry tick.
		n.phase1Ready = false
		return
	}
	votes := decodeReport(m.Payload)
	for _, vt := range votes {
		n.nextInstance = max(n.nextInstance, vt.instance+vt.value.Span())
	}
	for i, vt := range votes {
		if i > 0 && votes[i-1].instance == vt.instance {
			continue // a lower-ballot vote for an instance already handled
		}
		if vt.instance < n.nextDeliver {
			continue // already decided and delivered
		}
		if f, busy := n.inFlight[vt.instance]; busy {
			f.value.Buf.Release() // superseded by the reported vote
		}
		n.inFlight[vt.instance] = flight{value: vt.value, lastSent: time.Now()}
		n.sendPhase2(vt.instance, vt.value)
	}
	n.phase1Ready = true
}

// handlePhase2 is the acceptor/forwarder path for combined Phase 2A/2B.
func (n *Node) handlePhase2(m transport.Message) {
	if !n.isAcceptor() {
		if n.succ != 0 {
			n.send(n.succ, m)
		}
		return
	}
	if m.Ballot < n.promised {
		return // stale coordinator; drop so it cannot gather a majority
	}
	if m.Ballot > n.promised {
		n.promised = m.Ballot
		n.stagePromise()
	}
	// Stage the vote; the group commit at the end of this burst makes it
	// durable before the forward below is released (Section 5.1).
	n.recordVote(m.Ballot, m.Instance, m.Value)
	m.Votes++
	n.mu.Lock()
	majority := n.rc.Majority()
	n.mu.Unlock()
	if int(m.Votes) >= majority {
		n.decide(m.Instance, m.Value, n.id)
		return
	}
	if n.succ != 0 {
		n.send(n.succ, m)
	}
}

// decide converts an instance into a Decision originating at this process
// and applies it locally.
func (n *Node) decide(inst uint64, v transport.Value, origin transport.ProcessID) {
	n.spanNow("decide", inst, v)
	n.learnDecision(inst, v)
	if n.succ != 0 {
		m := transport.Message{
			Kind:     transport.KindDecision,
			Ring:     n.ring,
			Instance: inst,
			Value:    v,
			Seq:      uint64(origin),
		}
		n.attachTraces(&m, v)
		n.send(n.succ, m)
	}
}

// handleDecision applies a circulating Decision and forwards it until the
// loop closes at its origin.
func (n *Node) handleDecision(m transport.Message) {
	n.learnDecision(m.Instance, m.Value)
	origin := transport.ProcessID(m.Seq)
	if n.succ != 0 && n.succ != origin {
		n.send(n.succ, m)
	}
}

// learnDecision records a decided instance and advances in-order delivery.
// It never blocks: finished batches go to the delivery stage, and if the
// stage's lag cap is hit the learner transitions to catch-up instead of
// wedging the event loop (and with it acceptor voting and forwarding).
func (n *Node) learnDecision(inst uint64, v transport.Value) {
	if inst < n.nextDeliver {
		n.coordObserveDecided(inst)
		return // duplicate (retransmission or second loop)
	}
	if _, ok := n.learned[inst]; ok {
		return
	}
	n.idleTicks = 0
	v.Buf.Retain() // the learned map holds its own payload reference
	n.learned[inst] = v
	if end := inst + v.Span() - 1; end > n.maxDecided {
		n.maxDecided = end
	}
	n.coordObserveDecided(inst)
	for {
		val, ok := n.learned[n.nextDeliver]
		if !ok {
			break
		}
		delete(n.learned, n.nextDeliver)
		n.decidedCount.Add(1)
		if val.Skip {
			n.skippedCount.Add(uint64(val.Span()))
		}
		// While catching up, live deliveries are suppressed — the
		// consumer has not yet seen [catchupNext, here), so delivering
		// now would reorder; the retransmit path replays this instance
		// later (the protocol still advances at full speed).
		if n.isLearner() && !n.inCatchup.Load() {
			// The learned map's reference transfers to the Delivery entry
			// (ReleaseBatch drops it once the consumer is done).
			n.pending = append(n.pending, Delivery{Ring: n.ring, Instance: n.nextDeliver, Value: val})
			if len(n.pending) >= deliveryBatchCap {
				// Full batch mid-drain (burst catch-ups): hand it over
				// before accumulating more. Commit staged votes first —
				// a released delivery must never depend on a vote that
				// is not yet durable — and keep accumulating if the
				// commit is wedged.
				n.commitStaged()
				if !n.commitWedged {
					n.handoffPending()
				}
			}
		} else {
			// Suppressed (catching up, or not a learner): no Delivery
			// entry will carry this value, so drop the learned map's ref.
			val.Buf.Release()
		}
		n.nextDeliver += val.Span()
	}
}

// coordObserveDecided releases the pipeline slot for a decided instance
// (the loop's propose point refills it at the end of the burst).
func (n *Node) coordObserveDecided(inst uint64) {
	if f, ok := n.inFlight[inst]; ok {
		f.value.Buf.Release()
		delete(n.inFlight, inst)
	}
}

// retryUndecided re-proposes instances whose decision is overdue (lost
// messages, successor change mid-flight).
func (n *Node) retryUndecided() {
	if !n.isCoord {
		return
	}
	if !n.phase1Ready {
		// Phase 1 may have been lost in a reconfiguration; re-run it.
		n.becomeCoordinator(n.ballot)
		return
	}
	cutoff := time.Now().Add(-n.cfg.RetryInterval)
	for inst, f := range n.inFlight {
		if inst < n.nextDeliver {
			f.value.Buf.Release()
			delete(n.inFlight, inst)
			continue
		}
		if f.lastSent.Before(cutoff) {
			f.lastSent = time.Now()
			n.inFlight[inst] = f
			n.sendPhase2(inst, f.value)
		}
	}
}

// chaseGaps requests retransmission of decided-but-missed instances so a
// learner's in-order delivery never stalls behind a lost Decision. When a
// learner has heard nothing for a few ticks (e.g. it just recovered and the
// ring is quiet), it probes an acceptor blindly: the acceptor returns any
// decided instances at or above our cursor, revealing what we missed.
func (n *Node) chaseGaps() {
	gap := n.nextDeliver <= n.maxDecided
	if gap {
		if _, ok := n.learned[n.nextDeliver]; ok {
			return
		}
	} else {
		if !n.isLearner() {
			return
		}
		n.idleTicks++
		if n.idleTicks < 3 {
			return
		}
		n.idleTicks = 0
	}
	target := n.retransmitTarget()
	if target == 0 {
		return
	}
	count := uint32(512)
	if gap {
		if c := n.maxDecided - n.nextDeliver + 1; c < 512 {
			count = uint32(c)
		}
	}
	n.send(target, transport.Message{
		Kind:     transport.KindRetransmitReq,
		Ring:     n.ring,
		Instance: n.nextDeliver,
		Count:    count,
	})
}

// handleRetransmitReq serves decided values from the acceptor log. Only
// instances below the acceptor's own contiguous decision watermark are
// served: those are stable and their logged vote equals the decision. The
// burst's staged votes are committed first so the log holds them; a
// wedged commit answers nothing.
func (n *Node) handleRetransmitReq(m transport.Message) {
	if !n.isAcceptor() {
		return
	}
	n.commitStaged()
	if n.commitWedged {
		return
	}
	var batch []transport.InstanceValue
	end := m.Instance + uint64(m.Count)
	for inst := m.Instance; inst < end && inst < n.nextDeliver; inst++ {
		if v, ok := n.lookupDecided(inst); ok {
			batch = append(batch, transport.InstanceValue{Instance: inst, Value: v})
			inst += v.Span() - 1
		}
	}
	if len(batch) == 0 {
		if m.Instance < n.nextDeliver {
			// The range is decided but this acceptor cannot serve any of
			// it — it was trimmed (Section 5.2: a checkpoint quorum made
			// it reclaimable). Say so explicitly: a catch-up learner
			// would otherwise retry a silent void forever.
			n.send(m.From, transport.Message{
				Kind:     transport.KindRetransmitResp,
				Ring:     n.ring,
				Instance: m.Instance,
				Count:    retransmitUnavailable,
			})
		}
		return
	}
	resp := transport.Message{
		Kind: transport.KindRetransmitResp,
		Ring: n.ring,
		// Echo the request start so the receiver can correlate the
		// response to a specific catch-up window (starved-above trim
		// evidence must not be derived from unrelated gap-chase
		// responses).
		Instance: m.Instance,
		Payload:  transport.EncodeBatch(batch),
	}
	// Re-attach parked trace contexts so a traced value replayed through
	// catch-up still stamps its downstream merge/apply spans.
	n.attachBatchTraces(&resp, batch)
	n.send(m.From, resp)
}

// retransmitUnavailable in RetransmitResp.Count flags an empty reply for
// a decided-but-trimmed range.
const retransmitUnavailable = 1

// handleRetransmitResp applies retransmitted decisions. During catch-up,
// entries contiguous from catchupNext are replayed straight into the
// delivery stage (they are below the protocol watermark — learnDecision
// would discard them as duplicates); everything else feeds the normal
// gap-filling path.
func (n *Node) handleRetransmitResp(m transport.Message) {
	if len(m.Payload) == 0 && m.Count == retransmitUnavailable {
		// The acceptor reported our catch-up range unservable: trimmed
		// or simply absent. Either way the data is gone from that peer — the dropped
		// deliveries may be unrecoverable at ring level, so count the
		// report toward an abort instead of wedging in catch-up forever;
		// the consumer recovers via checkpoint transfer, the same path
		// the trim quorum's Predicate 2 assumes for replicas outside it.
		if n.inCatchup.Load() && m.Instance == n.catchupNext.Load() {
			n.noteCatchupUnavailable(m.From)
		}
		return
	}
	batch, err := transport.DecodeBatch(m.Payload)
	if err != nil {
		return
	}
	var cb []Delivery
	next := n.catchupNext.Load()
	room := n.deliveryRoom()
	// Starved-above trim evidence is only valid for a response to OUR
	// catch-up request: the echoed request start must equal the current
	// watermark (a delayed gap-chase response — requested from the
	// protocol watermark, not the catch-up one — must not mark a peer
	// as unable to serve a range it was never asked for).
	forCatchup := m.Instance == next
	starvedAbove, sawNext := false, false
	for _, iv := range batch {
		if n.inCatchup.Load() && iv.Instance < n.nextDeliver {
			switch {
			case iv.Instance == next && room > 0:
				if cb == nil {
					cb = n.getBatch()
				}
				cb = append(cb, Delivery{Ring: n.ring, Instance: iv.Instance, Value: iv.Value})
				next += iv.Value.Span()
				room--
				continue
			case iv.Instance == next:
				// The peer HAS our watermark instance; only the local
				// room ran out. Not trim evidence.
				sawNext = true
			case iv.Instance > next:
				// The peer served decided instances ABOVE our catch-up
				// watermark but nothing at it — e.g. the trim point fell
				// inside the requested window. Same evidence as an
				// explicit unavailable report (unless the watermark
				// entry was present, see sawNext).
				starvedAbove = true
			}
		}
		n.learnDecision(iv.Instance, iv.Value)
	}
	if len(cb) == 0 {
		if cb != nil {
			n.ReleaseBatch(cb)
		}
		if starvedAbove && !sawNext && forCatchup && n.inCatchup.Load() {
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
	if n.catchupNext.Load() >= n.nextDeliver {
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
	peers := n.peerAcceptors()
	if len(peers) == 0 {
		return
	}
	for _, p := range peers {
		if !n.catchupUnavailFrom[p] {
			return
		}
	}
	n.abortCatchup()
}

// maybeSkip implements rate leveling: if the coordinator proposed fewer
// values than the pacer's target λ·Δ in the last window, it proposes one
// skip value covering the shortfall so learners merging this ring do not
// stall (Section 4). The pacer owns the window accounting, including the
// saturated-pipeline deficit carry.
func (n *Node) maybeSkip() {
	if !n.isCoord || !n.phase1Ready {
		return
	}
	proposed := n.proposedInWin
	n.proposedInWin = 0
	span := n.pacer.window(proposed, len(n.inFlight) >= n.cfg.Window)
	if span > 0 {
		n.proposeSkip(span)
	}
}

// skipOnDemand closes a frontier offset the tick cannot: windows this
// coordinator missed (Phase 1 finished late, a dropped tick, a ring added
// later) are never made up by a pacer that only levels each window to λ·Δ,
// and a value at index k of another ring is held at every learner until
// this ring reaches k. A learner whose merge holds such a value names the
// instance it needs (KindSkipRequest, recorded as skipTarget); here, at
// the loop's propose point, one skip from nextInstance through it is
// proposed at once — logged and forwarded like any value. A target already
// assigned costs nothing, so N learners asking for one index cost one
// skip; without Phase 1 or a free pipeline slot it stays recorded.
func (n *Node) skipOnDemand() {
	if n.skipTarget < n.nextInstance || !n.isCoord || !n.phase1Ready || !n.cfg.SkipEnabled || len(n.inFlight) >= n.cfg.Window {
		return
	}
	span := n.pacer.onDemand(n.skipTarget-n.nextInstance+1, n.proposedInWin)
	n.skipTarget = 0 // one request, one skip: a clamped span is not chased
	n.onDemandCount.Add(1)
	n.proposeSkip(span)
}

// proposeSkip proposes one skip value covering span null instances.
func (n *Node) proposeSkip(span int) {
	n.proposeValue(transport.Value{
		ID:    transport.MakeValueID(n.id, n.proposeSeq.Add(1)),
		Skip:  true,
		Count: uint32(span),
	}, time.Now())
}

// startTrimRound begins a trim round (Section 5.2): the coordinator asks
// every learner (replica) for its safe instance k[x]p.
func (n *Node) startTrimRound() {
	if !n.isCoord {
		return
	}
	n.safeResps = make(map[transport.ProcessID]uint64)
	n.mu.Lock()
	learners := n.rc.Learners()
	n.mu.Unlock()
	for _, l := range learners {
		n.send(l, transport.Message{Kind: transport.KindSafeReq, Ring: n.ring})
	}
}

// handleSafeResp collects replicas' safe instances; with a quorum Q_T it
// trims at the minimum (Predicate 2: K[x]_T <= k[x]_p for all p in Q_T).
func (n *Node) handleSafeResp(m transport.Message) {
	if !n.isCoord {
		return
	}
	n.safeResps[m.From] = m.Instance
	n.mu.Lock()
	learners := n.rc.Learners()
	acceptors := n.rc.Acceptors()
	n.mu.Unlock()
	quorum := len(learners)/2 + 1
	if len(n.safeResps) < quorum {
		return
	}
	min := uint64(0)
	first := true
	for _, k := range n.safeResps {
		if first || k < min {
			min = k
			first = false
		}
	}
	if min <= n.lastTrim || min == 0 {
		return
	}
	n.lastTrim = min
	for _, a := range acceptors {
		if a == n.id {
			_ = n.cfg.Log.Trim(min)
			continue
		}
		n.send(a, transport.Message{Kind: transport.KindTrim, Ring: n.ring, Instance: min})
	}
}

// handleTrim applies a trim instruction at an acceptor.
func (n *Node) handleTrim(m transport.Message) {
	if !n.isAcceptor() {
		return
	}
	_ = n.cfg.Log.Trim(m.Instance)
}

// send stages a message for transmission on this ring, stamping the ring
// id. Staged messages are released by commitStaged at the end of the
// current burst, after the burst's votes are durable — callers never
// bypass the group-commit barrier.
func (n *Node) send(to transport.ProcessID, m transport.Message) {
	m.Ring = n.ring
	m.To = to
	m.Block = nil        // read blocks never ride outbound (burst-owned)
	m.Value.Buf.Retain() // the staged send holds its own payload reference
	n.stagedSends = append(n.stagedSends, m)
}
