package ring

import (
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// run is the node's single event loop, which drives its Paxos state
// (paxos.go): it feeds px one event at a time and carries out what each
// step decides. No handler writes the log or the network directly: a
// step's records are staged into walBatch and its sends into stagedSends,
// and the loop commits both once per drained burst (commitStaged) — one
// group-commit fsync and one coalesced transport flush instead of a write
// barrier and a syscall per message.
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
	// re-proposal cutoff still honours the full RetryInterval.
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
			// ProposeValueTraced routes by rc at once; the Paxos state applies the
			// change below, once the log holds every staged record.
			n.mu.Lock()
			n.rc = cfg
			n.mu.Unlock()
			n.cfgPending = true
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
		case now := <-retry.C:
			n.feed(&paxosEvent{kind: evRetry, now: now})
			allowRemoteCatchup = true
		case <-skipC:
			n.feed(&paxosEvent{kind: evDelta})
		case <-trimC:
			n.feed(&paxosEvent{kind: evTrim})
		}
		if n.cfgPending {
			n.feed(&paxosEvent{kind: evConfig, cfg: n.rc})
		}
		n.feed(&paxosEvent{kind: evPropose})
		// Commit the burst's staged votes and sends before handing
		// deliveries over: a delivery must never outrun the durability
		// of the votes that decided it.
		n.commitStaged()
		n.handoffPending()
		// With everything durable, catch-up may replay dropped instances
		// into the freed delivery buffer; remote requests are paced by the
		// retry tick, and the extra commit releases one if staged.
		n.pumpCatchup(allowRemoteCatchup)
		n.commitStaged()
		// Committed and flushed: the burst's read blocks and interned
		// payloads go back to the pool (later holders took their own refs).
		n.releaseBurst()
	}
}

// feed steps the Paxos state with one event and carries out its effects.
// An event that reads the log is fed only after the staged batch commits,
// so the log holds every record this node has acted on; while the commit
// is wedged such an event is dropped (a configuration change stays
// pending). Every other event is fed: its records join the retained batch,
// whose failed commit drops its sends, so to the rest of the ring the node
// is a lossy link until its log accepts the batch.
func (n *Node) feed(ev *paxosEvent) {
	if n.readsLog(ev) {
		if n.commitStaged(); n.commitWedged {
			return
		}
	}
	if ev.kind == evConfig {
		n.cfgPending = false
	}
	n.px.step(&n.out, ev)
	n.apply()
	if ev.kind == evPropose {
		n.queueDepth.Set(int64(n.px.pendingQ.len()))
	}
}

// readsLog reports whether stepping ev may read the log: an acceptor's
// Phase 1B report, a retransmission, a Phase 1 this process starts
// (configuration change, retry tick), or a learned value checked against
// a vote staged for its instance.
func (n *Node) readsLog(ev *paxosEvent) bool {
	switch k := ev.msg.Kind; {
	case ev.kind == evConfig || ev.kind == evRetry:
		return true
	case ev.kind != evMessage:
		return false
	case k == transport.KindPhase1A || k == transport.KindRetransmitReq:
		return true
	case k == transport.KindRetransmitResp:
		return len(n.walBatch) > 0
	case k == transport.KindDecision:
		for i := range n.walBatch {
			if n.walBatch[i].Instance == ev.msg.Instance {
				return true
			}
		}
	}
	return false
}

// apply carries out the effects of the step just taken, then resets the
// output for the next one.
func (n *Node) apply() {
	out := &n.out
	if out.promise != 0 {
		n.walBatch = append(n.walBatch, storage.Record{Instance: promiseInstance, Data: encodePromise(out.promise)})
	}
	for _, v := range out.votes {
		n.recordVote(v.ballot, v.inst, v.value)
		if v.decides {
			n.spanNow("decide", v.inst, v.value)
		}
	}
	for i := range out.sends {
		m := &out.sends[i]
		switch m.Kind {
		case transport.KindProposal:
			n.spanNow("forward", 0, m.Value)
		case transport.KindOverloaded:
			// Retry-after: about one queue-drain time at the measured rate.
			n.shedCount.Add(1)
			m.Instance = uint64(n.retryAfter() / time.Millisecond)
		case transport.KindPhase2, transport.KindDecision:
			// Built here, not forwarded: re-attach the parked contexts.
			if len(m.Traces) == 0 {
				n.attachTraces(m, m.Value)
			}
		case transport.KindRetransmitResp:
			n.attachBatchTraces(m)
		default: // nothing to count, stamp or trace
		}
		n.send(m.To, *m)
	}
	for _, p := range out.packed {
		n.packGauge.Observe(p)
	}
	if out.dequeued > 0 {
		n.drain.observe(out.dequeued, time.Now())
	}
	if out.onDemand {
		n.onDemandCount.Add(1)
	}
	if out.trim > 0 {
		_ = n.cfg.Log.Trim(out.trim)
	}
	n.handOver(out.decided)
	out.reset()
}

// handOver takes the decided values of one step, in instance order, each
// with the learned map's payload reference. It never blocks: full batches
// go to the delivery stage, which turns a consumer past its lag cap into a
// catch-up instead of wedging the loop.
func (n *Node) handOver(decided []transport.InstanceValue) {
	if len(decided) == 0 {
		return
	}
	n.decidedCount.Add(uint64(len(decided)))
	for _, iv := range decided {
		if iv.Value.Skip {
			n.skippedCount.Add(iv.Value.Span())
		}
		// While catching up, live deliveries are suppressed — the
		// consumer has not yet seen [catchupNext, here), so delivering
		// now would reorder; catch-up replays this instance later.
		if !n.px.isLearner() || n.inCatchup.Load() {
			iv.Value.Buf.Release() // no Delivery entry will carry it
			continue
		}
		n.pending = append(n.pending, Delivery{Ring: n.ring, Instance: iv.Instance, Value: iv.Value})
		if len(n.pending) >= deliveryBatchCap {
			// Votes first: a released delivery never outruns them (a
			// wedged commit keeps the batch accumulating).
			n.commitStaged()
			n.handoffPending()
		}
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
			// forgotten. Events that read the log (Phase 1 reports,
			// retransmissions, a Phase 1 this node starts) commit first,
			// so while the batch is retained they are not fed instead of
			// reading a log without these votes. A log that fails
			// persistently wedges this acceptor's output (sends dropped,
			// deliveries withheld) — and once the failure budget is spent
			// the node steps out loudly (self MarkDown) so the surviving
			// quorum stops waiting on its votes. The batch keeps
			// retrying: if the disk recovers, the node rejoins on its own.
			n.commitWedged = true
			n.commitFails++
			n.commitFailCount.Add(1)
			n.lastCommitErr.Store(err.Error())
			if !n.steppedOut && n.commitFails >= n.cfg.CommitFailureBudget {
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
		// The transport serialized the frame synchronously: drop the ref.
		n.stagedSends[i].Value.Buf.Release()
		n.stagedSends[i] = transport.Message{} // release payload references
	}
	n.stagedSends = n.stagedSends[:0]
}

// recordVote stages the durable vote record for an instance (the log is
// the acceptor's only memory of it), encoded into a pooled buffer that
// walBufs recycles once the group commit lands.
//
//lint:pooled
func (n *Node) recordVote(ballot uint32, inst uint64, v transport.Value) {
	rec := bufpool.Get(acceptRecordSize(v))
	n.walBatch = append(n.walBatch, storage.Record{Instance: inst, Data: appendAccept(rec.Bytes()[:0], ballot, inst, v)})
	n.walBufs = append(n.walBufs, rec)
	n.spanNow("vote", inst, v)
	n.traceStagedVote(inst, v)
}

// send stages a message on this ring; commitStaged releases it once the
// burst's votes are durable.
func (n *Node) send(to transport.ProcessID, m transport.Message) {
	m.Ring = n.ring
	m.To = to
	m.Block = nil        // read blocks never ride outbound (burst-owned)
	m.Value.Buf.Retain() // the staged send holds its own payload reference
	n.stagedSends = append(n.stagedSends, m)
}
