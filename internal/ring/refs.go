package ring

import (
	"amcast/internal/bufpool"
	"amcast/internal/transport"
)

// This file owns the ring node's side of the pooled-buffer ownership
// contract (see README "Memory discipline").
//
// Messages arriving over a pooled transport (TCP) carry a read-block
// reference in Message.Block whose payload slices alias the block. The
// run loop cannot let those aliases ride into long-lived state — the
// block recycles at the end of the burst — so on entry every message is
// interned: hot-path kinds (Proposal, Phase2, Decision) have Value.Data
// copied ONCE into a refcounted size-class buffer (Value.Buf) that every
// downstream holder shares by taking its own reference, and everything
// else is detached onto the heap (cold paths: elections, catch-up,
// trim). The burst owns the block reference and the interned buffer's
// creation reference; both are dropped by releaseBurst after the burst's
// group commit and staged flush complete.
//
// Reference holders and their release points:
//
//	pendingQ entry      push retains; pop transfers to the caller
//	inFlight flight     released when the slot frees (decided/stale/exit)
//	learned map         transfers to the step's decided entry, then to
//	                    the pending Delivery; released where no consumer
//	                    takes it or while it lags
//	Delivery entry      released by ReleaseBatch (the consumer's, or the
//	                    queue's at Stop and DropDeliveries)
//	staged send         retained by send, released by commitStaged
//	WAL record (pooled) tracked in walBufs, released after PutBatch

// internInbound pins one inbound message's payload for use beyond the
// current read block. In-process transports never attach a block; their
// messages arrive either with plain heap slices (Value.Buf nil) or —
// when the sender's payload was pooled, e.g. a coordinator's packed
// batch — with Value.Data aliasing a pooled buffer whose reference the
// transport retained per delivered copy (Message.RetainRefs). Both pass
// through as-is: consume parks the transferred reference with the burst
// and downstream holders retain their own, exactly as on the TCP path.
//
//lint:pooled
func (n *Node) internInbound(m *transport.Message) {
	if m.Block == nil {
		return
	}
	switch m.Kind {
	case transport.KindProposal, transport.KindPhase2, transport.KindDecision:
		if len(m.Value.Data) > 0 {
			buf := bufpool.Copy(m.Value.Data)
			m.Value.Data = buf.Bytes()
			m.Value.Buf = buf
		}
		if len(m.Payload) > 0 {
			m.Payload = append([]byte(nil), m.Payload...)
		}
	default:
		// Cold kinds (Phase 1, retransmission, trim): plain heap copies.
		m.DetachAlias()
	}
}

// consume interns one inbound message, parks its pooled references until
// the burst is committed and flushed, and feeds it to the Paxos state.
func (n *Node) consume(m transport.Message) {
	n.internInbound(&m)
	if m.Block != nil {
		n.burstRefs = append(n.burstRefs, m.Block)
		m.Block = nil // the burst owns the block ref, not the handlers
	}
	if m.Value.Buf != nil {
		n.burstRefs = append(n.burstRefs, m.Value.Buf)
	}
	n.ingestTraces(&m)
	n.feed(&paxosEvent{kind: evMessage, msg: m})
}

// releaseBurst drops the read-block and interned-value references owned
// by the burst just drained. Every holder that outlives the burst took
// its own reference, so this is the point where a payload nobody kept
// returns to the pool.
func (n *Node) releaseBurst() {
	for i, b := range n.burstRefs {
		b.Release()
		n.burstRefs[i] = nil
	}
	n.burstRefs = n.burstRefs[:0]
}

// releaseRunState drops every pooled reference still held by run-loop
// state when the event loop exits, so a stopped node leaves no buffers
// outstanding. Runs after the final commitStaged/finalHandoff; batches
// still queued for the consumer are released by Stop.
func (n *Node) releaseRunState() {
	for _, v := range n.px.learned {
		v.Buf.Release()
	}
	for _, f := range n.px.inFlight {
		f.value.Buf.Release()
	}
	for n.px.pendingQ.len() > 0 {
		v := n.px.pendingQ.pop()
		v.Buf.Release()
	}
	for i := range n.pending {
		n.pending[i].Value.Buf.Release()
		n.pending[i] = Delivery{}
	}
	n.releaseWALBufs()
	for i := range n.stagedSends {
		n.stagedSends[i].Value.Buf.Release()
		n.stagedSends[i] = transport.Message{}
	}
	n.stagedSends = n.stagedSends[:0]
	n.releaseBurst()
}

// releaseWALBufs returns the pooled buffers backing committed (or
// abandoned) WAL records to the pool. Only called after PutBatch
// succeeded (the log copied the records) or on exit.
func (n *Node) releaseWALBufs() {
	for i, b := range n.walBufs {
		b.Release()
		n.walBufs[i] = nil
	}
	n.walBufs = n.walBufs[:0]
}
