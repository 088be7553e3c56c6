package core

import (
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/recovery"
	"amcast/internal/ring"
	"amcast/internal/transport"
)

// mergeState is the deterministic merge as a pure state machine: the
// round-robin cursor, each subscribed ring's frontier and the armed epoch
// marker. It takes no lock, reads no clock and touches no channel, so one
// (subscription, M, decided sequences, start position) gives one delivered
// order whatever the arrival schedule (TestMergeModel walks them all).
// Node.merge feeds it the ring batches and does the I/O.
type mergeState struct {
	m   uint64
	cur Cursor
	// frontier[i] is the next instance ring cur.Groups[i] owes the merge;
	// frontier[i]-1 is the ring's delivered high-water mark.
	frontier []uint64
	// asked[i] is the last skip target requested of ring cur.Groups[i].
	asked []uint64
	// marker is the armed epoch transition's value id (0: none).
	marker uint64
}

// mergeAction is mergeState.step's answer to one decided entry.
type mergeAction uint8

const (
	mergeConsume mergeAction = iota // a skip: consumed silently
	mergeDeliver                    // the entry's messages were appended
	mergeCut                        // appended through the marker: end the batch, switch the epoch
)

// newMergeState starts the merge at cursor cur with every ring delivering
// from start[g]+1: a fresh subscription or a restored checkpoint.
func newMergeState(m int, cur Cursor, start recovery.Vector) *mergeState {
	s := &mergeState{m: uint64(m), cur: cur, frontier: make([]uint64, len(cur.Groups)), asked: make([]uint64, len(cur.Groups))}
	for i, g := range cur.Groups {
		s.frontier[i] = start[g] + 1
	}
	return s
}

// turn returns the index of the ring whose next decided entry the merge
// needs, first passing over the turns that credits already paid for.
// Credit from skip ranges that overshoot a turn's quota carries over to
// later turns, so all learners observe identical turn boundaries.
func (s *mergeState) turn() int {
	for s.cur.Remaining == 0 {
		i := s.cur.Next
		if s.cur.Credits[i] < s.m {
			s.cur.Remaining = s.m - s.cur.Credits[i]
			s.cur.Credits[i] = 0
			break
		}
		s.cur.Credits[i] -= s.m
		s.cur.Next = (i + 1) % len(s.cur.Groups)
	}
	return s.cur.Next
}

// step consumes d, the next decided entry of the ring whose turn it is
// (turn), appending what it delivers to out: a plain value, or a packed
// one unpacked in packet order. A turn that ends is normalized to the next
// ring, so a cursor published at this point resumes at that ring's turn.
func (s *mergeState) step(out []Delivery, d ring.Delivery) ([]Delivery, mergeAction) {
	i, span := s.cur.Next, d.Value.Span()
	s.frontier[i] = d.Instance + span
	if span >= s.cur.Remaining {
		s.cur.Credits[i] += span - s.cur.Remaining
		s.cur.Remaining = 0
		s.cur.Next = (i + 1) % len(s.cur.Groups)
	} else {
		s.cur.Remaining -= span
	}
	var hit bool
	switch {
	case d.Value.Skip:
		return out, mergeConsume
	case d.Value.Batched:
		out, hit = unpack(out, s.cur.Groups[i], d, s.marker)
	default:
		out = append(out, Delivery{Group: s.cur.Groups[i], Instance: d.Instance, ValueID: d.Value.ID, Data: d.Value.Data})
		hit = s.marker != 0 && d.Value.ID == s.marker
	}
	if hit {
		return out, mergeCut
	}
	return out, mergeDeliver
}

// stall answers a turn whose ring has nothing decided: the merge flushes
// and blocks. last[j] is the highest instance carrying a value (not a skip)
// that ring j has decided, 0 for none. If another ring holds a value, the
// blocked ring is a straggler, and target is the instance through which it
// must decide before everything held can be delivered: ring j burns its
// credits first, so it needs ⌈(Credits[j]+held[j])/m⌉ turns, and the k-th
// of them comes after the blocked ring finished its turn in progress and
// k−1 whole ones. Skips past a ring's last value are not worth chasing (two
// idle rings would ask for each other's fillers forever). ask is true once
// per new target, and never when no other ring holds a value.
func (s *mergeState) stall(last []uint64) (target uint64, ask bool) {
	i := s.cur.Next
	var backlog uint64
	for j, lv := range last {
		if j != i && lv >= s.frontier[j] {
			backlog = max(backlog, s.cur.Credits[j]+lv-s.frontier[j]+1)
		}
	}
	if backlog == 0 {
		return 0, false
	}
	target = s.frontier[i] + s.cur.Remaining + s.m*((backlog+s.m-1)/s.m-1) - 1
	if target <= s.asked[i] {
		return target, false
	}
	s.asked[i] = target
	return target, true
}

// resubscribe switches the merge to groups (ascending) at the marker: a
// fresh round-robin at epoch+1. Kept rings continue from their frontiers,
// added rings start at start[g]+1.
func (s *mergeState) resubscribe(groups []transport.RingID, start recovery.Vector) {
	frontier, asked := make([]uint64, len(groups)), make([]uint64, len(groups))
	for k, g := range groups {
		frontier[k] = start[g] + 1
		for j, h := range s.cur.Groups {
			if h == g {
				frontier[k], asked[k] = s.frontier[j], s.asked[j]
			}
		}
	}
	s.cur = Cursor{Groups: append([]transport.RingID(nil), groups...), Credits: make([]uint64, len(groups)), Epoch: s.cur.Epoch + 1}
	s.frontier, s.asked = frontier, asked
}

// unpack appends the application messages packed into one consensus
// instance (message packing, Section 4) to batch in packet order, every one
// stamped with the packet's instance. It walks the packet with an iterator,
// not a callback: a closure over the merge's batch state would be a heap
// allocation per packed instance. A corrupt payload rolls back, so a packed
// instance delivers all of its messages or none. It reports whether a
// message carried marker (0 when none is armed).
func unpack(batch []Delivery, group transport.RingID, d ring.Delivery, marker uint64) ([]Delivery, bool) {
	mark, hit := len(batch), false
	it := transport.IterBatch(d.Value.Data)
	for iv, ok := it.Next(); ok; iv, ok = it.Next() {
		batch = append(batch, Delivery{Group: group, Instance: d.Instance, ValueID: iv.Value.ID, Data: iv.Value.Data})
		hit = hit || marker != 0 && iv.Value.ID == marker
	}
	if it.Err() != nil {
		return batch[:mark], false
	}
	return batch, hit
}

// ringSource is the merge's reader of one ring's delivery queue: it holds
// the batch in progress and recycles exhausted buffers back to the ring.
type ringSource struct {
	rn     *ring.Node
	buf    []ring.Delivery
	idx    int
	closed bool // the ring ended its delivery stream
}

// ready reports whether a delivery is available without blocking, taking
// the ring's next queued batch once the current one is exhausted.
func (s *ringSource) ready() bool {
	if s.idx < len(s.buf) {
		return true
	}
	s.recycle()
	s.buf, s.closed = s.rn.TakeBatch()
	return s.buf != nil
}

// next returns the current delivery and advances. Call only after ready or
// awaitTurn returned true.
func (s *ringSource) next() ring.Delivery {
	s.idx++
	return s.buf[s.idx-1]
}

// recycle hands an exhausted batch buffer back to the ring for reuse.
func (s *ringSource) recycle() {
	if s.buf != nil {
		s.rn.ReleaseBatch(s.buf)
		s.buf, s.idx = nil, 0
	}
}

// merge drives the deterministic merge, batch-at-a-time: it feeds st the
// entries of the ring whose turn it is and does what st cannot — take and
// recycle ring batches, wait, publish, pin payloads, run the handler and
// record telemetry.
//
// Deliveries accumulate into one output batch; the batch is flushed — the
// delivered vector and cursor published under a single lock acquisition,
// then the handler invoked — when it reaches the configured bounds or when
// the merge would otherwise block waiting for a ring.
//
// When an epoch transition is armed (PrepareResubscribe) and the consumed
// instance carries the marker value, the batch is cut immediately after
// that instance and the subscription switches before the handler runs: the
// published cursor already carries the new group set and incremented
// epoch, so a checkpoint taken inside that handler records the
// transition exactly at the marker.
//
//lint:deterministic
func (n *Node) merge(st *mergeState, srcs []*ringSource, handler BatchHandler) {
	defer close(n.mergeDone)
	defer func() {
		for _, s := range srcs {
			s.recycle()
		}
	}()
	maxMsgs := n.batchMessages
	n.progressNs.Store(nowNanos()) // merge is live from this point
	batch := make([]Delivery, 0, maxMsgs)
	batchBytes := 0
	last := make([]uint64, len(srcs))

	// held pins the pooled buffers backing the batch's payload aliases:
	// a ring batch can recycle (ringSource.recycle) before this batch is
	// emitted, so the merge takes one reference per consumed delivery and
	// drops them only after the handler has run.
	var held []*bufpool.Buf
	releaseHeld := func() {
		for idx, b := range held {
			b.Release()
			held[idx] = nil
		}
		held = held[:0]
	}
	defer releaseHeld()
	// emit hands the accumulated batch to the handler (after the vector
	// and cursor were published by the caller), then fires the boundary.
	emit := func() {
		if len(batch) > 0 {
			n.delivered.Add(uint64(len(batch)))
			handler(batch)
			clear(batch) // release payload references
			batch, batchBytes = batch[:0], 0
		}
		releaseHeld() // no batch entry aliases pooled bytes anymore
		if fn := n.boundary.Load(); fn != nil {
			(*fn)()
		}
	}
	flush := func() {
		n.mu.Lock()
		n.publishLocked(st)
		if n.cursor.Epoch == st.cur.Epoch && len(n.cursor.Credits) == len(st.cur.Credits) {
			// Same subscription as the last publication (a switch
			// installs a fresh clone): only the position moved, and
			// MergeCursor hands out copies, so overwrite in place.
			copy(n.cursor.Credits, st.cur.Credits)
			n.cursor.Next, n.cursor.Remaining = st.cur.Next, st.cur.Remaining
		} else {
			n.cursor = st.cur.Clone()
		}
		n.mu.Unlock()
		n.progressNs.Store(nowNanos())
		emit()
	}

	for {
		i := st.turn()
		if !srcs[i].ready() {
			// About to block: hand over what we have so the subscriber
			// is never idle while the merge waits.
			flush()
			if !n.awaitTurn(st, srcs, last) {
				// Ring stream ended. At Stop that is normal; while the
				// node is still running it means the ring terminated
				// delivery (the next instance this learner needs was
				// trimmed from every live acceptor), which the ring
				// reports as FlowStats.CatchupAborted.
				return
			}
		}
		d := srcs[i].next()
		if d.Value.Buf != nil {
			d.Value.Buf.Retain()
			held = append(held, d.Value.Buf)
		}
		pending := n.resub.Load()
		st.marker = 0
		if pending != nil {
			st.marker = pending.marker
		}
		from := len(batch)
		var act mergeAction
		batch, act = st.step(batch, d)
		for k := from; k < len(batch); k++ {
			batchBytes += len(batch[k].Data)
			n.traceDelivery(srcs[i].rn, &batch[k])
		}
		switch {
		case act == mergeCut:
			// Epoch transition: cut the batch at the marker instance,
			// switch the subscription, then hand the batch over — the
			// handler observes the new cursor (epoch+1, fresh
			// round-robin) at this boundary.
			srcs = n.switchSubscription(pending, st, srcs)
			last = make([]uint64, len(srcs))
			emit()
		case len(batch) >= maxMsgs || batchBytes >= maxBatchBytes:
			flush()
		}
		select {
		case <-n.done:
			return
		default:
		}
	}
}

// awaitTurn blocks until the ring whose turn it is has a delivery; false
// means its stream ended or the node shut down. It waits on the node's
// wake channel, not on that ring alone, and on every wake asks st whether
// what the other rings hold makes this ring a straggler — each instance it
// owes costs every learner the rest of a Δ window — and if so asks the
// ring's coordinator to skip at once. The clock readings time the wait for
// telemetry; the request depends on none.
func (n *Node) awaitTurn(st *mergeState, srcs []*ringSource, last []uint64) bool {
	s, g := srcs[st.cur.Next], st.cur.Groups[st.cur.Next]
	start := nowNanos()
	for !s.ready() {
		if s.closed {
			return false
		}
		for j, o := range srcs {
			last[j] = o.rn.LastValue()
		}
		if t, ask := st.stall(last); ask {
			s.rn.RequestSkip(t)
		}
		select {
		case <-n.wake:
		case <-n.done:
			return false
		}
	}
	n.observeMergeStall(g, time.Duration(nowNanos()-start))
	return true
}

// publishLocked raises the delivered vector to st's frontiers (n.mu held).
func (n *Node) publishLocked(st *mergeState) {
	for i, g := range st.cur.Groups {
		if hi := st.frontier[i] - 1; hi > n.vector[g] {
			n.vector[g] = hi
		}
	}
}

// traceDelivery stamps a delivery with the sampled trace context its ring
// saw for the value id (if any) and records the "merge" hop: the instant
// the deterministic merge emitted the value into the globally ordered
// stream. Telemetry only — the context never feeds delivered state.
func (n *Node) traceDelivery(rn *ring.Node, d *Delivery) {
	if n.cfg.Tracer == nil {
		return
	}
	ctx, ok := rn.TraceContextOf(d.ValueID)
	if !ok {
		return
	}
	d.Trace = ctx
	n.cfg.Tracer.Add(ctx, "merge", uint32(d.Group), d.Instance, d.ValueID, time.Now(), 0) //lint:allow determinism trace telemetry only: the span timestamp feeds the trace recorder, never delivered state
}

// switchSubscription applies an armed epoch transition at the marker
// boundary: it publishes the delivered marks (including the marker
// instance), prunes/extends the vector for the new group set, switches st
// to epoch+1 and rebuilds the ring sources — kept rings continue from their
// exact positions, removed rings end their delivery stream
// (ring.Node.DropDeliveries: the node may still be an acceptor of that
// ring, and it must queue nothing for a merge that left), added rings start
// at their join point. Runs on the merge goroutine.
func (n *Node) switchSubscription(pending *resubRequest, st *mergeState, srcs []*ringSource) []*ringSource {
	newGroups := pending.groups
	old := st.cur.Groups
	n.mu.Lock()
	n.publishLocked(st)
	for g := range n.vector {
		if !containsRing(newGroups, g) {
			delete(n.vector, g)
		}
	}
	newSrcs := make([]*ringSource, len(newGroups))
	for k, g := range newGroups {
		if _, ok := n.vector[g]; !ok {
			n.vector[g] = n.cfg.StartVector[g]
		}
		newSrcs[k] = &ringSource{rn: n.rings[g]}
		for j, h := range old {
			if h == g {
				newSrcs[k] = srcs[j]
			}
		}
	}
	for j, g := range old {
		if containsRing(newGroups, g) {
			continue
		}
		// Fully leaving a ring (stopping the learner) is future work.
		srcs[j].recycle()
		srcs[j].rn.DropDeliveries()
		if n.dropped == nil {
			n.dropped = make(map[transport.RingID]bool)
		}
		n.dropped[g] = true
	}
	st.resubscribe(newGroups, n.cfg.StartVector)
	n.cursor = st.cur.Clone()
	n.subscribed = append([]transport.RingID(nil), newGroups...)
	n.mu.Unlock()
	n.resub.CompareAndSwap(pending, nil)
	return newSrcs
}
