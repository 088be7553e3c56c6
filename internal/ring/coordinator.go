package ring

import (
	"math"
	"slices"

	"amcast/internal/bufpool"
	"amcast/internal/transport"
)

// The coordinator's half of paxosState: Phase 1 once per term, the propose
// point, retries, rate leveling and trim rounds.

// becomeCoordinator starts a coordinator term: it pre-executes Phase 1 for
// all instances above the node's decision watermark with a term-unique
// ballot (the ring config version, which only grows).
func (s *paxosState) becomeCoordinator(out *paxosOut, ballot uint32) {
	s.ballot = ballot
	s.phase1Ready = false
	s.proposedInWin = 0
	// Restart instance assignment above everything this process knows to
	// be decided; Phase 1B reports may push it further.
	s.nextInstance = max(s.nextInstance, s.maxDecided+1)
	m := transport.Message{Kind: transport.KindPhase1A, Ballot: ballot, Instance: s.nextDeliver, Seq: uint64(s.self)}
	s.acceptPhase1(out, &m) // the coordinator is an acceptor: it votes first
	if s.succ == 0 {
		s.completePhase1(out, m) // single-member ring
		return
	}
	s.send(out, s.succ, m)
}

// handleProposal enqueues a value at the coordinator (the propose point
// assigns it an instance) or forwards it there.
func (s *paxosState) handleProposal(out *paxosOut, m transport.Message) {
	if !s.isCoord {
		// Forwarded verbatim: m keeps its decoded Traces, so the sampled
		// context survives this hop.
		if s.rc.Coordinator != s.self {
			s.send(out, s.rc.Coordinator, m)
		}
		return
	}
	if s.pendingQ.len() >= s.maxPending {
		// Admission control sheds the proposal loudly, to the ORIGINAL
		// proposer (Seq, stamped at the client; m.From names the last hop).
		// The event loop stamps the retry-after hint.
		replyTo := m.From
		if m.Seq != 0 {
			replyTo = transport.ProcessID(m.Seq)
		}
		s.send(out, replyTo, transport.Message{Kind: transport.KindOverloaded, Count: uint32(s.pendingQ.len()), Value: transport.Value{ID: m.Value.ID}})
		return
	}
	s.pendingQ.push(m.Value)
}

// tryPropose assigns queued proposals to consensus instances while the
// pipeline window has room, packing the head-of-line proposals into one
// instance when batching is enabled (message packing, Section 4).
func (s *paxosState) tryPropose(out *paxosOut) {
	for s.isCoord && s.phase1Ready && s.pendingQ.len() > 0 && len(s.inFlight) < s.window {
		v, packed := s.packBatch()
		if !v.Skip {
			s.proposedInWin++
			out.packed = append(out.packed, packed)
		}
		out.dequeued += packed
		s.proposeValue(out, v)
	}
}

// packBatch dequeues the value of the next instance and reports how many
// proposals it carries: the head, and with packing every proposal behind it
// that fits batchBytes (a larger head travels alone; a Skip is never
// packed). The packet is encoded straight from the queue into one pooled
// buffer, whose creation reference the returned value carries; the packed
// proposals' queue references drop once their bytes are copied.
//
//lint:pooled
func (s *paxosState) packBatch() (transport.Value, int) {
	q := &s.pendingQ
	head := q.at(0)
	count, size, encoded := 1, len(head.Data), transport.BatchHeaderSize+transport.BatchEntrySize(*head)
	if s.batchBytes > 0 && !head.Skip {
		for count < q.len() && size < s.batchBytes {
			next := q.at(count)
			if next.Skip || size+len(next.Data) > s.batchBytes {
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

// proposeValue runs Phase 2 for one value at the next instance.
func (s *paxosState) proposeValue(out *paxosOut, v transport.Value) {
	inst := s.nextInstance
	s.nextInstance += v.Span()
	s.proposeAt(out, inst, v)
}

// proposeAt runs Phase 2 for v at instance inst. The flight slot takes
// ownership of the caller's payload reference (released when the slot
// frees: decided, superseded, or node exit).
func (s *paxosState) proposeAt(out *paxosOut, inst uint64, v transport.Value) {
	if f, busy := s.inFlight[inst]; busy {
		f.value.Buf.Release() // superseded
	}
	s.inFlight[inst] = flight{value: v, lastSent: s.now}
	s.sendPhase2(out, inst, v)
}

// skipValue is a new skip covering span null instances.
func (s *paxosState) skipValue(span uint64) transport.Value {
	s.skipSeq++
	return transport.Value{ID: transport.MakeValueID(s.self, s.skipSeq), Skip: true, Count: uint32(span)}
}

// sendPhase2 votes for the coordinator's own proposal (the record is
// staged ahead of every send, as recovery requires) and emits the combined
// Phase 2A/2B message, or decides at once in a single-acceptor ring.
func (s *paxosState) sendPhase2(out *paxosOut, inst uint64, v transport.Value) {
	decides := s.majority <= 1 || s.succ == 0
	out.votes = append(out.votes, paxosVote{ballot: s.ballot, inst: inst, value: v, decides: decides})
	if decides {
		s.decide(out, inst, v)
		return
	}
	s.send(out, s.succ, transport.Message{Kind: transport.KindPhase2, Ballot: s.ballot, Instance: inst, Votes: 1, Value: v})
}

// completePhase1 finishes the coordinator's Phase 1: with a majority of
// promises it re-proposes, for every reported instance, the value of the
// highest-ballot vote (it may have been chosen, and it beats this
// coordinator's own flight too), fills the holes between them, and opens
// the pipeline. Nothing below the report's trim floor is proposed: those
// instances are decided, and a reporter that trimmed them can no longer
// say with what; learners behind the floor recover by checkpoint transfer.
func (s *paxosState) completePhase1(out *paxosOut, m transport.Message) {
	if int(m.Votes) < s.majority || s.promised > s.ballot {
		// Election failed (stale promises elsewhere, or here); the retry
		// tick runs Phase 1 again.
		s.phase1Ready = false
		return
	}
	// The message may have set out before this process restarted at the
	// same ballot: every vote cast at this ballot since is in its own log.
	s.report(&m)
	if m.Count == math.MaxUint32 {
		// The floor lies too far above this coordinator to tell where it
		// is: it proposes nothing until it has caught up.
		s.phase1Ready = false
		return
	}
	// The flights of the previous term end here: Phase 1 decides what this
	// term proposes below nextInstance, and a flight it does not re-propose
	// (below the floor, or inside a skip) must not be retried at this ballot.
	for _, f := range s.inFlight { //lint:allow determinism releasing every slot does not depend on the order
		f.value.Buf.Release()
	}
	clear(s.inFlight)
	floor := m.Instance + uint64(m.Count)
	votes := decodeReport(m.Payload)
	s.nextInstance = max(s.nextInstance, floor)
	for _, vt := range votes {
		s.nextInstance = max(s.nextInstance, vt.instance+vt.value.Span())
	}
	// An instance at or above the floor that no reported vote covers was
	// chosen by no majority: a skip fills it, or learners would wait at the
	// hole forever. One this process delivered is re-proposed too: the
	// acceptors that voted may not know it is decided, and no vote here
	// serves it.
	open := floor // the first instance the values proposed so far leave open
	for i, vt := range votes {
		if i > 0 && votes[i-1].instance == vt.instance || vt.instance < open {
			continue // a lower-ballot vote for an instance handled, one a skip spans, or one below the floor
		}
		if hole := max(open, s.nextDeliver); hole < vt.instance {
			s.proposeAt(out, hole, s.skipValue(vt.instance-hole))
		}
		s.proposeAt(out, vt.instance, vt.value)
		open = vt.instance + vt.value.Span()
	}
	if hole := max(open, s.nextDeliver); hole < s.nextInstance {
		s.proposeAt(out, hole, s.skipValue(s.nextInstance-hole))
	}
	s.phase1Ready = true
}

// retryUndecided re-proposes, in instance order, the instances whose
// decision is overdue (lost messages, successor change mid-flight), and
// re-runs a Phase 1 that did not complete.
func (s *paxosState) retryUndecided(out *paxosOut) {
	if !s.isCoord {
		return
	}
	if !s.phase1Ready {
		if s.promised <= s.ballot { // else its term is over: await the config change
			s.becomeCoordinator(out, s.ballot)
		}
		return
	}
	cutoff := s.now.Add(-s.retryInterval)
	s.overdue = s.overdue[:0]
	for inst, f := range s.inFlight {
		if inst < s.nextDeliver || f.lastSent.Before(cutoff) {
			s.overdue = append(s.overdue, inst)
		}
	}
	slices.Sort(s.overdue)
	for _, inst := range s.overdue {
		if inst < s.nextDeliver {
			s.freeSlot(inst)
			continue
		}
		f := s.inFlight[inst]
		f.lastSent = s.now
		s.inFlight[inst] = f
		s.sendPhase2(out, inst, f.value)
	}
}

// maybeSkip implements rate leveling (Section 4): a Δ window that proposed
// fewer values than the pacer's λ·Δ ends with one skip over the shortfall,
// so learners merging this ring do not stall.
func (s *paxosState) maybeSkip(out *paxosOut) {
	if !s.isCoord || !s.phase1Ready {
		return
	}
	proposed := s.proposedInWin
	s.proposedInWin = 0
	if span := s.pacer.window(proposed, len(s.inFlight) >= s.window); span > 0 {
		s.proposeValue(out, s.skipValue(uint64(span)))
	}
}

// skipOnDemand closes a frontier offset the tick cannot (windows missed
// before Phase 1 finished, a dropped tick, a ring added later): a learner
// whose merge holds a value of another ring names the instance it needs
// (skipTarget), and one skip from nextInstance through it is proposed at
// once. A target already assigned costs nothing; without Phase 1 or a free
// pipeline slot it stays recorded.
func (s *paxosState) skipOnDemand(out *paxosOut) {
	if s.skipTarget < s.nextInstance || !s.isCoord || !s.phase1Ready || !s.skipEnabled || len(s.inFlight) >= s.window {
		return
	}
	span := s.pacer.onDemand(s.skipTarget-s.nextInstance+1, s.proposedInWin)
	s.skipTarget = 0 // one request, one skip: a clamped span is not chased
	out.onDemand = true
	s.proposeValue(out, s.skipValue(uint64(span)))
}

// startTrimRound begins a trim round (Section 5.2): the coordinator asks
// every learner (replica) for its safe instance k[x]p.
func (s *paxosState) startTrimRound(out *paxosOut) {
	if !s.isCoord {
		return
	}
	clear(s.safeResps)
	for _, l := range s.rc.Learners() {
		s.send(out, l, transport.Message{Kind: transport.KindSafeReq})
	}
}

// handleSafeResp collects replicas' safe instances; with a quorum Q_T it
// trims at the minimum (Predicate 2: K[x]_T <= k[x]_p for all p in Q_T).
func (s *paxosState) handleSafeResp(out *paxosOut, m transport.Message) {
	if !s.isCoord {
		return
	}
	s.safeResps[m.From] = m.Instance
	if len(s.safeResps) < len(s.rc.Learners())/2+1 {
		return
	}
	low := m.Instance
	for _, k := range s.safeResps { //lint:allow determinism a minimum does not depend on the order
		low = min(low, k)
	}
	if low <= s.lastTrim {
		return
	}
	s.lastTrim = low
	for _, a := range s.rc.Acceptors() {
		if a == s.self {
			out.trim = low
			continue
		}
		s.send(out, a, transport.Message{Kind: transport.KindTrim, Instance: low})
	}
}
