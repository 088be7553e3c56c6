package ring

import (
	"bytes"
	"math"
	"slices"
	"time"

	"amcast/internal/coord"
	"amcast/internal/transport"
)

// paxosState is Ring Paxos as a pure state machine: the acceptor's promise,
// the coordinator's term (coordinator.go), the learner's watermarks and the
// loop's own copy of the ring configuration. step is its only transition: it
// reads no lock, channel, atomic, tracer, metric or clock, and the log only
// through a read-only view; pooled payload references are memory to it, not
// I/O. Node.run feeds it events and carries out their effects, and so does
// TestRingModel, over every schedule of a small ring.
type paxosState struct {
	self          transport.ProcessID
	log           paxosLog
	window        int
	maxPending    int
	batchBytes    int
	retryInterval time.Duration
	skipEnabled   bool

	// The loop's copy of the ring configuration, computed once per change.
	rc       coord.RingConfig
	roles    coord.Role
	succ     transport.ProcessID // 0: no other live member
	majority int
	peers    []transport.ProcessID // live acceptors other than self

	// Acceptor and coordinator.
	isCoord       bool
	phase1Ready   bool
	ballot        uint32
	promised      uint32
	nextInstance  uint64
	pendingQ      proposalQueue
	inFlight      map[uint64]flight // by value: the map recycles its own slots
	proposedInWin int               // non-skip instances proposed this Δ window (λ is an instance rate)
	skipTarget    uint64            // highest instance a learner asked this coordinator to skip through (0: none)
	skipSeq       uint32
	pacer         *skipPacer
	now           time.Time // the clock of the last retry tick
	overdue       []uint64  // scratch for retryUndecided

	// Learner. handed is the consumer's position, the next instance to hand
	// it: it trails nextDeliver while the consumer lags, and fill closes the
	// distance. room is how many more entries the consumer takes (the
	// driver's last reading, less what was handed over since); ended marks a
	// stream ended because what it needed next is gone.
	learned     map[uint64]transport.Value
	nextDeliver uint64
	maxDecided  uint64
	handed      uint64
	room        int
	ended       bool
	// servedFrom is the lowest instance retransmission serves from the
	// log: StartInstance after recovery from a peer's checkpoint, whose
	// lower instances may hold stale votes (Config.StartFromPeer), else 1.
	servedFrom uint64
	idleTicks  int // retry ticks since the learner last made progress
	chased     int // index in peers of the acceptor the last fill asked
	// gone lists the peers that reported goneAt, the first instance this
	// node misses, gone from their logs; goneTrim is set once one said it
	// trimmed it.
	gone     []transport.ProcessID
	goneAt   uint64
	goneTrim bool

	// Trim round (coordinator).
	safeResps map[transport.ProcessID]uint64
	lastTrim  uint64
}

// paxosLog is the read-only view of the acceptor's log the state reads
// votes through. The event loop commits the staged batch before it feeds an
// event that reads it.
type paxosLog interface {
	Get(instance uint64) ([]byte, bool)
	FirstRetained() uint64
	Last() uint64
}

// flight tracks an instance proposed by this coordinator, for retries.
type flight struct {
	value    transport.Value
	lastSent time.Time
}

// paxosEventKind names what a paxosEvent carries.
type paxosEventKind uint8

const (
	evMessage paxosEventKind = iota // msg: one ring message
	evConfig                        // cfg: a ring configuration change
	evRetry                         // now: the retry tick
	evDelta                         // the Δ tick (rate leveling)
	evTrim                          // the trim tick
	evPropose                       // the propose point at the end of a burst
	evFill                          // room: the consumer's room, read once the burst committed
)

// paxosEvent is one input to step.
type paxosEvent struct {
	kind paxosEventKind
	msg  transport.Message
	cfg  coord.RingConfig
	now  time.Time
	room int
}

// paxosOut is what one step decides: the event loop stages the records for the
// burst's group commit, releases the sends only once they committed, hands
// the values handed to the consumer (decided, from its position on, in
// order) to the delivery stage, and resets the out.
type paxosOut struct {
	votes    []paxosVote
	promise  uint32              // a raised promise to stage (0: none)
	sends    []transport.Message // To set; a Phase 2 or Decision counting this node's vote follows its record
	decided  []transport.InstanceValue
	trim     uint64 // trim the log through this instance (0: none)
	packed   []int  // messages per non-skip instance proposed
	dequeued int    // proposals dequeued at the propose point
	onDemand bool   // a skip was proposed on a learner's request

	ndecided int    // entries nextDeliver passed, handed over or not
	nskipped uint64 // instances their skips span
	overrun  bool   // the consumer ran out of room: it lags from here
	dropped  int    // values released while the consumer lags
	served   int    // values handed to a lagging consumer
	end      bool   // end the stream: what the consumer needs next is gone
}

// paxosVote is a vote record to stage. decides marks the vote that completed
// a majority: the instance is decided here.
type paxosVote struct {
	ballot  uint32
	inst    uint64
	value   transport.Value
	decides bool
}

// reset empties o for the next step, dropping its references to values.
func (o *paxosOut) reset() {
	clear(o.votes)
	clear(o.sends)
	clear(o.decided)
	*o = paxosOut{votes: o.votes[:0], sends: o.sends[:0], decided: o.decided[:0], packed: o.packed[:0]}
}

// newPaxosState builds the state of a node configured by cfg (defaults
// applied) over its log at time now. Its promise comes back from the log
// (Section 5.1, acceptor recovery); its votes stay there, where Phase 1 and
// retransmission read them. The first config event applies the ring.
func newPaxosState(cfg Config, log paxosLog, now time.Time) paxosState {
	s := paxosState{
		self: cfg.Self, window: cfg.Window, maxPending: cfg.MaxPending, batchBytes: cfg.BatchBytes,
		retryInterval: cfg.RetryInterval, skipEnabled: cfg.SkipEnabled, pacer: newSkipPacer(cfg), now: now,
		inFlight:     make(map[uint64]flight),
		learned:      make(map[uint64]transport.Value),
		nextDeliver:  max(1, cfg.StartInstance),
		handed:       max(1, cfg.StartInstance),
		room:         cfg.deliverBuffer,
		servedFrom:   1,
		nextInstance: 1,
		safeResps:    make(map[transport.ProcessID]uint64),
		log:          log,
	}
	if cfg.StartFromPeer {
		s.servedFrom = s.nextDeliver
	}
	if log != nil {
		if rec, ok := log.Get(promiseInstance); ok {
			s.promised = decodePromise(rec)
		}
	}
	return s
}

func (s *paxosState) isAcceptor() bool { return s.roles.Has(coord.RoleAcceptor) }
func (s *paxosState) isLearner() bool  { return s.roles.Has(coord.RoleLearner) }

// step applies one event and appends its effects to out.
//
//lint:deterministic
func (s *paxosState) step(out *paxosOut, ev *paxosEvent) {
	switch ev.kind {
	case evMessage:
		s.handle(out, ev.msg)
	case evConfig:
		s.applyConfig(out, ev.cfg)
	case evRetry:
		s.now = ev.now
		s.retryUndecided(out)
		s.fill(out, true)
	case evFill:
		s.room = ev.room
		s.fill(out, false)
	case evDelta:
		s.maybeSkip(out)
	case evTrim:
		s.startTrimRound(out)
	case evPropose:
		// Handlers only enqueued proposals or freed window slots, so what
		// arrived in the burst is packed together (Section 4); no timer
		// holds a lone proposal or the skip a learner asked for.
		s.tryPropose(out)
		s.skipOnDemand(out)
	}
}

// send emits m to process to; a send to 0 (no successor) goes nowhere.
func (s *paxosState) send(out *paxosOut, to transport.ProcessID, m transport.Message) {
	if to != 0 {
		m.To = to
		out.sends = append(out.sends, m)
	}
}

// applyConfig reacts to a ring configuration change: new successor, and
// possibly a coordinator handover to this process.
func (s *paxosState) applyConfig(out *paxosOut, cfg coord.RingConfig) {
	s.rc = cfg
	s.roles = cfg.Roles(s.self)
	s.succ, _ = cfg.Successor(s.self)
	s.majority = cfg.Majority()
	s.peers = s.peers[:0]
	for _, a := range cfg.AliveAcceptors() {
		if a != s.self {
			s.peers = append(s.peers, a)
		}
	}
	wasCoord := s.isCoord
	s.isCoord = cfg.Coordinator == s.self && s.isAcceptor()
	if s.isCoord && (!wasCoord || s.ballot < uint32(cfg.Version)) {
		s.becomeCoordinator(out, uint32(cfg.Version))
	}
	if !s.isCoord {
		s.phase1Ready = false
	}
}

// handle dispatches one protocol message.
func (s *paxosState) handle(out *paxosOut, m transport.Message) {
	switch m.Kind {
	case transport.KindProposal:
		s.handleProposal(out, m)
	case transport.KindPhase1A:
		// The coordinator completes Phase 1 when the message returns,
		// unless it set out from further than this process delivered: it
		// predates a restart, and only a fresh Phase 1 re-proposes what
		// lies below. A message whose term is over stops at its origin
		// (Seq), at an acceptor that promised more, or at one it reaches
		// with every acceptor's vote: a config change took its origin out
		// of the ring. Other acceptors vote and forward.
		if s.isCoord && m.Ballot == s.ballot {
			if m.Instance <= s.nextDeliver {
				s.completePhase1(out, m)
			}
			return
		}
		if transport.ProcessID(m.Seq) == s.self || m.Ballot < s.promised || s.isAcceptor() && int(m.Votes) >= len(s.rc.Acceptors()) {
			return
		}
		s.acceptPhase1(out, &m)
		s.send(out, s.succ, m)
	case transport.KindPhase2:
		s.handlePhase2(out, m)
	case transport.KindDecision:
		// Apply and forward until the loop closes at its origin.
		s.learnRemote(out, m.Instance, m.Value)
		if s.succ != transport.ProcessID(m.Seq) {
			s.send(out, s.succ, m)
		}
	case transport.KindRetransmitReq:
		s.serveRetransmit(out, m)
	case transport.KindRetransmitResp:
		s.learnServed(out, m)
	case transport.KindSafeResp:
		s.handleSafeResp(out, m)
	case transport.KindTrim:
		if s.isAcceptor() {
			out.trim = m.Instance
		}
	case transport.KindSkipRequest:
		// Only recorded: the propose point acts on it. Dropped anywhere
		// but at the coordinator — the Δ tick covers a request that raced
		// a coordinator change.
		if s.isCoord && m.Instance > s.skipTarget {
			s.skipTarget = m.Instance
		}
	default:
		// A kind this ring version does not speak (the router delivers only
		// ring kinds here): fair-lossy semantics make dropping it safe.
	}
}

// promise raises the promised ballot, staging its durable record. A
// coordinator that promises a ballot above its own has lost its term: it
// casts no more votes at its own ballot.
func (s *paxosState) promise(out *paxosOut, ballot uint32) {
	if ballot > s.promised {
		s.promised = ballot
		out.promise = ballot
	}
	s.phase1Ready = s.phase1Ready && s.promised <= s.ballot
}

// acceptPhase1 applies a Phase 1A message at an acceptor: promise the
// ballot (durably), vote, and attach this acceptor's logged votes so a new
// coordinator can re-propose possibly-chosen values.
func (s *paxosState) acceptPhase1(out *paxosOut, m *transport.Message) {
	if !s.isAcceptor() || m.Ballot < s.promised {
		return // no vote: a learner, or a stale ballot
	}
	s.promise(out, m.Ballot)
	m.Votes++
	s.report(m)
}

// report appends to a Phase 1A's report every vote logged here at or above
// its scan point, record as stored, so each keeps the ballot it was cast at.
// A log trimmed above the scan point raises the report's trim floor, which
// Count carries as an offset from the scan point (saturating): below the
// floor some reporter dropped votes of decided instances.
func (s *paxosState) report(m *transport.Message) {
	if first := s.log.FirstRetained(); first > m.Instance {
		m.Count = uint32(max(uint64(m.Count), min(first-m.Instance, math.MaxUint32)))
	}
	var report []transport.InstanceValue
	for inst, last := max(m.Instance, s.log.FirstRetained(), 1), s.log.Last(); inst <= last; inst++ {
		if rec, ok := s.log.Get(inst); ok {
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
}

// handlePhase2 is the acceptor/forwarder path for combined Phase 2A/2B.
func (s *paxosState) handlePhase2(out *paxosOut, m transport.Message) {
	if !s.isAcceptor() {
		s.send(out, s.succ, m)
		return
	}
	if m.Ballot < s.promised {
		return // stale coordinator; drop so it cannot gather a majority
	}
	s.promise(out, m.Ballot)
	// The vote is staged ahead of the forward (Section 5.1): the event loop
	// releases the forward only once the burst's group commit landed.
	m.Votes++
	decides := int(m.Votes) >= s.majority
	out.votes = append(out.votes, paxosVote{ballot: m.Ballot, inst: m.Instance, value: m.Value, decides: decides})
	if decides {
		s.decide(out, m.Instance, m.Value)
		return
	}
	s.send(out, s.succ, m)
}

// decide learns an instance decided at this process and circulates the
// Decision, originating here.
func (s *paxosState) decide(out *paxosOut, inst uint64, v transport.Value) {
	s.learn(out, inst, v)
	s.send(out, s.succ, transport.Message{Kind: transport.KindDecision, Instance: inst, Value: v, Seq: uint64(s.self)})
}

// learn records a decided instance and moves nextDeliver over every value
// it makes contiguous, handing each over if the consumer is there. The
// learned map holds its own payload reference, which transfers to the out
// entry.
func (s *paxosState) learn(out *paxosOut, inst uint64, v transport.Value) {
	if inst < s.nextDeliver {
		s.freeSlot(inst)
		return // duplicate (retransmission or second loop)
	}
	if _, ok := s.learned[inst]; ok {
		return
	}
	s.idleTicks = 0
	v.Buf.Retain()
	s.learned[inst] = v
	s.maxDecided = max(s.maxDecided, inst+v.Span()-1)
	s.freeSlot(inst)
	for {
		val, ok := s.learned[s.nextDeliver]
		if !ok {
			return
		}
		delete(s.learned, s.nextDeliver)
		out.ndecided++
		if val.Skip {
			out.nskipped += val.Span()
		}
		if s.lagging() {
			val.Buf.Release() // fill hands it over later
			out.dropped++
		} else {
			s.handOver(out, val)
		}
		s.nextDeliver += val.Span()
	}
}

// handOver hands the consumer the value at its position, or releases it
// where no consumer takes it. A consumer out of room starts to lag: the
// value is released and its position stays, for fill to hand it over later.
func (s *paxosState) handOver(out *paxosOut, v transport.Value) {
	switch {
	case !s.isLearner() || s.ended:
		v.Buf.Release()
	case s.room <= 0:
		v.Buf.Release()
		out.overrun = true
		out.dropped++
		return
	default:
		s.room--
		out.decided = append(out.decided, transport.InstanceValue{Instance: s.handed, Value: v})
	}
	s.handed += v.Span()
}

// lagging reports whether the consumer is behind nextDeliver.
func (s *paxosState) lagging() bool {
	return s.isLearner() && !s.ended && s.handed < s.nextDeliver
}

// firstMissing is the first instance this node lacks: the consumer's
// position while it lags, else nextDeliver.
func (s *paxosState) firstMissing() uint64 {
	if s.lagging() {
		return s.handed
	}
	return s.nextDeliver
}

// learnRemote learns a value decided elsewhere. An acceptor whose logged
// vote for the instance holds another value — cast at a lower ballot than
// the one that chose v, while it was out of the ring — stages v in its
// place: retransmission and catch-up serve the log as the decided values,
// and a Phase 1 report of the chosen value is safe at any ballot.
func (s *paxosState) learnRemote(out *paxosOut, inst uint64, v transport.Value) {
	if _, known := s.learned[inst]; s.isAcceptor() && inst >= s.nextDeliver && !known {
		if ballot, stale := s.staleVote(inst, v); stale {
			out.votes = append(out.votes, paxosVote{ballot: ballot, inst: inst, value: v})
		}
	}
	s.learn(out, inst, v)
}

// staleVote reports the ballot of this acceptor's logged vote for inst if
// that vote holds a value other than v. A coordinator's flight is its vote,
// so the log is read only for an instance it did not propose.
func (s *paxosState) staleVote(inst uint64, v transport.Value) (uint32, bool) {
	if f, ok := s.inFlight[inst]; ok && sameValue(f.value, v) {
		return 0, false
	}
	rec, ok := s.log.Get(inst)
	if !ok {
		return 0, false
	}
	ballot, rinst, logged, err := decodeAccept(rec)
	return ballot, err == nil && rinst == inst && !sameValue(logged, v)
}

// sameValue reports whether a and b are one value.
func sameValue(a, b transport.Value) bool {
	return a.ID == b.ID && a.Skip == b.Skip && a.Batched == b.Batched && a.Count == b.Count && bytes.Equal(a.Data, b.Data)
}

// freeSlot releases the pipeline slot of a decided instance (the propose
// point refills it).
func (s *paxosState) freeSlot(inst uint64) {
	if f, ok := s.inFlight[inst]; ok {
		f.value.Buf.Release()
		delete(s.inFlight, inst)
	}
}

// fill is the one way this node gets an instance it lacks. It hands a
// lagging consumer, from its position and in order, what this acceptor
// logged below nextDeliver: the loop feeds fill only once its log holds
// every record the node acted on. With ask set it requests the first range
// the node misses from one peer, in rotation, since a peer that learned the
// range without voting on it has nothing to serve: the consumer's lag, sized
// by its room, or a gap below the highest decision. A learner that heard
// nothing for a few ticks (just recovered, ring quiet) probes blindly.
func (s *paxosState) fill(out *paxosOut, ask bool) {
	for s.lagging() && s.room > 0 && s.isAcceptor() {
		v, ok := s.lookupDecided(s.handed)
		if !ok {
			break
		}
		s.handOver(out, v)
		out.served++
	}
	if !ask || len(s.peers) == 0 {
		return
	}
	from, end := s.firstMissing(), max(s.nextDeliver, s.maxDecided+1)
	if s.lagging() {
		end = min(end, from+uint64(s.room))
	}
	switch {
	case from < end:
	case s.lagging() || !s.isLearner() || s.ended:
		return
	default:
		if s.idleTicks++; s.idleTicks < 3 {
			return
		}
		s.idleTicks, end = 0, from+512
	}
	s.chased = (s.chased + 1) % len(s.peers)
	s.send(out, s.peers[s.chased], transport.Message{Kind: transport.KindRetransmitReq, Instance: from, Count: uint32(min(end-from, 512))})
}

// learnServed takes a retransmission: the entry at a lagging consumer's
// position goes to it, and every entry is learned. A reply that says the
// first missing instance it was asked for is gone from the peer's log,
// whether it serves instances above it or none, counts once per peer. Once
// every live acceptor lacks it, the step ends the stream, and the consumer
// recovers by checkpoint transfer (Section 5.2). This acceptor lacks it too
// unless it logged a vote there that a Phase 1 could decide again: none
// re-proposes below a trim point.
func (s *paxosState) learnServed(out *paxosOut, m transport.Message) {
	from := s.firstMissing()
	for it := transport.IterBatch(m.Payload); ; {
		iv, ok := it.Next()
		if !ok {
			break
		}
		if iv.Instance == s.handed && s.lagging() && s.room > 0 {
			s.handOver(out, iv.Value)
			out.served++
		}
		s.learnRemote(out, iv.Instance, iv.Value)
	}
	if m.Count == 0 || m.Instance != from || len(s.peers) == 0 {
		return
	}
	if s.goneAt != from {
		s.goneAt, s.gone, s.goneTrim = from, s.gone[:0], false
	}
	if !slices.Contains(s.gone, m.From) {
		s.gone = append(s.gone, m.From)
	}
	s.goneTrim = s.goneTrim || m.Count == retransmitUnavailable
	for _, p := range s.peers {
		if !slices.Contains(s.gone, p) {
			return
		}
	}
	if !s.goneTrim && s.isAcceptor() && !s.rc.Down[s.self] {
		if _, ok := s.log.Get(from); ok {
			return
		}
	}
	if s.isLearner() && !s.ended {
		s.ended, out.end = true, true
	}
}

// serveRetransmit serves decided values from the acceptor log. Only
// instances below the acceptor's own contiguous decision watermark are
// served: those are stable and their logged vote equals the decision.
func (s *paxosState) serveRetransmit(out *paxosOut, m transport.Message) {
	if !s.isAcceptor() {
		return
	}
	var batch []transport.InstanceValue
	end := m.Instance + uint64(m.Count)
	// Below servedFrom a stale vote may sit in the log: serve none.
	for inst := m.Instance; inst >= s.servedFrom && inst < end && inst < s.nextDeliver; inst++ {
		if v, ok := s.lookupDecided(inst); ok {
			batch = append(batch, transport.InstanceValue{Instance: inst, Value: v})
			inst += v.Span() - 1
		}
	}
	// The request start is echoed: it ties the response to the instance the
	// learner missed.
	resp := transport.Message{Kind: transport.KindRetransmitResp, Instance: m.Instance}
	if len(batch) > 0 {
		resp.Payload = transport.EncodeBatch(batch)
	}
	// The first instance asked for is decided, but this log cannot serve
	// it: say so, or the learner would retry a void forever.
	switch {
	case len(batch) > 0 && batch[0].Instance == m.Instance:
	case m.Instance < max(s.log.FirstRetained(), s.servedFrom):
		resp.Count = retransmitUnavailable // trimmed (Section 5.2), or below servedFrom
	case m.Instance < s.nextDeliver:
		resp.Count = retransmitUnlogged
	}
	if len(batch) > 0 || resp.Count != 0 {
		s.send(out, m.From, resp)
	}
}

// RetransmitResp.Count flags a reply that does not serve the first instance
// asked for, decided at the acceptor: retransmitUnavailable if the
// acceptor's log will never hold it (trimmed, or below servedFrom),
// retransmitUnlogged if it learned the instance without a vote.
const (
	retransmitUnavailable = 1
	retransmitUnlogged    = 2
)

// lookupDecided returns the decided value of an instance below the
// delivery watermark from this acceptor's log. The value is a heap view of
// the logged record (no pooled reference).
func (s *paxosState) lookupDecided(inst uint64) (transport.Value, bool) {
	if rec, ok := s.log.Get(inst); ok {
		if _, rinst, v, err := decodeAccept(rec); err == nil && rinst == inst {
			return v, true
		}
	}
	return transport.Value{}, false
}
