package ring

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/transport"
)

// TestRingModel explores the schedules of a three-acceptor ring over
// paxosState: the harness plays the event loop — it commits each step's records,
// then releases its sends — and the network may deliver, drop or duplicate
// any message in flight. See ringModel for the world and its bounds.

const (
	modelProcs  = 3
	modelValueA = 0xA
	modelValueB = 0xB
	modelClient = 9 // the process proposals come from and retries go to
	modelSkip   = 1 << 63
)

// modelPlant names a bug the harness plants in the state it drives.
type modelPlant uint8

const (
	plantNone      modelPlant = iota
	plantNoVote               // an acceptor forwards its Phase 2 without staging the vote
	plantLowBallot            // completePhase1 re-proposes the lowest-ballot reported vote
	plantNoFloor              // logs hide their trim point, so Phase 1 sees no trim floor
)

// modelLog is an acceptor's stable log: what the harness committed, by
// instance (the promise at promiseInstance), less what it trimmed.
type modelLog struct {
	recs     [][]byte
	trimmed  uint64 // instances 1..trimmed are gone
	hideTrim bool   // plantNoFloor
}

func (l *modelLog) Get(inst uint64) ([]byte, bool) {
	if inst < uint64(len(l.recs)) && l.recs[inst] != nil {
		return l.recs[inst], true
	}
	return nil, false
}

func (l *modelLog) FirstRetained() uint64 {
	if l.trimmed == 0 || l.hideTrim {
		return 0
	}
	return l.trimmed + 1
}

func (l *modelLog) Last() uint64 { return uint64(max(len(l.recs), 1) - 1) }

func (l *modelLog) trim(upTo uint64) {
	for inst := uint64(1); inst <= upTo && inst < uint64(len(l.recs)); inst++ {
		l.recs[inst] = nil
	}
	l.trimmed = max(l.trimmed, upTo)
}

func (l *modelLog) put(inst uint64, rec []byte) {
	for uint64(len(l.recs)) <= inst {
		l.recs = append(l.recs, nil)
	}
	l.recs[inst] = rec
}

// modelNode is one process: its Paxos state, its log, and what it
// delivered since it last (re)started.
type modelNode struct {
	st        paxosState
	log       *modelLog
	version   uint64   // the config version it applied
	delivered []uint64 // value ids, in delivery order
	next      uint64   // the instance its next delivery must carry
}

// modelMsg is a message in flight.
type modelMsg struct {
	to transport.ProcessID
	m  transport.Message
}

// modelVote is one vote an acceptor ever committed.
type modelVote struct {
	inst   uint64
	ballot uint32
	id     uint64
}

// ringModel is one world: three acceptor-learners, node 1 coordinating at
// ballot 1 (config version 1), and a client that sends proposal A to node 1
// and B to node 2. One config change — version 2: node 1 suspected, node 2
// coordinating — reaches node 2 (and node 3, whose part it does not change)
// and node 1 in either order; once both have it, version 3 (node 1 back,
// coordinating again) may reach all three in a run without faults. Ballot 3
// then runs Phase 1 over votes of ballots 1 and 2 that ballot 2's Phase 1 did
// not see (it cannot visit an acceptor out of the ring): without it no
// reachable report holds two values for one instance, and the highest-ballot
// rule would go untested. At most modelMaxFaults faults happen — a message
// dropped or duplicated, or an acceptor crashing and restarting (losing
// everything uncommitted: its promise and votes come back from its log) —
// at most modelMaxTicks retry ticks fire, with nothing in flight, at a node
// with something to retry or chase, and at most modelMaxFlight messages are
// in flight. At most one trim round runs, with nothing in flight: it trims, at every
// acceptor the published config holds alive, through the highest instance
// a majority of learners delivered — so an acceptor out of the ring keeps
// its votes, and a learner behind the trim point (restarted, or out of the
// ring) needs a checkpoint to catch up.
type ringModel struct {
	nodes   [modelProcs + 1]*modelNode // by process id
	flight  []modelMsg
	cfg     [4]coord.RingConfig // by version
	version uint64              // the published config version
	crashed bool
	dup     bool
	drops   int
	ticks   int                        // retry ticks fired while exploring
	trimTo  uint64                     // the trim round's trim point (0: none ran)
	decided map[uint64]uint64          // instance → value id, at any learner ever
	votes   map[modelVote]map[int]bool // committed votes → voters, ever
	plant   modelPlant
	out     paxosOut
	client  []modelMsg // proposals the client has yet to send
}

const (
	modelMaxFlight = 2
	modelMaxTicks  = 1
	modelMaxFaults = 1
	modelStateCap  = 200000 // a bound that stops bounding fails, not swaps
)

func modelConfig(version uint64, coordinator transport.ProcessID) coord.RingConfig {
	rc := coord.RingConfig{Ring: 1, Version: version, Coordinator: coordinator}
	if coordinator != 1 {
		rc.Down = map[transport.ProcessID]bool{1: true}
	}
	for p := 1; p <= modelProcs; p++ {
		rc.Members = append(rc.Members, coord.Member{ID: transport.ProcessID(p), Roles: fullRoles})
	}
	return rc
}

func modelValue(id uint64) transport.Value {
	return transport.Value{ID: id, Count: 1, Data: []byte{byte(id)}}
}

func modelProposal(to transport.ProcessID, id uint64) modelMsg {
	return modelMsg{to: to, m: transport.Message{Kind: transport.KindProposal, From: modelClient, Seq: modelClient, Value: modelValue(id)}}
}

func newRingModel(plant modelPlant) (*ringModel, error) {
	w := &ringModel{
		cfg:     [4]coord.RingConfig{{}, modelConfig(1, 1), modelConfig(2, 2), modelConfig(3, 1)},
		version: 1,
		decided: map[uint64]uint64{},
		votes:   map[modelVote]map[int]bool{},
		plant:   plant,
	}
	for p := 1; p <= modelProcs; p++ {
		if err := w.start(p, 1); err != nil {
			return nil, err
		}
	}
	// Node 1's Phase 1 circulates loss-free before anything else happens.
	for len(w.flight) > 0 {
		if err := w.deliver(0); err != nil {
			return nil, err
		}
	}
	if !w.nodes[1].st.phase1Ready {
		return nil, fmt.Errorf("node 1 did not complete Phase 1")
	}
	w.client = []modelMsg{modelProposal(1, modelValueA), modelProposal(2, modelValueB)}
	return w, nil
}

// start (re)starts process p over its log, under the published config,
// delivering from instance from (a checkpoint covers what lies below).
func (w *ringModel) start(p int, from uint64) error {
	log := &modelLog{hideTrim: w.plant == plantNoFloor}
	if old := w.nodes[p]; old != nil {
		log = old.log
	}
	cfg := Config{Self: transport.ProcessID(p), RetryInterval: time.Second, MaxPending: 16, StartInstance: from}
	w.nodes[p] = &modelNode{st: newPaxosState(cfg.withDefaults(), log, time.Unix(0, 0)), log: log, next: from}
	return w.stepNode(p, &paxosEvent{kind: evConfig, cfg: w.cfg[w.version]})
}

// stepNode feeds p one event and then the propose point, as the event
// loop does after every event.
func (w *ringModel) stepNode(p int, ev *paxosEvent) error {
	nd := w.nodes[p]
	if ev.kind == evConfig {
		nd.version = ev.cfg.Version
	}
	// Phase 1 completing (its message back with a majority, set out from no
	// further than the coordinator delivered, no higher ballot promised
	// since): for every instance reported — by the acceptors the message
	// passed, or in the coordinator's own log since — and not spanned by a
	// skip re-proposed below it, the highest-ballot vote must be re-proposed
	// — unless it lies below the report's trim floor (Count) or the
	// coordinator's own: a reporter may have trimmed a higher-ballot vote.
	var want map[uint64]uint64
	if m := &ev.msg; ev.kind == evMessage && m.Kind == transport.KindPhase1A && nd.st.isCoord && m.Ballot == nd.st.ballot &&
		int(m.Votes) >= nd.st.majority && m.Instance <= nd.st.nextDeliver && nd.st.promised <= m.Ballot {
		best := map[uint64]reportedVote{}
		votes := decodeReport(m.Payload)
		for inst, rec := range nd.log.recs {
			if ballot, _, v, err := decodeAccept(rec); err == nil && uint64(inst) >= m.Instance && inst != promiseInstance {
				votes = append(votes, reportedVote{ballot: ballot, instance: uint64(inst), value: v})
			}
		}
		for _, vt := range votes {
			if b, ok := best[vt.instance]; !ok || vt.ballot > b.ballot {
				best[vt.instance] = vt
			}
		}
		want = map[uint64]uint64{}
		open := max(m.Instance+uint64(m.Count), nd.log.FirstRetained()) // instances a skip re-proposed spans are not proposed again
		for _, inst := range slices.Sorted(maps.Keys(best)) {
			if vt := best[inst]; inst >= open {
				want[inst] = vt.value.ID
				open = inst + vt.value.Span()
			}
		}
		if w.plant == plantLowBallot {
			ev.msg.Payload = lowestBallotReport(ev.msg.Payload)
		}
	}
	nd.st.step(&w.out, ev)
	if w.plant == plantNoVote && ev.kind == evMessage && ev.msg.Kind == transport.KindPhase2 {
		w.out.votes = w.out.votes[:0]
	}
	for inst, id := range want {
		if !slices.ContainsFunc(w.out.votes, func(v paxosVote) bool { return v.inst == inst && v.value.ID == id }) {
			return fmt.Errorf("node %d completed Phase 1 without re-proposing %x, the highest-ballot vote for instance %d: votes %v", p, id, inst, w.out.votes)
		}
	}
	if err := w.absorb(p); err != nil {
		return err
	}
	nd.st.step(&w.out, &paxosEvent{kind: evPropose})
	return w.absorb(p)
}

// lowestBallotReport keeps, for every instance of a Phase 1B report, only
// its lowest-ballot vote: what a completePhase1 that picked it would see.
func lowestBallotReport(payload []byte) []byte {
	var low []transport.InstanceValue
	for _, vt := range decodeReport(payload) {
		iv := transport.InstanceValue{Instance: vt.instance, Value: transport.Value{Data: encodeAccept(vt.ballot, vt.instance, vt.value)}}
		if len(low) > 0 && low[len(low)-1].Instance == vt.instance {
			low[len(low)-1] = iv // sorted highest ballot first
			continue
		}
		low = append(low, iv)
	}
	return transport.EncodeBatch(low)
}

// absorb is the event loop's half of a step at p: it checks what the step
// emitted, commits its records, records what p decided, and releases its
// sends.
func (w *ringModel) absorb(p int) error {
	nd, out := w.nodes[p], &w.out
	defer out.reset()
	// Log before forward: a Phase 2 or Decision that counts p's vote
	// leaves only with that vote in the step's records or the log.
	for _, m := range out.sends {
		if !(m.Kind == transport.KindPhase2 && nd.st.isAcceptor()) && !(m.Kind == transport.KindDecision && m.Seq == uint64(p)) {
			continue
		}
		staged := slices.ContainsFunc(out.votes, func(v paxosVote) bool {
			return v.inst == m.Instance && v.value.ID == m.Value.ID && (m.Kind == transport.KindDecision || v.ballot == m.Ballot)
		})
		if rec, ok := nd.log.Get(m.Instance); ok && !staged {
			b, _, v, err := decodeAccept(rec)
			staged = err == nil && v.ID == m.Value.ID && (m.Kind == transport.KindDecision || b == m.Ballot)
		}
		if !staged {
			return fmt.Errorf("node %d sent %v for instance %d (value %x, ballot %d) without its vote staged or logged", p, m.Kind, m.Instance, m.Value.ID, m.Ballot)
		}
	}
	if out.promise != 0 {
		nd.log.put(promiseInstance, encodePromise(out.promise))
	}
	if out.trim > 0 {
		nd.log.trim(out.trim)
	}
	for _, v := range out.votes {
		nd.log.put(v.inst, encodeAccept(v.ballot, v.inst, v.value))
		key := modelVote{inst: v.inst, ballot: v.ballot, id: modelID(v.value)}
		if w.votes[key] == nil {
			w.votes[key] = map[int]bool{}
		}
		w.votes[key][p] = true
	}
	for _, iv := range out.decided {
		if iv.Instance != nd.next {
			return fmt.Errorf("node %d delivered instance %d, want %d: not contiguous", p, iv.Instance, nd.next)
		}
		nd.next += iv.Value.Span()
		nd.delivered = append(nd.delivered, iv.Value.ID)
	}
	for inst, v := range nd.st.learned {
		if err := w.decide(p, inst, modelID(v)); err != nil {
			return err
		}
	}
	for _, iv := range out.decided {
		if err := w.decide(p, iv.Instance, modelID(iv.Value)); err != nil {
			return err
		}
	}
	for key, voters := range w.votes {
		if len(voters) >= nd.st.majority {
			if err := w.decide(0, key.inst, key.id); err != nil {
				return err
			}
		}
	}
	for _, m := range out.sends {
		m.From = transport.ProcessID(p)
		w.flight = append(w.flight, modelMsg{to: m.To, m: m})
	}
	return nil
}

// modelID tells values apart: a proposal by its id, a skip — proposed by
// a coordinator to fill a hole — by its span as well.
func modelID(v transport.Value) uint64 {
	if v.Skip {
		return modelSkip | uint64(v.Count)<<40 | v.ID&(1<<40-1)
	}
	return v.ID
}

// decide records that p decided (p = 0: a majority chose) value id for
// instance inst, checking agreement and validity.
func (w *ringModel) decide(p int, inst, id uint64) error {
	if id != modelValueA && id != modelValueB && id&modelSkip == 0 {
		return fmt.Errorf("node %d decided %x for instance %d: never proposed", p, id, inst)
	}
	if got, ok := w.decided[inst]; ok && got != id {
		return fmt.Errorf("instance %d decided or chosen with %x and %x (node %d)", inst, got, id, p)
	}
	w.decided[inst] = id
	return nil
}

// deliver hands the i-th message in flight to its addressee.
func (w *ringModel) deliver(i int) error {
	mm := w.flight[i]
	w.flight = slices.Delete(w.flight, i, i+1)
	if mm.to < 1 || mm.to > modelProcs {
		return nil // an Overloaded reply to the client
	}
	return w.stepNode(int(mm.to), &paxosEvent{kind: evMessage, msg: mm.m})
}

// reconfigure delivers config 2 to node p and, with the first delivery, to
// node 3, whose part it does not change.
func (w *ringModel) reconfigure(p int) error {
	if w.version < 2 {
		w.version = 2
		if err := w.stepNode(3, &paxosEvent{kind: evConfig, cfg: w.cfg[2]}); err != nil {
			return err
		}
	}
	return w.stepNode(p, &paxosEvent{kind: evConfig, cfg: w.cfg[2]})
}

// faults counts the drops, duplications and crashes of the world's past.
func (w *ringModel) faults() int {
	n := w.drops
	if w.dup {
		n++
	}
	if w.crashed {
		n++
	}
	return n
}

func (w *ringModel) tick(p int) error {
	nd := w.nodes[p]
	return w.stepNode(p, &paxosEvent{kind: evRetry, now: nd.st.now.Add(2 * time.Second)})
}

func (w *ringModel) clone() *ringModel {
	c := *w
	for p := 1; p <= modelProcs; p++ {
		nd := *w.nodes[p]
		nd.log = &modelLog{recs: slices.Clone(nd.log.recs), trimmed: nd.log.trimmed, hideTrim: nd.log.hideTrim}
		nd.st = cloneState(&nd.st, nd.log)
		nd.delivered = slices.Clone(nd.delivered)
		c.nodes[p] = &nd
	}
	c.flight = slices.Clone(w.flight)
	c.decided = maps.Clone(w.decided)
	c.votes = make(map[modelVote]map[int]bool, len(w.votes))
	for k, v := range w.votes {
		c.votes[k] = maps.Clone(v)
	}
	c.client = slices.Clone(w.client)
	c.out = paxosOut{}
	return &c
}

func cloneState(s *paxosState, log paxosLog) paxosState {
	c := *s
	c.log = log
	c.peers = slices.Clone(s.peers)
	c.inFlight = maps.Clone(s.inFlight)
	c.learned = maps.Clone(s.learned)
	c.safeResps = maps.Clone(s.safeResps)
	c.pendingQ = proposalQueue{}
	for i := 0; i < s.pendingQ.len(); i++ {
		c.pendingQ.push(*s.pendingQ.at(i))
	}
	c.overdue = nil
	pacer := *s.pacer
	c.pacer = &pacer
	return c
}

// key is the world's canonical form: two worlds with one key behave alike.
// Clocks are left out — every retry tick of the model makes every flight
// overdue.
func (w *ringModel) key() string {
	var b strings.Builder
	num := func(vs ...uint64) {
		for _, v := range vs {
			b.WriteString(strconv.FormatUint(v, 16))
			b.WriteByte(',')
		}
	}
	flag := func(f bool) uint64 {
		if f {
			return 1
		}
		return 0
	}
	num(w.version, flag(w.crashed), flag(w.dup), uint64(w.drops), uint64(w.ticks), w.trimTo)
	for p := 1; p <= modelProcs; p++ {
		nd := w.nodes[p]
		s := &nd.st
		b.WriteByte('|')
		num(nd.version, uint64(s.promised), uint64(s.ballot), flag(s.isCoord), flag(s.phase1Ready), s.nextInstance, s.nextDeliver, s.maxDecided, uint64(s.idleTicks), uint64(s.chased), nd.next, nd.log.trimmed)
		b.WriteString("q")
		for i := 0; i < s.pendingQ.len(); i++ {
			num(s.pendingQ.at(i).ID)
		}
		b.WriteString("f")
		for _, inst := range slices.Sorted(maps.Keys(s.inFlight)) {
			num(inst, s.inFlight[inst].value.ID)
		}
		b.WriteString("l")
		for _, inst := range slices.Sorted(maps.Keys(s.learned)) {
			num(inst, s.learned[inst].ID)
		}
		b.WriteString("d")
		num(nd.delivered...)
		b.WriteString("w")
		for inst, rec := range nd.log.recs {
			if ballot, _, v, err := decodeAccept(rec); err == nil {
				num(uint64(inst), uint64(ballot), modelID(v))
			}
		}
	}
	msgs := make([]string, len(w.flight))
	for i, mm := range w.flight {
		msgs[i] = modelMsgKey(mm)
	}
	slices.Sort(msgs)
	b.WriteString("|m")
	b.WriteString(strings.Join(msgs, ";"))
	b.WriteString("|c")
	for _, inst := range slices.Sorted(maps.Keys(w.decided)) {
		num(inst, w.decided[inst])
	}
	b.WriteString("|v")
	votes := make([]string, 0, len(w.votes))
	for k, voters := range w.votes {
		votes = append(votes, fmt.Sprint(k, slices.Sorted(maps.Keys(voters))))
	}
	slices.Sort(votes)
	b.WriteString(strings.Join(votes, ";"))
	b.WriteString("|p")
	for _, mm := range w.client {
		num(mm.m.Value.ID)
	}
	return b.String()
}

func modelMsgKey(mm modelMsg) string {
	m := mm.m
	s := fmt.Sprintf("%d>%d:%d/%d/%d/%d/%x/%d/%d", m.From, mm.to, m.Kind, m.Ballot, m.Instance, m.Votes, m.Value.ID, m.Seq, m.Count)
	for _, vt := range decodeReport(m.Payload) {
		s += fmt.Sprintf("r%d/%d/%x", vt.instance, vt.ballot, vt.value.ID)
	}
	if m.Kind == transport.KindRetransmitResp {
		for it := transport.IterBatch(m.Payload); ; {
			iv, ok := it.Next()
			if !ok {
				break
			}
			s += fmt.Sprintf("e%d/%x", iv.Instance, iv.Value.ID)
		}
	}
	return s
}

// modelEvent is one transition the explorer may take.
type modelEvent struct {
	name string
	run  func(*ringModel) error
}

// events lists the transitions enabled in w.
func (w *ringModel) events() []modelEvent {
	var evs []modelEvent
	for i, mm := range w.client {
		evs = append(evs, modelEvent{fmt.Sprintf("client sends %x to %d", mm.m.Value.ID, mm.to), func(w *ringModel) error {
			w.client = slices.Delete(w.client, i, i+1)
			return w.stepNode(int(mm.to), &paxosEvent{kind: evMessage, msg: mm.m})
		}})
	}
	for i := range w.flight {
		mm := w.flight[i]
		desc := fmt.Sprintf("%v %d→%d inst %d ballot %d", mm.m.Kind, mm.m.From, mm.to, mm.m.Instance, mm.m.Ballot)
		evs = append(evs, modelEvent{"deliver " + desc, func(w *ringModel) error { return w.deliver(i) }})
		if w.faults() < modelMaxFaults {
			evs = append(evs, modelEvent{"drop " + desc, func(w *ringModel) error {
				w.drops++
				w.flight = slices.Delete(w.flight, i, i+1)
				return nil
			}})
		}
		if !w.dup && w.faults() < modelMaxFaults {
			evs = append(evs, modelEvent{"duplicate " + desc, func(w *ringModel) error {
				w.dup = true
				w.flight = append(w.flight, w.flight[i])
				return nil
			}})
		}
	}
	for p := 1; p <= 2; p++ {
		if w.nodes[p].version < 2 {
			evs = append(evs, modelEvent{fmt.Sprintf("config 2 reaches %d", p), func(w *ringModel) error { return w.reconfigure(p) }})
		}
	}
	if w.version == 2 && w.nodes[1].version == 2 && w.nodes[2].version == 2 && w.faults() == 0 {
		evs = append(evs, modelEvent{"config 3 reaches all", func(w *ringModel) error {
			w.version = 3
			for p := 1; p <= modelProcs; p++ {
				if err := w.stepNode(p, &paxosEvent{kind: evConfig, cfg: w.cfg[3]}); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	for p := 1; p <= modelProcs; p++ {
		if !w.crashed && w.faults() < modelMaxFaults {
			evs = append(evs, modelEvent{fmt.Sprintf("crash-restart %d", p), func(w *ringModel) error {
				w.crashed = true
				return w.start(p, 1)
			}})
		}
		if s := &w.nodes[p].st; w.ticks < modelMaxTicks && len(w.flight) == 0 && (s.isCoord && (!s.phase1Ready || len(s.inFlight) > 0) || s.nextDeliver <= s.maxDecided) {
			evs = append(evs, modelEvent{fmt.Sprintf("retry tick at %d", p), func(w *ringModel) error { w.ticks++; return w.tick(p) }})
		}
	}
	if to := w.trimPoint(); w.trimTo == 0 && to > 0 && len(w.flight) == 0 {
		evs = append(evs, modelEvent{fmt.Sprintf("trim round through %d", to), func(w *ringModel) error { return w.trimRound(to) }})
	}
	return evs
}

// trimPoint is the highest instance a majority of learners delivered: a
// trim round may trim through it (Section 5.2, Predicate 2).
func (w *ringModel) trimPoint() uint64 {
	var through []uint64
	for p := 1; p <= modelProcs; p++ {
		through = append(through, w.nodes[p].next-1)
	}
	slices.Sort(through)
	return through[modelProcs/2]
}

// trimRound delivers the trim message of a round through to to every
// acceptor the published config holds alive.
func (w *ringModel) trimRound(to uint64) error {
	w.trimTo = to
	rc := w.cfg[w.version]
	for _, a := range rc.AliveAcceptors() {
		if err := w.stepNode(int(a), &paxosEvent{kind: evMessage, msg: transport.Message{Kind: transport.KindTrim, From: rc.Coordinator, Instance: to}}); err != nil {
			return err
		}
	}
	return nil
}

// installCheckpoint restarts learner p, behind the trim point, from a
// checkpoint through it, as a replica recovers by state transfer.
func (w *ringModel) installCheckpoint(p int) error {
	delivered := w.nodes[p].delivered
	for inst := w.nodes[p].next; inst <= w.trimTo; {
		id, ok := w.decided[inst]
		if !ok {
			return fmt.Errorf("node %d: instance %d below the trim point %d was never decided", p, inst, w.trimTo)
		}
		delivered = append(delivered, id)
		inst++
		if id&modelSkip != 0 {
			inst += (id&^modelSkip)>>40 - 1
		}
	}
	if err := w.start(p, w.trimTo+1); err != nil {
		return err
	}
	w.nodes[p].delivered = delivered
	return nil
}

// live runs w on, loss-free: every config change arrives, every message is
// delivered, every node's retry tick fires, and every fourth round the
// client re-sends to the coordinator a proposal no learner delivered, as
// clients retry end to end; a learner behind the trim point installs a
// checkpoint. Both proposals must then be delivered at every
// learner.
func (w *ringModel) live() error {
	w.flight = append(w.flight, w.client...)
	w.client = nil
	for round := 0; round < 30; round++ {
		done := true
		for p := 1; p <= modelProcs; p++ {
			nd := w.nodes[p]
			done = done && slices.Contains(nd.delivered, modelValueA) && slices.Contains(nd.delivered, modelValueB)
		}
		if done {
			return nil
		}
		for p := 1; p <= modelProcs; p++ {
			if w.nodes[p].next <= w.trimTo {
				if err := w.installCheckpoint(p); err != nil {
					return err
				}
			}
			if w.nodes[p].version < w.version {
				if err := w.stepNode(p, &paxosEvent{kind: evConfig, cfg: w.cfg[w.version]}); err != nil {
					return err
				}
			}
		}
		if round%4 == 3 {
			for _, id := range []uint64{modelValueA, modelValueB} {
				if !slices.ContainsFunc(w.nodes[1:], func(nd *modelNode) bool { return slices.Contains(nd.delivered, id) }) {
					w.flight = append(w.flight, modelProposal(w.cfg[w.version].Coordinator, id))
				}
			}
		}
		for steps := 0; len(w.flight) > 0; steps++ {
			if steps > 1000 {
				return fmt.Errorf("round %d: messages circulate forever", round)
			}
			if err := w.deliver(0); err != nil {
				return err
			}
		}
		for p := 1; p <= modelProcs; p++ {
			if err := w.tick(p); err != nil {
				return err
			}
		}
	}
	var got []string
	for p := 1; p <= modelProcs; p++ {
		got = append(got, fmt.Sprintf("node %d: %x", p, w.nodes[p].delivered))
	}
	return fmt.Errorf("not every learner delivered both proposals: %s", strings.Join(got, ", "))
}

// explore walks every schedule breadth-first, one visit per distinct world,
// checking each transition's invariants and liveness from each world. It
// returns the worlds explored, or the first violation with the schedule
// that reached it.
func exploreRing(plant modelPlant) (int, error) {
	init, err := newRingModel(plant)
	if err != nil {
		return 0, err
	}
	type item struct {
		w    *ringModel
		path []string
	}
	seen := map[[sha256.Size]byte]bool{sha256.Sum256([]byte(init.key())): true}
	queue := []item{{init, nil}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if err := it.w.clone().live(); err != nil {
			return len(seen), fmt.Errorf("after %v, loss-free: %w", it.path, err)
		}
		for _, ev := range it.w.events() {
			next := it.w.clone()
			path := append(slices.Clip(it.path), ev.name)
			if err := ev.run(next); err != nil {
				return len(seen), fmt.Errorf("after %v: %w", path, err)
			}
			if len(next.flight) > modelMaxFlight {
				continue
			}
			if k := sha256.Sum256([]byte(next.key())); !seen[k] {
				seen[k] = true
				queue = append(queue, item{next, path})
				if len(seen) > modelStateCap {
					return len(seen), fmt.Errorf("more than %d states (depth %d): the bounds do not bound", modelStateCap, len(path))
				}
			}
		}
	}
	return len(seen), nil
}

// TestRingModel asserts, over every schedule of the model (ringModel):
//   - agreement: no instance is decided at a learner, or chosen by a
//     majority of votes, with two values;
//   - validity: every decided value was proposed (or is a skip);
//   - integrity: each learner delivers contiguous instances, none twice;
//   - log before forward: every Phase 2 or Decision that counts the
//     sender's vote leaves with that vote in the step's records or the log;
//   - Phase 1 re-proposes, for every reported instance, the value of the
//     highest-ballot vote;
//   - liveness: from every reachable world, loss-free delivery plus retry
//     ticks (and clients re-sending what no learner delivered) decides both
//     proposals at every learner.
func TestRingModel(t *testing.T) {
	n, err := exploreRing(plantNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states explored", n)
}

// TestRingModelCatchesPlantedBugs plants each bug in the driven state; the
// model must see it.
func TestRingModelCatchesPlantedBugs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant modelPlant
	}{
		{"an acceptor forwards its Phase 2 without staging the vote", plantNoVote},
		{"completePhase1 re-proposes the lowest-ballot vote", plantLowBallot},
		{"Phase 1 sees no trim floor", plantNoFloor},
	} {
		n, err := exploreRing(tc.plant)
		if err == nil {
			t.Errorf("%s: passed the model (%d states)", tc.name, n)
			continue
		}
		t.Logf("%s: caught after %d states: %v", tc.name, n, err)
	}
}

// TestStaleVoteNotServedBelowStart: an acceptor restarted from a peer's
// checkpoint begins at StartInstance, above instances it never learned.
// Its log may still hold a vote there that a higher ballot overrode, so a
// retransmission request below StartInstance must be answered as after a
// trim, never with the logged vote. (Restarted from its own checkpoint, it
// learned those instances and serves them: see
// TestRestartedAcceptorServesRetransmitFromWAL.)
func TestStaleVoteNotServedBelowStart(t *testing.T) {
	rc := coord.RingConfig{Ring: 1, Version: 3, Coordinator: 2}
	for p := 1; p <= modelProcs; p++ {
		rc.Members = append(rc.Members, coord.Member{ID: transport.ProcessID(p), Roles: fullRoles})
	}
	log := &modelLog{}
	log.put(1, encodeAccept(1, 1, modelValue(modelValueA))) // voted A; B was chosen while it was away
	cfg := Config{Self: 1, RetryInterval: time.Second, StartInstance: 2, StartFromPeer: true}
	st := newPaxosState(cfg.withDefaults(), log, time.Unix(0, 0))
	var out paxosOut
	st.step(&out, &paxosEvent{kind: evConfig, cfg: rc})
	out.reset()
	st.step(&out, &paxosEvent{kind: evMessage, msg: transport.Message{Kind: transport.KindRetransmitReq, From: 2, Instance: 1, Count: 1}})
	if len(out.sends) != 1 {
		t.Fatalf("retransmission request below StartInstance answered with %v", out.sends)
	}
	resp := out.sends[0]
	if served, _ := transport.DecodeBatch(resp.Payload); len(served) != 0 || resp.Count != retransmitUnavailable {
		t.Fatalf("served %v (Count %d) below StartInstance, want an unavailable reply", served, resp.Count)
	}
}

// TestStaleVoteRewrittenOnLearn pins what an acceptor that voted at a lower
// ballot than the one that chose another value does once it learns the
// decision, by Decision or by retransmission: it stages the decided value in
// place of its vote, so it serves the decided value, not its stale vote.
func TestStaleVoteRewrittenOnLearn(t *testing.T) {
	rc := coord.RingConfig{Ring: 1, Version: 3, Coordinator: 2}
	for p := 1; p <= modelProcs; p++ {
		rc.Members = append(rc.Members, coord.Member{ID: transport.ProcessID(p), Roles: fullRoles})
	}
	a, b := modelValue(modelValueA), modelValue(modelValueB)
	for _, learnBy := range []transport.Message{
		{Kind: transport.KindDecision, From: 3, Instance: 1, Value: b, Seq: 3},
		{Kind: transport.KindRetransmitResp, From: 3, Instance: 1, Payload: transport.EncodeBatch([]transport.InstanceValue{{Instance: 1, Value: b}})},
	} {
		log := &modelLog{}
		log.put(1, encodeAccept(1, 1, a)) // voted A at ballot 1, then out of the ring while ballot 2 chose B
		cfg := Config{Self: 1, RetryInterval: time.Second}
		st := newPaxosState(cfg.withDefaults(), log, time.Unix(0, 0))
		var out paxosOut
		st.step(&out, &paxosEvent{kind: evConfig, cfg: rc})
		out.reset()
		st.step(&out, &paxosEvent{kind: evMessage, msg: learnBy})
		if len(out.decided) != 1 || out.decided[0].Value.ID != modelValueB {
			t.Fatalf("%v: decided %v, want B at instance 1", learnBy.Kind, out.decided)
		}
		if len(out.votes) != 1 || out.votes[0].inst != 1 || out.votes[0].value.ID != modelValueB {
			t.Fatalf("%v: staged %v, want B in place of the stale vote for instance 1", learnBy.Kind, out.votes)
		}
		for _, v := range out.votes {
			log.put(v.inst, encodeAccept(v.ballot, v.inst, v.value))
		}
		out.reset()
		st.step(&out, &paxosEvent{kind: evMessage, msg: transport.Message{Kind: transport.KindRetransmitReq, From: 2, Instance: 1, Count: 1}})
		if len(out.sends) != 1 {
			t.Fatalf("%v: retransmission request answered with %v", learnBy.Kind, out.sends)
		}
		served, err := transport.DecodeBatch(out.sends[0].Payload)
		if err != nil || len(served) != 1 || served[0].Value.ID != modelValueB {
			t.Fatalf("%v: served %v (%v), want B", learnBy.Kind, served, err)
		}
	}
}
