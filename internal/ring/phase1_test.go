package ring

import (
	"bytes"
	"testing"

	"amcast/internal/storage"
	"amcast/internal/transport"
)

// White-box tests of the acceptor's vote memory: the log is the only place
// a vote lives, so Phase 1 and retransmission read it back from there.

// encodeAccept builds the durable record for a vote on the heap.
func encodeAccept(ballot uint32, instance uint64, v transport.Value) []byte {
	return appendAccept(make([]byte, 0, acceptRecordSize(v)), ballot, instance, v)
}

// accept1 runs n's acceptor side of Phase 1 on m, as a Phase 1A passing
// through it does, and commits what it staged.
func accept1(n *Node, m *transport.Message) {
	n.px.acceptPhase1(&n.out, m)
	n.apply()
	n.commitStaged()
}

// TestRestartedAcceptorReportsLoggedVotes: an acceptor rebuilt over the
// log of a previous incarnation — a promise and votes for three instances
// — promises a higher ballot and reports all three votes in its Phase 1B,
// so a new coordinator can re-propose values that may have been chosen.
func TestRestartedAcceptorReportsLoggedVotes(t *testing.T) {
	log := storage.NewMemLog()
	values := [][]byte{[]byte("first-vote"), []byte("second-vote"), []byte("third-vote")}
	recs := []storage.Record{{Instance: promiseInstance, Data: encodePromise(3)}}
	for i, data := range values {
		inst := uint64(i + 1)
		recs = append(recs, storage.Record{Instance: inst, Data: encodeAccept(3, inst, transport.Value{ID: inst, Count: 1, Data: data})})
	}
	if err := log.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	n, _ := idleNode(t, ringService(t, 3, fullRoles), 2, func(cfg *Config) { cfg.Log = log })
	if n.px.promised != 3 {
		t.Fatalf("recovered promise %d, want 3", n.px.promised)
	}

	m := transport.Message{Kind: transport.KindPhase1A, Ring: 1, Ballot: 5, Instance: 1}
	accept1(n, &m)
	if m.Votes != 1 || n.px.promised != 5 {
		t.Fatalf("votes %d, promised %d: want one vote for ballot 5", m.Votes, n.px.promised)
	}
	for i, data := range values {
		if !bytes.Contains(m.Payload, data) {
			t.Errorf("Phase 1B report lacks the logged vote for instance %d (%q)", i+1, data)
		}
	}
	if rec, ok := log.Get(promiseInstance); !ok || decodePromise(rec) != 5 {
		t.Error("the raised promise is not durable after the report")
	}
}

// TestPhase1ProposesHighestBallotVote: two acceptors report different
// values for one instance, cast at different ballots, the lower-ballot one
// first around the ring. The new coordinator must re-propose the value of
// the highest-ballot vote (Paxos Phase 2a), not the first it reads.
func TestPhase1ProposesHighestBallotVote(t *testing.T) {
	svc := ringService(t, 3, fullRoles)
	c, sink := idleNode(t, svc, 1, nil)
	low, _ := idleNode(t, svc, 2, nil)
	high, _ := idleNode(t, svc, 3, nil)
	old := transport.Value{ID: 21, Count: 1, Data: []byte("voted-at-ballot-2")}
	newer := transport.Value{ID: 31, Count: 1, Data: []byte("voted-at-ballot-4")}
	low.recordVote(2, 1, old)
	low.commitStaged()
	high.recordVote(4, 1, newer)
	high.commitStaged()

	c.px.ballot = 9
	m := transport.Message{Kind: transport.KindPhase1A, Ring: 1, Ballot: 9, Instance: 1}
	accept1(c, &m)
	accept1(low, &m)
	accept1(high, &m)
	c.feed(&paxosEvent{kind: evMessage, msg: m})
	c.commitStaged()

	if !c.px.phase1Ready {
		t.Fatalf("Phase 1 did not complete with %d votes", m.Votes)
	}
	if f, ok := c.px.inFlight[1]; !ok || f.value.ID != newer.ID {
		t.Fatalf("instance 1 re-proposed with %+v, want the ballot-4 value %d", f.value, newer.ID)
	}
	if got := sink.take(transport.KindPhase2); len(got) != 1 || got[0].instance != 1 || got[0].ids[0] != newer.ID {
		t.Fatalf("Phase 2 sent %+v, want instance 1 carrying value %d", got, newer.ID)
	}
}

// TestPhase1ReportBeatsOwnFlight: a coordinator proposed X for instance 1
// at ballot 5 and lost the role before learning the outcome; a majority
// then accepted Y at ballot 7, so Y may have been chosen. Back in the role
// at ballot 9, the coordinator must re-propose Y, not retry its own stale
// flight: that could choose a second value for the instance.
func TestPhase1ReportBeatsOwnFlight(t *testing.T) {
	svc := ringService(t, 3, fullRoles)
	c, sink := idleNode(t, svc, 1, nil)
	p2, _ := idleNode(t, svc, 2, nil)
	p3, _ := idleNode(t, svc, 3, nil)
	peers := []*Node{p2, p3}
	own := transport.Value{ID: 11, Count: 1, Data: []byte("proposed-at-ballot-5")}
	accepted := transport.Value{ID: 21, Count: 1, Data: []byte("accepted-at-ballot-7")}
	c.recordVote(5, 1, own)
	c.commitStaged()
	c.px.inFlight[1] = flight{value: own}
	for _, p := range peers {
		p.recordVote(7, 1, accepted)
		p.commitStaged()
	}

	c.px.ballot = 9
	m := transport.Message{Kind: transport.KindPhase1A, Ring: 1, Ballot: 9, Instance: 1}
	accept1(c, &m)
	for _, p := range peers {
		accept1(p, &m)
	}
	c.feed(&paxosEvent{kind: evMessage, msg: m})
	c.commitStaged()

	if f := c.px.inFlight[1]; f.value.ID != accepted.ID {
		t.Fatalf("flight carries value %d, want %d", f.value.ID, accepted.ID)
	}
	if got := sink.take(transport.KindPhase2); len(got) != 1 || got[0].instance != 1 || got[0].ids[0] != accepted.ID {
		t.Fatalf("Phase 2 sent %+v, want instance 1 carrying value %d", got, accepted.ID)
	}
}

// TestLookupDecidedAllocs: serving a decided value from an in-memory log
// — the path every retransmission, catch-up and Phase 1 read takes —
// allocates nothing.
func TestLookupDecidedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	log := storage.NewMemLog()
	if err := log.Put(7, encodeAccept(1, 7, transport.Value{ID: 7, Count: 1, Data: make([]byte, 1<<10)})); err != nil {
		t.Fatal(err)
	}
	s := &paxosState{log: log}
	lookup := func() {
		if v, ok := s.lookupDecided(7); !ok || v.ID != 7 || len(v.Data) != 1<<10 {
			t.Fatalf("lookupDecided(7) = %+v, %v", v, ok)
		}
	}
	if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
		t.Errorf("lookupDecided allocates %.2f times per read, want 0", allocs)
	}
}
