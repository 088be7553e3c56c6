package smr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// TestBuildNodeCorruptRemoteSnapshotFallsBackLocal is the regression test
// for the recovery-poisoning bug: a peer advertises a newer checkpoint
// tuple but serves a corrupt snapshot. The recovering replica must fall
// back to its LOCAL checkpoint — keeping the peer's vector without its
// state would restart the replica advertising a safeVec it does not hold,
// letting the trim protocol (Predicate 2) discard instances it still
// needs. Before the fix, `best` kept the state-less remote vector.
func TestBuildNodeCorruptRemoteSnapshotFallsBackLocal(t *testing.T) {
	for _, mode := range []string{"bad-bytes", "crc-mismatch", "bad-framing"} {
		t.Run(mode, func(t *testing.T) {
			net := transport.NewNetwork(nil)
			defer net.Close()
			svc := coord.NewService()
			members := []coord.Member{
				{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner},
				{ID: 2, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner},
			}
			if err := svc.CreateRing(1, members); err != nil {
				t.Fatal(err)
			}

			// The recovering replica holds an intact local checkpoint at
			// instance 5.
			localStore := recovery.NewMemStore()
			localState := encodeStateParts(core.Cursor{}, encodeDedup(nil), []byte("local-state"))
			if err := localStore.Save(recovery.Checkpoint{Vector: recovery.Vector{1: 5}, State: localState}); err != nil {
				t.Fatal(err)
			}

			// Fake peer: advertises instance 50, serves a corrupt snapshot.
			peerTr := net.Attach(2, netem.SiteLocal)
			go func() {
				for m := range peerTr.Recv() {
					switch m.Kind {
					case transport.KindCheckpointReq:
						_ = peerTr.Send(m.From, transport.Message{
							Kind:    transport.KindCheckpointResp,
							Seq:     m.Seq,
							Payload: recovery.EncodeVector(recovery.Vector{1: 50}),
						})
					case transport.KindSnapshotReq:
						junk := []byte("this is not a checkpoint encoding")
						chunk := transport.Message{
							Kind:     transport.KindSnapshotChunk,
							Seq:      m.Seq,
							Instance: 0,
							Count:    1,
							Votes:    0,
							Ballot:   crc32.ChecksumIEEE(junk),
							Value:    transport.Value{ID: uint64(len(junk))},
							Payload:  junk,
						}
						switch mode {
						case "crc-mismatch":
							chunk.Ballot++ // transfer CRC won't verify
						case "bad-framing":
							chunk.Instance = uint64(len(junk)) // offset past the buffer
						}
						_ = peerTr.Send(m.From, chunk)
					}
				}
			}()

			tr := net.Attach(1, netem.SiteLocal)
			router := transport.NewRouter(tr)
			res, err := BuildNode(RecoveryOptions{
				Core:    core.Config{Self: 1, Router: router, Coord: svc},
				Store:   localStore,
				Peers:   []transport.ProcessID{2},
				Service: router.Service(),
				Timeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer res.Node.Stop()
			if res.Remote {
				t.Error("corrupt remote snapshot reported as remote recovery")
			}
			if got := res.Checkpoint.Vector[1]; got != 5 {
				t.Errorf("checkpoint vector = %v, want local {1:5}; a state-less remote vector poisons trim", res.Checkpoint.Vector)
			}
			if !bytes.Equal(res.Checkpoint.State, localState) {
				t.Error("fell back without the local state")
			}
		})
	}
}

// TestLargeStateChunkedRecovery exercises the chunked snapshot path end to
// end: replica state is padded past several snapshotChunkSize frames, the
// replica's stable store is wiped, and recovery must pull the multi-chunk
// remote checkpoint from a peer, reassemble it and catch up.
func TestLargeStateChunkedRecovery(t *testing.T) {
	// ~700 KB snapshots: 3 chunks at the 256 KB default chunk size.
	h := newSMRHarnessPad(t, 5, 700<<10)
	var want uint64
	for i := uint64(1); i <= 20; i++ {
		h.submit(i)
		want += i
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.sms[3].Total() != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	h.net.Detach(3)
	h.replicas[3].Stop()
	h.svc.MarkDown(3)
	// Lose replica 3's stable storage entirely: recovery must fetch the
	// remote checkpoint (now several KindSnapshotChunk frames).
	h.stores[3] = recovery.NewMemStore()

	for i := uint64(1); i <= 10; i++ {
		h.submit(300 + i)
		want += 300 + i
	}

	h.svc.MarkUp(3)
	h.startReplica(3, 5, 3*time.Second)
	deadline = time.Now().Add(10 * time.Second)
	for h.sms[3].Total() != want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := h.sms[3].Total(); got != want {
		t.Errorf("recovered replica total = %d, want %d", got, want)
	}
	if vec := safeVector(h.replicas[3]); vec[1] == 0 {
		t.Error("recovered replica has an empty safe vector")
	}
}

// TestSnapshotChunkRoundTrip drives the chunk assembler directly over a
// multi-chunk encoding, including duplicate frames.
func TestSnapshotChunkRoundTrip(t *testing.T) {
	old := snapshotChunkSize
	snapshotChunkSize = 16
	defer func() { snapshotChunkSize = old }()

	cp := recovery.Checkpoint{
		Vector: recovery.Vector{1: 9, 2: 7},
		State:  bytes.Repeat([]byte("0123456789"), 11), // 110 B -> 9 chunks
	}
	enc := cp.Encode()
	var frames []transport.Message
	sink := captureTransport{out: &frames}
	sendSnapshotChunks(sink, 9, 42, enc)
	if len(frames) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(frames))
	}

	var asm *ChunkAssembly
	feed := append([]transport.Message{frames[0]}, frames...) // duplicate first frame
	var done bool
	for _, m := range feed {
		if asm == nil {
			if asm = NewChunkAssembly(m); asm == nil {
				t.Fatal("assembly rejected valid framing")
			}
		}
		var err error
		done, err = asm.Add(m)
		if err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if !done {
		t.Fatal("assembly incomplete after all chunks")
	}
	got, err := recovery.DecodeCheckpoint(asm.buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vector[1] != 9 || !bytes.Equal(got.State, cp.State) {
		t.Error("reassembled checkpoint mismatch")
	}
}

// captureTransport records sent messages (test double).
type captureTransport struct{ out *[]transport.Message }

func (c captureTransport) ID() transport.ProcessID { return 0 }
func (c captureTransport) Send(to transport.ProcessID, m transport.Message) error {
	m.To = to
	*c.out = append(*c.out, m)
	return nil
}
func (c captureTransport) Recv() <-chan transport.Message { return nil }
func (c captureTransport) Close() error                   { return nil }

// TestEncodeDedupDeterministic: identical dedup states must encode to
// identical bytes regardless of map insertion/iteration order, so
// checkpoint encodings stay checksummable.
func TestEncodeDedupDeterministic(t *testing.T) {
	a := map[transport.ProcessID]*clientWindow{}
	b := map[transport.ProcessID]*clientWindow{}
	ids := []transport.ProcessID{42, 7, 10001, 3, 999}
	for _, id := range ids {
		a[id] = newClientWindow(uint64(id) * 3)
	}
	for i := len(ids) - 1; i >= 0; i-- {
		b[ids[i]] = newClientWindow(uint64(ids[i]) * 3)
	}
	ea, eb := encodeDedup(a), encodeDedup(b)
	if !bytes.Equal(ea, eb) {
		t.Error("same dedup state encoded to different bytes")
	}
	got, err := decodeDedup(ea)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("decoded %d clients, want %d", len(got), len(ids))
	}
	for _, id := range ids {
		if got[id] == nil || got[id].floor != uint64(id)*3 {
			t.Errorf("client %d floor lost", id)
		}
	}
}

// TestDecodeDedupRejectsCorrupt: a truncated or padded dedup table must
// surface ErrCorrupt instead of silently dropping entries — forgetting an
// executed command means executing it twice.
func TestDecodeDedupRejectsCorrupt(t *testing.T) {
	dedup := map[transport.ProcessID]*clientWindow{
		1: newClientWindow(10),
		2: newClientWindow(20),
	}
	enc := encodeDedup(dedup)
	for i := 0; i < len(enc); i++ {
		if _, err := decodeDedup(enc[:i]); err == nil {
			t.Fatalf("accepted truncation at %d bytes", i)
		}
	}
	if _, err := decodeDedup(append(enc, 0)); err == nil {
		t.Error("accepted trailing garbage")
	}
	if _, err := decodeDedup(enc); err != nil {
		t.Errorf("rejected intact encoding: %v", err)
	}
}

// TestCheckpointSaveFailureRetriesAtNextBatch: a failing store must not
// silently postpone durability a full interval — the replica re-captures
// at the next batch boundary once the store recovers.
func TestCheckpointSaveFailureRetriesAtNextBatch(t *testing.T) {
	store := &flakyStore{failing: true}
	rep, _, submit := soloReplica(t, store, 5)

	// Cross the first checkpoint interval while the store fails.
	for i := 0; i < 6; i++ {
		submit(1)
	}
	deadline := time.Now().Add(3 * time.Second)
	for store.Attempts() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Attempts() == 0 {
		t.Fatal("no save attempted after crossing the interval")
	}
	if rep.CheckpointCount() != 0 {
		t.Fatal("failed save counted as a durable checkpoint")
	}

	// Heal the store: ONE more command (far short of another interval)
	// must trigger the retry at its batch boundary.
	store.SetFailing(false)
	submit(1)
	deadline = time.Now().Add(3 * time.Second)
	for rep.CheckpointCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rep.CheckpointCount() == 0 {
		t.Error("save never retried at the next batch boundary")
	}
	if vec := safeVector(rep); vec[1] == 0 {
		t.Error("safeVec did not advance after the retried save")
	}
}

// soloReplica starts a replica that is its ring's only member, with a
// counterSM and checkpoints into store every `every` commands, and returns
// it, its state machine and a submit of one add through a client. Both
// stop when the test ends.
func soloReplica(t *testing.T, store recovery.Store, every int) (*Replica, *counterSM, func(uint64)) {
	t.Helper()
	sm := &counterSM{}
	rep, submit := soloReplicaSM(t, store, every, sm)
	return rep, sm, submit
}

// soloReplicaSM is soloReplica with the state machine sm.
func soloReplicaSM(t *testing.T, store recovery.Store, every int, sm StateMachine) (*Replica, func(uint64)) {
	t.Helper()
	net := transport.NewNetwork(nil)
	t.Cleanup(net.Close)
	svc := coord.NewService()
	members := []coord.Member{{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner}}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	tr := net.Attach(1, netem.SiteLocal)
	router := transport.NewRouter(tr)
	node, err := core.New(core.Config{Self: 1, Router: router, Coord: svc,
		Ring: core.RingOptions{RetryInterval: 30 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(ReplicaConfig{
		Self: 1, Partition: 1, Groups: []transport.RingID{1},
		Node: node, Transport: tr, Service: router.Service(),
		SM: sm, Checkpoints: store, CheckpointEvery: every,
	}, recovery.Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)

	ctr := net.Attach(10, netem.SiteLocal)
	crouter := transport.NewRouter(ctr)
	cnode, err := core.New(core.Config{Self: 10, Router: crouter, Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cnode.Stop)
	cl, err := NewClient(ClientConfig{Self: 10, Node: cnode, Transport: ctr, Service: crouter.Service()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return rep, func(n uint64) {
		t.Helper()
		if _, err := cl.Submit(nil, []transport.RingID{1}, add(n), []transport.RingID{1}, 1, 5*time.Second); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// waitFor polls cond until it holds or 5 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// gatedStore is a checkpoint store whose Save waits until the test opens
// its gate.
type gatedStore struct {
	mem     recovery.MemStore
	gate    chan struct{}
	waiting atomic.Int32 // Saves held at the gate
}

func (g *gatedStore) Save(c recovery.Checkpoint) error {
	g.waiting.Add(1)
	<-g.gate
	g.waiting.Add(-1)
	return g.mem.Save(c)
}

func (g *gatedStore) Latest() (recovery.Checkpoint, bool) { return g.mem.Latest() }

// TestCheckpointCaptureSerializedOnce: the replica serializes every capture
// it takes exactly once and never holds two unserialized (the
// StateSnapshot contract a copy-on-write state machine relies on to write
// in place again). While a durable write hangs, a boundary that finds a
// capture pending is skipped and counted, not superseded; once the write
// completes, the owed checkpoint is taken even though no command follows.
func TestCheckpointCaptureSerializedOnce(t *testing.T) {
	store := &gatedStore{gate: make(chan struct{})}
	rep, sm, submit := soloReplica(t, store, 2)
	open := sync.OnceFunc(func() { close(store.gate) })
	t.Cleanup(open) // before rep.Stop, which waits for the writer
	submit(1)
	submit(1) // a capture, serialized; its Save hangs
	waitFor(t, "the first Save", func() bool { return store.waiting.Load() == 1 })
	submit(1)
	submit(1) // a capture, pending behind the hung writer
	for i := 0; i < 6; i++ {
		submit(1) // three boundaries that find it pending
	}
	if got := sm.captures.Load(); got != 2 {
		t.Errorf("captures while the writer hangs = %d, want 2", got)
	}
	if got := sm.serialized.Load(); got != 1 {
		t.Errorf("serialized while the writer hangs = %d, want 1", got)
	}
	if got := coalesced(rep); got != 3 {
		t.Errorf("CheckpointsCoalesced = %d, want the 3 skipped boundaries", got)
	}

	// No command follows: the writer itself pays the owed checkpoint once
	// it has serialized the pending capture, since no batch has been
	// applied since the owed cut.
	open()
	waitFor(t, "the owed checkpoint", func() bool { return rep.CheckpointCount() == 3 })
	cp, _ := store.Latest()
	_, _, snap, err := decodeStateParts(cp.State)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(snap); got != 10 {
		t.Errorf("newest checkpoint holds %d commands, want all 10", got)
	}
	if vec := safeVector(rep); vec[1] != cp.Vector[1] {
		t.Errorf("safe vector %v, newest checkpoint at %v", vec, cp.Vector)
	}
	if c, s, m := sm.captures.Load(), sm.serialized.Load(), sm.misused.Load(); c != 3 || s != 3 || m != 0 {
		t.Errorf("captures %d, serialized %d, misused %d; want 3, 3, 0", c, s, m)
	}
}

// slowSM is a counterSM whose next ExecuteBatch, once armed, closes
// entered and then takes block.
type slowSM struct {
	*counterSM
	armed   atomic.Bool
	entered chan struct{}
	block   time.Duration
}

func (s *slowSM) ExecuteBatch(groups []transport.RingID, ops [][]byte) [][]byte {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		time.Sleep(s.block)
	}
	return s.counterSM.ExecuteBatch(groups, ops)
}

// TestCheckpointStallCountsOnlyTheCapture: CheckpointStallMax counts the
// time a capture blocks delivery, not the writer's own wait for a batch
// being applied. A cut is owed when the writer is released, and the batch
// the writer then waits behind takes 200 ms.
func TestCheckpointStallCountsOnlyTheCapture(t *testing.T) {
	const block = 200 * time.Millisecond
	store := &gatedStore{gate: make(chan struct{})}
	sm := &slowSM{counterSM: &counterSM{}, entered: make(chan struct{}), block: block}
	rep, submit := soloReplicaSM(t, store, 2, sm)
	open := sync.OnceFunc(func() { close(store.gate) })
	t.Cleanup(open) // before rep.Stop, which waits for the writer
	submit(1)
	submit(1) // a capture, serialized; its Save hangs
	waitFor(t, "the first Save", func() bool { return store.waiting.Load() == 1 })
	submit(1)
	submit(1) // a capture, pending behind the hung writer
	submit(1)
	submit(1) // a boundary that finds it pending and owes its cut
	sm.armed.Store(true)
	go func() {
		<-sm.entered
		open() // the writer serializes the pending capture, then waits for the batch
	}()
	submit(1) // the slow batch
	waitFor(t, "the owed checkpoint", func() bool { return rep.CheckpointCount() == 3 })
	if got := rep.CheckpointStallMax(); got > block/4 {
		t.Errorf("CheckpointStallMax = %v; the only batch that blocked took %v and no capture waited for it", got, block)
	}
}

// flakyStore fails Save on demand.
type flakyStore struct {
	mem      recovery.MemStore
	mu       sync.Mutex
	failing  bool
	attempts int
}

func (f *flakyStore) Save(c recovery.Checkpoint) error {
	f.mu.Lock()
	f.attempts++
	failing := f.failing
	f.mu.Unlock()
	if failing {
		return errFlaky
	}
	return f.mem.Save(c)
}

func (f *flakyStore) Latest() (recovery.Checkpoint, bool) { return f.mem.Latest() }

func (f *flakyStore) Attempts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

func (f *flakyStore) SetFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

var errFlaky = fmt.Errorf("flaky store: injected failure")

// safeVector returns the tuple of r's last durable checkpoint.
func safeVector(r *Replica) recovery.Vector {
	vec, _ := r.safe()
	return vec.Clone()
}

// coalesced reports the checkpoint boundaries r skipped because the
// writer had not yet serialized the previous capture.
func coalesced(r *Replica) uint64 {
	r.ckpt.mu.Lock()
	defer r.ckpt.mu.Unlock()
	return r.ckpt.state.coalesced
}
