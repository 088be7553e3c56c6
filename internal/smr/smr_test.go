package smr

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// counterSM is a trivial state machine: ops are "add <n>" encoded as 8
// bytes; the response is the running total. Snapshots serialize the
// counter, padded with pad zero bytes so tests can inflate the state to
// exercise multi-chunk snapshot transfers.
type counterSM struct {
	mu      sync.Mutex
	total   uint64
	pad     int
	log     []uint64 // applied values, for order checks
	runs    []int    // len(ops) of each ExecuteBatch call
	out     [][]byte // ExecuteBatch's result slice, reused as the contract allows
	replies []byte   // the block responses are cut from, as the services cut theirs

	// captures counts CaptureSnapshot calls and serialized the first
	// Serialize of each; misused counts breaches of the StateSnapshot
	// contract: a second Serialize of a capture, or a capture taken while
	// an earlier one is unserialized.
	captures, serialized, misused atomic.Uint64
}

func addOp(n uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	return b[:]
}

// add is addOp as a client submits it.
func add(n uint64) Op { return bytesOp(addOp(n)) }

// bytesOp is an operation already encoded, as a client submits it.
func bytesOp(b []byte) Op {
	return Op{Len: len(b), Append: func(dst []byte) []byte { return append(dst, b...) }}
}

func (c *counterSM) Execute(_ transport.RingID, op []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := binary.LittleEndian.Uint64(op)
	c.total += n
	c.log = append(c.log, n)
	out := bufpool.Cut(&c.replies, 4<<10, 8)
	binary.LittleEndian.PutUint64(out, c.total)
	return out
}

func (c *counterSM) ExecuteBatch(groups []transport.RingID, ops [][]byte) [][]byte {
	c.mu.Lock()
	c.runs = append(c.runs, len(ops))
	c.mu.Unlock()
	c.out = c.out[:0]
	for i, op := range ops {
		c.out = append(c.out, c.Execute(groups[i], op))
	}
	return c.out
}

// counterSnap is a counterSM capture, encoded when it is taken; Serialize
// only counts its calls.
type counterSnap struct {
	b     []byte
	sm    *counterSM
	calls atomic.Int32
}

func (s *counterSnap) Serialize() []byte {
	if s.calls.Add(1) == 1 {
		s.sm.serialized.Add(1)
	} else {
		s.sm.misused.Add(1)
	}
	return s.b
}

func (c *counterSM) CaptureSnapshot() StateSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.captures.Load() != c.serialized.Load() {
		c.misused.Add(1)
	}
	c.captures.Add(1)
	out := make([]byte, 8+c.pad)
	binary.LittleEndian.PutUint64(out[:8], c.total)
	return &counterSnap{b: out, sm: c}
}

func (c *counterSM) Restore(snap []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total = binary.LittleEndian.Uint64(snap)
	c.log = nil
	return nil
}

func (c *counterSM) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// smrHarness wires one partition (ring 1) with three replica processes
// (ids 1..3) and one client process (id 10).
type smrHarness struct {
	t        *testing.T
	net      *transport.Network
	svc      *coord.Service
	pad      int // snapshot padding, to force multi-chunk transfers
	replicas map[transport.ProcessID]*Replica
	sms      map[transport.ProcessID]*counterSM
	stores   map[transport.ProcessID]*recovery.MemStore
	client   *Client
}

func replicaIDs() []transport.ProcessID { return []transport.ProcessID{1, 2, 3} }

func newSMRHarness(t *testing.T, checkpointEvery int) *smrHarness {
	return newSMRHarnessPad(t, checkpointEvery, 0)
}

func newSMRHarnessPad(t *testing.T, checkpointEvery, pad int) *smrHarness {
	t.Helper()
	h := &smrHarness{
		t:        t,
		net:      transport.NewNetwork(nil),
		svc:      coord.NewService(),
		pad:      pad,
		replicas: make(map[transport.ProcessID]*Replica),
		sms:      make(map[transport.ProcessID]*counterSM),
		stores:   make(map[transport.ProcessID]*recovery.MemStore),
	}
	var members []coord.Member
	for _, id := range replicaIDs() {
		members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
	}
	if err := h.svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	for _, id := range replicaIDs() {
		h.stores[id] = recovery.NewMemStore()
		h.startReplica(id, checkpointEvery, 0)
	}
	// Client process.
	tr := h.net.Attach(10, netem.SiteLocal)
	router := transport.NewRouter(tr)
	node, err := core.New(core.Config{Self: 10, Router: router, Coord: h.svc})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{Self: 10, Node: node, Transport: tr, Service: router.Service()})
	if err != nil {
		t.Fatal(err)
	}
	h.client = cl
	t.Cleanup(func() {
		cl.Close()
		node.Stop()
		for _, r := range h.replicas {
			r.Stop()
		}
		h.net.Close()
	})
	return h
}

// startReplica boots (or re-boots) replica id. recoveryTimeout > 0 enables
// peer recovery.
func (h *smrHarness) startReplica(id transport.ProcessID, checkpointEvery int, recoveryTimeout time.Duration) {
	h.t.Helper()
	tr := h.net.Attach(id, netem.SiteLocal)
	router := transport.NewRouter(tr)
	var peers []transport.ProcessID
	for _, p := range replicaIDs() {
		if p != id {
			peers = append(peers, p)
		}
	}
	opts := RecoveryOptions{
		Core: core.Config{
			Self:   id,
			Router: router,
			Coord:  h.svc,
			Ring:   core.RingOptions{RetryInterval: 30 * time.Millisecond},
		},
		Store:   h.stores[id],
		Service: router.Service(),
		Timeout: recoveryTimeout,
	}
	if recoveryTimeout > 0 {
		opts.Peers = peers
	}
	built, err := BuildNode(opts)
	if err != nil {
		h.t.Fatal(err)
	}
	sm := &counterSM{pad: h.pad}
	rep, err := NewReplica(ReplicaConfig{
		Self:            id,
		Partition:       1,
		Groups:          []transport.RingID{1},
		Peers:           peers,
		Node:            built.Node,
		Transport:       tr,
		Service:         router.Service(),
		SM:              sm,
		Checkpoints:     h.stores[id],
		CheckpointEvery: checkpointEvery,
	}, built.Checkpoint)
	if err != nil {
		h.t.Fatal(err)
	}
	h.replicas[id] = rep
	h.sms[id] = sm
}

func (h *smrHarness) submit(n uint64) uint64 {
	h.t.Helper()
	resps, err := h.client.Submit(nil, []transport.RingID{1}, add(n), []transport.RingID{1}, 1, 5*time.Second)
	if err != nil {
		h.t.Fatalf("submit: %v", err)
	}
	return binary.LittleEndian.Uint64(resps[0])
}

func TestCommandRoundTrip(t *testing.T) {
	c := Command{Client: 7, Seq: 99, Op: []byte("operation")}
	got, err := DecodeCommand(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != 7 || got.Seq != 99 || string(got.Op) != "operation" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeCommand([]byte{1}); err == nil {
		t.Error("short command accepted")
	}
}

func TestClientWindow(t *testing.T) {
	w := newClientWindow(0)
	if dup, _ := w.check(1); dup {
		t.Error("fresh seq reported dup")
	}
	w.record(1, []byte("r1"))
	if dup, resp := w.check(1); !dup || string(resp) != "r1" {
		t.Error("recorded seq not dup or lost response")
	}
	// Out of order: 3 before 2.
	w.record(3, []byte("r3"))
	if w.floor != 1 {
		t.Errorf("floor = %d, want 1", w.floor)
	}
	if dup, _ := w.check(2); dup {
		t.Error("unexecuted seq 2 reported dup")
	}
	w.record(2, []byte("r2"))
	if w.floor != 3 {
		t.Errorf("floor = %d, want 3 after gap fill", w.floor)
	}
	if dup, resp := w.check(3); !dup || string(resp) != "r3" {
		t.Error("seq 3 lost after floor advance")
	}
}

func TestExecuteAndRespond(t *testing.T) {
	h := newSMRHarness(t, 0)
	if got := h.submit(5); got != 5 {
		t.Errorf("response = %d, want 5", got)
	}
	if got := h.submit(7); got != 12 {
		t.Errorf("response = %d, want 12", got)
	}
}

func TestAllReplicasConverge(t *testing.T) {
	h := newSMRHarness(t, 0)
	var want uint64
	for i := uint64(1); i <= 50; i++ {
		h.submit(i)
		want += i
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range replicaIDs() {
		for h.sms[id].Total() != want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if got := h.sms[id].Total(); got != want {
			t.Errorf("replica %d total = %d, want %d", id, got, want)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	h := newSMRHarness(t, 0)
	h.submit(10)
	// Re-send the same command (same client, same seq) directly.
	tr := h.net.Attach(11, netem.SiteLocal)
	defer func() { _ = tr.Close() }()
	cmd := Command{Client: 10, Seq: 1, Op: addOp(10)}
	rc, _ := h.svc.Ring(1)
	_ = tr.Send(rc.Coordinator, transport.Message{
		Kind:  transport.KindProposal,
		Ring:  1,
		Value: transport.Value{ID: transport.MakeValueID(11, 1), Count: 1, Data: cmd.Encode()},
	})
	time.Sleep(300 * time.Millisecond)
	for _, id := range replicaIDs() {
		if got := h.sms[id].Total(); got != 10 {
			t.Errorf("replica %d total = %d after duplicate, want 10", id, got)
		}
	}
}

func TestCheckpointsTaken(t *testing.T) {
	h := newSMRHarness(t, 10)
	for i := 0; i < 25; i++ {
		h.submit(1)
	}
	// 25 commands at CheckpointEvery=10 capture checkpoints at two batch
	// boundaries. The background writer may coalesce bursts into fewer
	// durable writes, but every capture must be accounted for and the
	// safe vector must reach the newest captured boundary (instance 20+:
	// commands plus any skips keep it at least at the command count).
	deadline := time.Now().Add(5 * time.Second)
	for safeVector(h.replicas[1])[1] < 20 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := h.replicas[1].CheckpointCount(); got < 1 {
		t.Errorf("durable checkpoints = %d, want >= 1", got)
	}
	if total := h.replicas[1].CheckpointCount() + coalesced(h.replicas[1]); total < 2 {
		t.Errorf("captures accounted = %d, want >= 2", total)
	}
	vec := safeVector(h.replicas[1])
	if vec[1] < 20 {
		t.Errorf("safe vector = %v, want group 1 >= 20", vec)
	}
	cp, ok := h.stores[1].Latest()
	if !ok {
		t.Fatal("no checkpoint in store")
	}
	if _, _, _, err := decodeStateParts(cp.State); err != nil {
		t.Errorf("stored checkpoint state corrupt: %v", err)
	}
}

func TestReplicaRecoveryLocalCheckpoint(t *testing.T) {
	h := newSMRHarness(t, 5)
	var want uint64
	for i := uint64(1); i <= 20; i++ {
		h.submit(i)
		want += i
	}
	// Wait for replica 3 to have executed everything, then crash it.
	deadline := time.Now().Add(5 * time.Second)
	for h.sms[3].Total() != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	h.net.Detach(3)
	h.replicas[3].Stop()
	h.svc.MarkDown(3)

	// More traffic while replica 3 is down.
	for i := uint64(1); i <= 10; i++ {
		h.submit(100 + i)
		want += 100 + i
	}

	// Restart replica 3: local checkpoint + acceptor retransmission.
	h.svc.MarkUp(3)
	h.startReplica(3, 5, 0)
	deadline = time.Now().Add(10 * time.Second)
	for h.sms[3].Total() != want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := h.sms[3].Total(); got != want {
		t.Errorf("recovered replica total = %d, want %d", got, want)
	}
}

func TestReplicaRecoveryRemoteCheckpoint(t *testing.T) {
	h := newSMRHarness(t, 5)
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
	// Discard replica 3's local checkpoints entirely: recovery must pull a
	// remote checkpoint from a peer (quorum Q_R).
	h.stores[3] = recovery.NewMemStore()

	for i := uint64(1); i <= 10; i++ {
		h.submit(200 + i)
		want += 200 + i
	}

	h.svc.MarkUp(3)
	h.startReplica(3, 5, 3*time.Second)
	deadline = time.Now().Add(10 * time.Second)
	for h.sms[3].Total() != want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := h.sms[3].Total(); got != want {
		t.Errorf("remotely recovered replica total = %d, want %d", got, want)
	}
}

func TestTrimAfterCheckpoints(t *testing.T) {
	// End-to-end trim: replicas checkpoint, coordinator gathers safe
	// vectors, acceptors trim. Requires TrimInterval on rings.
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	var members []coord.Member
	for _, id := range replicaIDs() {
		members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	logs := make(map[transport.ProcessID]*storage.MemLog)
	replicas := make(map[transport.ProcessID]*Replica)
	for _, id := range replicaIDs() {
		tr := net.Attach(id, netem.SiteLocal)
		router := transport.NewRouter(tr)
		log := storage.NewMemLog()
		logs[id] = log
		node, err := core.New(core.Config{
			Self: id, Router: router, Coord: svc,
			NewLog: func(transport.RingID) (storage.Log, error) { return log, nil },
			Ring:   core.RingOptions{RetryInterval: 30 * time.Millisecond, TrimInterval: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplica(ReplicaConfig{
			Self: id, Partition: 1, Groups: []transport.RingID{1},
			Node: node, Transport: tr, Service: router.Service(),
			SM: &counterSM{}, Checkpoints: recovery.NewMemStore(), CheckpointEvery: 5,
		}, recovery.Checkpoint{})
		if err != nil {
			t.Fatal(err)
		}
		replicas[id] = rep
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// Client.
	ctr := net.Attach(10, netem.SiteLocal)
	crouter := transport.NewRouter(ctr)
	cnode, err := core.New(core.Config{Self: 10, Router: crouter, Coord: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer cnode.Stop()
	cl, err := NewClient(ClientConfig{Self: 10, Node: cnode, Transport: ctr, Service: crouter.Service()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 30; i++ {
		if _, err := cl.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Eventually acceptor logs get trimmed.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if logs[1].FirstRetained() > 1 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("acceptor log never trimmed; firstRetained=%d", logs[1].FirstRetained())
}

func TestClientTimeout(t *testing.T) {
	h := newSMRHarness(t, 0)
	// Multicast to a ring that exists but whose members never respond to
	// this client: use an unknown group to force an immediate error, and
	// a blocked network to force a timeout.
	if _, err := h.client.Submit(nil, []transport.RingID{99}, add(1), []transport.RingID{99}, 1, 200*time.Millisecond); err == nil {
		t.Error("submit to unknown group should fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	h := newSMRHarness(t, 0)
	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := h.client.Submit(nil, []transport.RingID{1}, add(1), []transport.RingID{1}, 1, 10*time.Second); err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := uint64(workers * perWorker)
	deadline := time.Now().Add(5 * time.Second)
	for h.sms[1].Total() != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := h.sms[1].Total(); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
}
