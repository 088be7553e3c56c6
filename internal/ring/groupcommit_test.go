package ring

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// voteSend is one vote-bearing message observed leaving an acceptor: a
// Phase 2 forward (carrying the acceptor's fresh vote) or a Decision the
// acceptor originated (its vote completed the majority).
type voteSend struct {
	instance uint64
	value    []byte
	durable  bool // was the vote durable in the log at send time?
}

// captureTransport wraps a transport and records every vote-bearing
// message the wrapped process emits, checking against the log *at send
// time* whether the vote it carries was durable — the group-commit
// barrier's invariant.
type captureTransport struct {
	transport.Transport
	self  transport.ProcessID
	inner transport.BatchSender
	check func(instance uint64) bool

	mu    sync.Mutex
	votes []voteSend
}

var _ transport.BatchSender = (*captureTransport)(nil)

func newCaptureTransport(tr transport.Transport, self transport.ProcessID, check func(uint64) bool) *captureTransport {
	bs, ok := tr.(transport.BatchSender)
	if !ok {
		panic("captureTransport: inner transport must batch")
	}
	return &captureTransport{Transport: tr, self: self, inner: bs, check: check}
}

func (c *captureTransport) record(m *transport.Message) {
	carriesVote := m.Kind == transport.KindPhase2 ||
		(m.Kind == transport.KindDecision && m.Seq == uint64(c.self))
	if !carriesVote {
		return
	}
	v := voteSend{
		instance: m.Instance,
		value:    append([]byte(nil), m.Value.Data...),
		durable:  c.check(m.Instance),
	}
	c.mu.Lock()
	c.votes = append(c.votes, v)
	c.mu.Unlock()
}

func (c *captureTransport) Send(to transport.ProcessID, m transport.Message) error {
	c.record(&m)
	return c.Transport.Send(to, m)
}

func (c *captureTransport) SendBatch(msgs []transport.Message) error {
	for i := range msgs {
		c.record(&msgs[i])
	}
	return c.inner.SendBatch(msgs)
}

func (c *captureTransport) snapshot() []voteSend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]voteSend(nil), c.votes...)
}

// failLog wraps a Log with switchable write failure, recording which
// instances it rejected.
type failLog struct {
	inner storage.Log

	mu       sync.Mutex
	failing  bool
	rejected map[uint64]bool
}

var errInjected = errors.New("injected log failure")

func newFailLog(inner storage.Log) *failLog {
	return &failLog{inner: inner, rejected: make(map[uint64]bool)}
}

func (f *failLog) fail() {
	f.mu.Lock()
	f.failing = true
	f.mu.Unlock()
}

func (f *failLog) heal() {
	f.mu.Lock()
	f.failing = false
	f.mu.Unlock()
}

func (f *failLog) rejectedInstances() map[uint64]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint64]bool, len(f.rejected))
	for k := range f.rejected {
		out[k] = true
	}
	return out
}

func (f *failLog) Put(instance uint64, record []byte) error {
	return f.PutBatch([]storage.Record{{Instance: instance, Data: record}})
}

func (f *failLog) PutBatch(recs []storage.Record) error {
	f.mu.Lock()
	if f.failing {
		for _, r := range recs {
			f.rejected[r.Instance] = true
		}
		f.mu.Unlock()
		return errInjected
	}
	f.mu.Unlock()
	return f.inner.PutBatch(recs)
}

func (f *failLog) Get(instance uint64) ([]byte, bool) { return f.inner.Get(instance) }
func (f *failLog) Trim(upTo uint64) error             { return f.inner.Trim(upTo) }
func (f *failLog) FirstRetained() uint64              { return f.inner.FirstRetained() }
func (f *failLog) Last() uint64                       { return f.inner.Last() }
func (f *failLog) Sync() error                        { return f.inner.Sync() }
func (f *failLog) Close() error                       { return f.inner.Close() }

// startObservedRing wires a 3-process ring whose process 2 uses the given
// log and has its outbound traffic captured.
func startObservedRing(t *testing.T, log2 storage.Log) (nodes map[transport.ProcessID]*Node, cap2 *captureTransport, net *transport.Network) {
	t.Helper()
	net = transport.NewNetwork(nil)
	svc := coord.NewService()
	var members []coord.Member
	for i := 1; i <= 3; i++ {
		members = append(members, coord.Member{
			ID:    transport.ProcessID(i),
			Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
		})
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	nodes = make(map[transport.ProcessID]*Node)
	for i := 1; i <= 3; i++ {
		id := transport.ProcessID(i)
		tr := net.Attach(id, netem.SiteLocal)
		var log storage.Log = storage.NewMemLog()
		if id == 2 {
			log = log2
			cap2 = newCaptureTransport(tr, id, func(inst uint64) bool {
				_, ok := log2.Get(inst)
				return ok
			})
			tr = cap2
		}
		router := transport.NewRouter(tr)
		n, err := New(Config{
			Ring: 1, Self: id, Router: router, Coord: svc, Log: log,
			RetryInterval: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	})
	return nodes, cap2, net
}

// TestGroupCommitBarrierForwardImpliesDurable is the core barrier
// invariant: every vote-bearing message an acceptor releases carries a
// vote that was already durable when the message left the process.
func TestGroupCommitBarrierForwardImpliesDurable(t *testing.T) {
	fl := newFailLog(storage.NewMemLog())
	nodes, cap2, _ := startObservedRing(t, fl)

	for i := 0; i < 30; i++ {
		if err := propose(nodes[1], []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, nodes[3], 30, 10*time.Second)

	before := cap2.snapshot()
	if len(before) == 0 {
		t.Fatal("no vote-bearing messages captured before failure")
	}
	for i, v := range before {
		if !v.durable {
			t.Fatalf("vote %d (instance %d) left node 2 before it was durable", i, v.instance)
		}
	}
}

// TestGroupCommitBarrierDropsSendsOnLogFailure kills the log between
// staging and commit (PutBatch rejects the batch) and asserts no vote
// that failed to persist was ever forwarded.
func TestGroupCommitBarrierDropsSendsOnLogFailure(t *testing.T) {
	fl := newFailLog(storage.NewMemLog())
	nodes, cap2, _ := startObservedRing(t, fl)

	for i := 0; i < 10; i++ {
		if err := propose(nodes[1], []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, nodes[3], 10, 10*time.Second)

	// From here on node 2's log rejects every batch: votes stage, the
	// commit fails, and the staged forwards must be dropped wholesale.
	fl.fail()
	for i := 0; i < 20; i++ {
		if err := propose(nodes[1], []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(500 * time.Millisecond) // several retry rounds re-stage votes

	rejected := fl.rejectedInstances()
	if len(rejected) == 0 {
		t.Fatal("failure injection never rejected a vote")
	}
	for i, v := range cap2.snapshot() {
		if !v.durable {
			t.Errorf("vote %d (instance %d) was forwarded while un-durable", i, v.instance)
		}
		if v.instance != 0 && rejected[v.instance] {
			// A rejected instance may appear only if an *earlier*
			// successful commit made it durable (re-proposals); the
			// durable flag above already proves that. A rejected,
			// never-durable instance must never be forwarded.
			if _, ok := fl.Get(v.instance); !ok {
				t.Errorf("rejected instance %d escaped node 2", v.instance)
			}
		}
	}
}

// TestGroupCommitCrashRecovery crashes a FileWAL-backed acceptor without
// a clean close mid-traffic, replays its WAL from disk, and asserts every
// vote the successor received was durable: the records are all present
// and carry the forwarded values (Section 5.1 at batch granularity).
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	wal, err := storage.OpenWAL(dir, storage.WALOptions{Mode: storage.SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	nodes, cap2, net := startObservedRing(t, wal)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	proposer := nodes[1]
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = propose(proposer, []byte(fmt.Sprintf("value-%04d", i)))
			if i%32 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Let traffic flow, then crash node 2 mid-stream: detach from the
	// network and stop the loop without closing the WAL — whatever the
	// group commit had not fsynced is lost, as in a real crash.
	time.Sleep(300 * time.Millisecond)
	net.Detach(2)
	nodes[2].Stop() // second Stop from cleanup is a no-op
	close(stop)
	wg.Wait()

	captured := cap2.snapshot()
	if len(captured) == 0 {
		t.Fatal("no vote-bearing messages captured before the crash")
	}

	// Replay the crashed acceptor's WAL from disk (fresh handle; the old
	// one is abandoned un-closed) and compare against what the successor
	// received.
	replay, err := storage.OpenWAL(dir, storage.WALOptions{Mode: storage.SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = replay.Close() }()
	for i, v := range captured {
		if !v.durable {
			t.Errorf("vote %d (instance %d) left node 2 before its group commit", i, v.instance)
		}
		rec, ok := replay.Get(v.instance)
		if !ok {
			t.Errorf("vote %d: instance %d forwarded but absent from the replayed WAL", i, v.instance)
			continue
		}
		_, rinst, val, err := decodeAccept(rec)
		if err != nil || rinst != v.instance {
			t.Errorf("vote %d: corrupt WAL record for instance %d: %v", i, v.instance, err)
			continue
		}
		if !bytes.Equal(val.Data, v.value) {
			t.Errorf("vote %d: WAL value %q != forwarded value %q", i, val.Data, v.value)
		}
	}
	t.Logf("verified %d forwarded votes against the replayed WAL", len(captured))
}

// TestRestartedAcceptorServesRetransmitFromWAL restarts a FileWAL-backed
// acceptor on the same directory and asks it for pre-crash instances: it
// must serve them from disk byte for byte, and report a trimmed prefix as
// unavailable.
func TestRestartedAcceptorServesRetransmitFromWAL(t *testing.T) {
	dir := t.TempDir()
	openWAL := func() *storage.FileWAL {
		w, err := storage.OpenWAL(dir, storage.WALOptions{Mode: storage.SyncEveryPut})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	withLog := func(log storage.Log, start uint64) func(*Config) {
		return func(cfg *Config) {
			if cfg.Self == 2 {
				cfg.Log = log
				cfg.StartInstance = start
			}
		}
	}
	wal := openWAL()
	c := newCluster(t, 3, withLog(wal, 0))

	const total = 40
	want := make(map[uint64][]byte)
	var last uint64
	for i := 0; i < total; i++ {
		if err := propose(c.nodes[1], []byte(fmt.Sprintf("value-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range collect(t, c.nodes[2], total, 10*time.Second) {
		want[d.Instance] = append([]byte(nil), d.Value.Data...)
		last = max(last, d.Instance)
	}

	c.crash(2)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openWAL()
	const trimTo = 10
	if err := reopened.Trim(trimTo); err != nil {
		t.Fatal(err)
	}
	// Resume delivery past the pre-crash prefix, as replica recovery
	// does, so those instances count as decided at the restarted node.
	c.svc.MarkUp(2)
	c.start(2, withLog(reopened, last+1))
	restarted := c.nodes[2]
	t.Cleanup(func() {
		restarted.Stop() // before its log closes
		_ = reopened.Close()
	})

	probe := c.net.Attach(9, netem.SiteLocal)
	ask := func(from uint64, count uint32) transport.Message {
		t.Helper()
		if err := probe.Send(2, transport.Message{
			Kind: transport.KindRetransmitReq, Ring: c.ring, Instance: from, Count: count,
		}); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for {
			select {
			case m := <-probe.Recv():
				if m.Kind == transport.KindRetransmitResp && m.Instance == from {
					return m
				}
			case <-deadline:
				t.Fatalf("no retransmit response for instance %d", from)
			}
		}
	}

	if resp := ask(1, trimTo); resp.Count != retransmitUnavailable || len(resp.Payload) != 0 {
		t.Errorf("trimmed range served: count=%d payload=%d bytes", resp.Count, len(resp.Payload))
	}
	resp := ask(trimTo+1, uint32(last-trimTo))
	batch, err := transport.DecodeBatch(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, iv := range batch {
		if iv.Value.Skip {
			continue
		}
		if !bytes.Equal(iv.Value.Data, want[iv.Instance]) {
			t.Errorf("instance %d served %q, delivered %q before the crash", iv.Instance, iv.Value.Data, want[iv.Instance])
		}
		served++
	}
	expect := 0
	for inst := range want {
		if inst > trimTo {
			expect++
		}
	}
	if expect == 0 || served != expect {
		t.Errorf("served %d pre-crash values from the WAL, want %d", served, expect)
	}
}

// TestGroupCommitWedgeWithholdsDeliveries proves deliveries never outrun
// durability even when the log fails: a decision learned in a burst whose
// group commit failed stays pending until the retained batch commits.
func TestGroupCommitWedgeWithholdsDeliveries(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	members := []coord.Member{{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner}}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	fl := newFailLog(storage.NewMemLog())
	router := transport.NewRouter(net.Attach(1, netem.SiteLocal))
	n, err := New(Config{
		Ring: 1, Self: 1, Router: router, Coord: svc, Log: fl,
		RetryInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// Sanity: deliveries flow while the log works.
	if err := propose(n, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	collect(t, n, 1, 5*time.Second)

	// Single-member ring: the proposal decides locally in the same burst
	// whose commit now fails — the delivery must be withheld.
	fl.fail()
	if err := propose(n, []byte("wedged")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries(n):
		t.Fatalf("delivery %q released while its vote was un-durable", d.Value.Data)
	case <-time.After(300 * time.Millisecond):
	}

	// Heal the log: the retained batch commits on the next burst (retry
	// tick) and the withheld delivery is released.
	fl.heal()
	ds := collect(t, n, 1, 5*time.Second)
	if string(ds[0].Value.Data) != "wedged" {
		t.Fatalf("released %q, want the withheld delivery", ds[0].Value.Data)
	}
	if _, ok := fl.Get(ds[0].Instance); !ok {
		t.Fatal("released delivery's vote still not durable")
	}
}
