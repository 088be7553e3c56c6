package ring

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// cluster wires N processes into one ring for tests. All processes are
// proposer+acceptor+learner unless membersFn overrides.
type cluster struct {
	t       *testing.T
	net     *transport.Network
	svc     *coord.Service
	routers map[transport.ProcessID]*transport.Router
	nodes   map[transport.ProcessID]*Node
	logs    map[transport.ProcessID]storage.Log
	ring    transport.RingID
}

func newCluster(t *testing.T, n int, tweak func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		net:     transport.NewNetwork(nil),
		svc:     coord.NewService(),
		routers: make(map[transport.ProcessID]*transport.Router),
		nodes:   make(map[transport.ProcessID]*Node),
		logs:    make(map[transport.ProcessID]storage.Log),
		ring:    1,
	}
	var members []coord.Member
	for i := 1; i <= n; i++ {
		members = append(members, coord.Member{
			ID:    transport.ProcessID(i),
			Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner,
		})
	}
	if err := c.svc.CreateRing(c.ring, members); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		id := transport.ProcessID(i)
		c.start(id, tweak)
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) start(id transport.ProcessID, tweak func(*Config)) {
	tr := c.net.Attach(id, netem.SiteLocal)
	router := transport.NewRouter(tr)
	log := storage.NewMemLog()
	cfg := Config{
		Ring:          c.ring,
		Self:          id,
		Router:        router,
		Coord:         c.svc,
		Log:           log,
		RetryInterval: 30 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	node, err := New(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	c.routers[id] = router
	c.nodes[id] = node
	c.logs[id] = log
}

func (c *cluster) stopAll() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

// crash kills a process: network detach + node stop + coord notification.
func (c *cluster) crash(id transport.ProcessID) {
	c.net.Detach(id)
	c.nodes[id].Stop()
	delete(c.nodes, id)
	c.svc.MarkDown(id)
}

// collect drains count non-skip deliveries from a node.
func collect(t *testing.T, n *Node, count int, timeout time.Duration) []Delivery {
	t.Helper()
	var out []Delivery
	deadline := time.After(timeout)
	for len(out) < count {
		select {
		case d, ok := <-deliveries(n):
			if !ok {
				t.Fatalf("delivery channel closed after %d/%d", len(out), count)
			}
			if d.Value.Skip {
				continue
			}
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timed out after %d/%d deliveries", len(out), count)
		}
	}
	return out
}

func TestSingleValueDecided(t *testing.T) {
	c := newCluster(t, 3, nil)
	if err := c.nodes[2].Propose([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for id := transport.ProcessID(1); id <= 3; id++ {
		ds := collect(t, c.nodes[id], 1, 5*time.Second)
		if string(ds[0].Value.Data) != "hello" {
			t.Errorf("node %d delivered %q", id, ds[0].Value.Data)
		}
	}
}

func TestAllLearnersSameOrder(t *testing.T) {
	c := newCluster(t, 3, nil)
	const count = 200
	for i := 0; i < count; i++ {
		proposer := c.nodes[transport.ProcessID(i%3+1)]
		if err := proposer.Propose([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var sequences [3][]string
	for i := 0; i < 3; i++ {
		ds := collect(t, c.nodes[transport.ProcessID(i+1)], count, 20*time.Second)
		for _, d := range ds {
			sequences[i] = append(sequences[i], string(d.Value.Data))
		}
	}
	for i := 1; i < 3; i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order diverges at %d: node1=%q node%d=%q",
					j, sequences[0][j], i+1, sequences[i][j])
			}
		}
	}
}

func TestDeliveryInstancesAreOrdered(t *testing.T) {
	c := newCluster(t, 3, nil)
	for i := 0; i < 50; i++ {
		if err := c.nodes[1].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := collect(t, c.nodes[3], 50, 10*time.Second)
	last := uint64(0)
	for _, d := range ds {
		if d.Instance <= last {
			t.Fatalf("instance went backwards: %d after %d", d.Instance, last)
		}
		last = d.Instance
	}
}

func TestVotesLoggedBeforeDecision(t *testing.T) {
	c := newCluster(t, 3, nil)
	if err := c.nodes[1].Propose([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.nodes[1], 1, 5*time.Second)
	inst := ds[0].Instance
	// A majority of acceptors must hold the logged vote.
	logged := 0
	for id := transport.ProcessID(1); id <= 3; id++ {
		if rec, ok := c.logs[id].Get(inst); ok {
			_, rinst, v, err := decodeAccept(rec)
			if err != nil || rinst != inst || string(v.Data) != "durable" {
				t.Errorf("node %d has corrupt log record", id)
			}
			logged++
		}
	}
	if logged < 2 {
		t.Errorf("only %d acceptors logged the vote, need majority", logged)
	}
}

func TestLearnerOnlyMember(t *testing.T) {
	// Ring: 3 acceptors + 1 pure learner.
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	members := []coord.Member{
		{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor},
		{ID: 2, Roles: coord.RoleAcceptor},
		{ID: 3, Roles: coord.RoleAcceptor},
		{ID: 4, Roles: coord.RoleLearner},
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 1; i <= 4; i++ {
		id := transport.ProcessID(i)
		router := transport.NewRouter(net.Attach(id, netem.SiteLocal))
		cfg := Config{Ring: 1, Self: id, Router: router, Coord: svc, RetryInterval: 30 * time.Millisecond}
		if i != 4 {
			cfg.Log = storage.NewMemLog()
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	if err := nodes[0].Propose([]byte("to-learner")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, nodes[3], 1, 5*time.Second)
	if string(ds[0].Value.Data) != "to-learner" {
		t.Errorf("learner got %q", ds[0].Value.Data)
	}
}

func TestLearnerWithoutLogRejected(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	if err := svc.CreateRing(1, []coord.Member{{ID: 1, Roles: coord.RoleAcceptor}}); err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(net.Attach(1, netem.SiteLocal))
	if _, err := New(Config{Ring: 1, Self: 1, Router: router, Coord: svc}); err == nil {
		t.Error("acceptor without log should be rejected")
	}
	if _, err := New(Config{Ring: 2, Self: 1, Router: router, Coord: svc}); err == nil {
		t.Error("unknown ring should be rejected")
	}
	if _, err := New(Config{Ring: 1, Self: 9, Router: router, Coord: svc}); err == nil {
		t.Error("non-member should be rejected")
	}
}

func TestSingleMemberRing(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	members := []coord.Member{{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner}}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(net.Attach(1, netem.SiteLocal))
	n, err := New(Config{Ring: 1, Self: 1, Router: router, Coord: svc, Log: storage.NewMemLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	for i := 0; i < 10; i++ {
		if err := n.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := collect(t, n, 10, 5*time.Second)
	for i, d := range ds {
		if d.Value.Data[0] != byte(i) {
			t.Errorf("delivery %d = %d", i, d.Value.Data[0])
		}
	}
}

func TestCoordinatorFailover(t *testing.T) {
	c := newCluster(t, 3, nil)
	// Decide some values under the initial coordinator (process 1).
	for i := 0; i < 10; i++ {
		if err := c.nodes[1].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, c.nodes[2], 10, 5*time.Second)

	// Kill the coordinator; process 2 takes over.
	c.crash(1)

	// New proposals must still decide.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.nodes[3].Propose([]byte("after-failover")); err != nil && err != ErrNoCoordinator {
			t.Fatal(err)
		}
		select {
		case d := <-deliveries(c.nodes[3]):
			if d.Value.Skip {
				continue
			}
			if string(d.Value.Data) == "after-failover" {
				return
			}
			continue
		case <-time.After(200 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no decision after coordinator failover")
		}
	}
}

func TestDecisionLossRecoveredByRetransmit(t *testing.T) {
	c := newCluster(t, 3, nil)
	// Block node3's incoming link from node2 (its ring predecessor) so it
	// misses decisions, then heal: gap chasing must catch it up.
	if err := c.nodes[1].Propose([]byte("first")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[3], 1, 5*time.Second)

	c.net.Block(2, 3)
	for i := 0; i < 5; i++ {
		if err := c.nodes[1].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let decisions flow among 1 and 2.
	collect(t, c.nodes[2], 5, 5*time.Second)
	c.net.Unblock(2, 3)

	ds := collect(t, c.nodes[3], 5, 10*time.Second)
	if len(ds) != 5 {
		t.Fatalf("node3 recovered %d/5 values", len(ds))
	}
}

func TestRateLevelingSkips(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.SkipEnabled = true
		cfg.Delta = 10 * time.Millisecond
		cfg.Lambda = 500
	})
	// No proposals: the coordinator must emit skip instances.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-deliveries(c.nodes[2]):
			if d.Value.Skip && d.Value.Span() >= 1 {
				return // rate leveling works
			}
		case <-deadline:
			t.Fatal("no skip instances generated on idle ring")
		}
	}
}

func TestSkipsInterleaveWithValues(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.SkipEnabled = true
		cfg.Delta = 5 * time.Millisecond
		cfg.Lambda = 200
	})
	for i := 0; i < 20; i++ {
		if err := c.nodes[1].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// All 20 real values arrive, in order, despite interleaved skips.
	ds := collect(t, c.nodes[3], 20, 10*time.Second)
	for i, d := range ds {
		if d.Value.Data[0] != byte(i) {
			t.Fatalf("value %d out of order", i)
		}
	}
	// The idle ring keeps generating skips; they must reach learners.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, skipped := c.nodes[3].Stats(); skipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expected some skipped instances")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTrimProtocolNeedsSafeResp(t *testing.T) {
	// Without replicas answering SafeReq, no trim happens (safe default).
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.TrimInterval = 20 * time.Millisecond
	})
	if err := c.nodes[1].Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[1], 1, 5*time.Second)
	time.Sleep(100 * time.Millisecond)
	if got := c.logs[1].FirstRetained(); got != 0 {
		t.Errorf("log trimmed to %d without any SafeResp", got)
	}
}

func TestProposeAfterStop(t *testing.T) {
	c := newCluster(t, 3, nil)
	n := c.nodes[3]
	n.Stop()
	delete(c.nodes, 3)
	if err := n.Propose([]byte("late")); err != ErrStopped {
		t.Errorf("Propose after stop = %v, want ErrStopped", err)
	}
}

func TestThroughputManyValues(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := newCluster(t, 3, func(cfg *Config) { cfg.Window = 512 })
	const count = 2000
	go func() {
		for i := 0; i < count; i++ {
			_ = c.nodes[1].Propose([]byte("payload-payload-payload"))
		}
	}()
	ds := collect(t, c.nodes[2], count, 30*time.Second)
	if len(ds) != count {
		t.Fatalf("delivered %d/%d", len(ds), count)
	}
}
