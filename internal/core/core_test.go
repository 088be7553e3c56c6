package core

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/transport"
)

// deployment builds a Multi-Ring Paxos deployment for tests: a set of
// rings, each with the given members, all over one in-process network.
type deployment struct {
	t     *testing.T
	net   *transport.Network
	svc   *coord.Service
	nodes map[transport.ProcessID]*Node
	chans map[transport.ProcessID]chan Delivery
}

// newDeployment creates nodes 1..n. ringsOf maps each ring to the member
// processes participating with full roles (proposer+acceptor+learner).
func newDeployment(t *testing.T, n int, ringsOf map[transport.RingID][]transport.ProcessID, tweak func(*Config)) *deployment {
	t.Helper()
	return newDeploymentOver(t, n, ringsOf, nil, tweak)
}

// newDeploymentOver is newDeployment with every process's transport passed
// through wrap (nil: as attached), e.g. to lose chosen messages.
func newDeploymentOver(t *testing.T, n int, ringsOf map[transport.RingID][]transport.ProcessID, wrap func(transport.Transport) transport.Transport, tweak func(*Config)) *deployment {
	t.Helper()
	d := &deployment{
		t:     t,
		net:   transport.NewNetwork(nil),
		svc:   coord.NewService(),
		nodes: make(map[transport.ProcessID]*Node),
		chans: make(map[transport.ProcessID]chan Delivery),
	}
	for ringID, members := range ringsOf {
		var ms []coord.Member
		for _, id := range members {
			ms = append(ms, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
		}
		if err := d.svc.CreateRing(ringID, ms); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		id := transport.ProcessID(i)
		tr := d.net.Attach(id, netem.SiteLocal)
		if wrap != nil {
			tr = wrap(tr)
		}
		router := transport.NewRouter(tr)
		cfg := Config{
			Self:   id,
			Router: router,
			Coord:  d.svc,
			Ring:   RingOptions{RetryInterval: 30 * time.Millisecond},
		}
		if tweak != nil {
			tweak(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.nodes[id] = node
		d.chans[id] = make(chan Delivery, 4096)
	}
	t.Cleanup(func() {
		for _, n := range d.nodes {
			n.Stop()
		}
		d.net.Close()
	})
	return d
}

// joinAll joins node id to the given rings and subscribes to subs with a
// handler that forwards into the node's test channel.
func (d *deployment) joinAll(id transport.ProcessID, rings []transport.RingID, subs []transport.RingID) {
	d.t.Helper()
	for _, r := range rings {
		if err := d.nodes[id].Join(r); err != nil {
			d.t.Fatalf("node %d join ring %d: %v", id, r, err)
		}
	}
	if len(subs) > 0 {
		ch := d.chans[id]
		// Data is only valid during the call: a packed value's pooled
		// buffer recycles once the merge has handed it over.
		if err := d.nodes[id].SubscribeBatch(func(ds []Delivery) {
			for _, dd := range ds {
				dd.Data = append([]byte(nil), dd.Data...)
				ch <- dd
			}
		}, subs...); err != nil {
			d.t.Fatalf("node %d subscribe: %v", id, err)
		}
	}
}

func (d *deployment) collect(id transport.ProcessID, count int, timeout time.Duration) []Delivery {
	d.t.Helper()
	var out []Delivery
	deadline := time.After(timeout)
	for len(out) < count {
		select {
		case dd := <-d.chans[id]:
			out = append(out, dd)
		case <-deadline:
			d.t.Fatalf("node %d timed out at %d/%d deliveries", id, len(out), count)
		}
	}
	return out
}

func TestSingleGroupMulticast(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1}, []transport.RingID{1})
	}
	if err := d.nodes[1].Multicast(1, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		ds := d.collect(transport.ProcessID(i), 1, 5*time.Second)
		if string(ds[0].Data) != "m1" || ds[0].Group != 1 {
			t.Errorf("node %d delivered %+v", i, ds[0])
		}
	}
}

func TestMulticastFromNonMember(t *testing.T) {
	// Node 4 is a pure client: member of no ring.
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 4, rings, nil)
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1}, []transport.RingID{1})
	}
	if err := d.nodes[4].Multicast(1, []byte("from-client")); err != nil {
		t.Fatal(err)
	}
	ds := d.collect(1, 1, 5*time.Second)
	if string(ds[0].Data) != "from-client" {
		t.Errorf("delivered %q", ds[0].Data)
	}
	if err := d.nodes[4].Multicast(99, nil); err == nil {
		t.Error("multicast to unknown group should fail")
	}
}

// TestDeterministicMergeSameOrder is the core atomic multicast property:
// learners subscribed to the same two groups deliver the same global
// sequence, even with concurrent proposers on both groups.
func TestDeterministicMergeSameOrder(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2, 3},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
		cfg.Ring.Lambda = 2000
	})
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1, 2})
	}
	const perGroup = 100
	go func() {
		for i := 0; i < perGroup; i++ {
			_ = d.nodes[1].Multicast(1, []byte(fmt.Sprintf("g1-%d", i)))
		}
	}()
	go func() {
		for i := 0; i < perGroup; i++ {
			_ = d.nodes[2].Multicast(2, []byte(fmt.Sprintf("g2-%d", i)))
		}
	}()
	seq1 := d.collect(1, 2*perGroup, 30*time.Second)
	seq2 := d.collect(2, 2*perGroup, 30*time.Second)
	seq3 := d.collect(3, 2*perGroup, 30*time.Second)
	for i := range seq1 {
		if string(seq1[i].Data) != string(seq2[i].Data) || string(seq1[i].Data) != string(seq3[i].Data) {
			t.Fatalf("merge order diverges at %d: %q vs %q vs %q",
				i, seq1[i].Data, seq2[i].Data, seq3[i].Data)
		}
		if seq1[i].Group != seq2[i].Group || seq1[i].Instance != seq2[i].Instance {
			t.Fatalf("merge metadata diverges at %d", i)
		}
	}
}

// TestPartialSubscription mirrors Figure 2(c): learners L1, L2 subscribe to
// rings 1 and 2; learner L3 subscribes to ring 2 only. L3 must deliver all
// of ring 2's messages in ring-2 order without needing ring 1 at all.
func TestPartialSubscription(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
		cfg.Ring.Lambda = 2000
	})
	d.joinAll(1, []transport.RingID{1, 2}, []transport.RingID{1, 2})
	d.joinAll(2, []transport.RingID{1, 2}, []transport.RingID{1, 2})
	d.joinAll(3, []transport.RingID{2}, []transport.RingID{2})

	const count = 50
	for i := 0; i < count; i++ {
		if err := d.nodes[1].Multicast(1, []byte(fmt.Sprintf("r1-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := d.nodes[1].Multicast(2, []byte(fmt.Sprintf("r2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// L3 sees only ring 2, in order.
	ds := d.collect(3, count, 20*time.Second)
	for i, dd := range ds {
		if dd.Group != 2 {
			t.Fatalf("L3 delivered from group %d", dd.Group)
		}
		if want := fmt.Sprintf("r2-%d", i); string(dd.Data) != want {
			t.Fatalf("L3 delivery %d = %q, want %q", i, dd.Data, want)
		}
	}
	// L1 and L2 see both groups in the same merged order.
	s1 := d.collect(1, 2*count, 20*time.Second)
	s2 := d.collect(2, 2*count, 20*time.Second)
	for i := range s1 {
		if string(s1[i].Data) != string(s2[i].Data) {
			t.Fatalf("L1/L2 diverge at %d: %q vs %q", i, s1[i].Data, s2[i].Data)
		}
	}
}

func TestRateLevelingUnblocksIdleGroup(t *testing.T) {
	// Group 2 is idle; without skips, subscribers of {1,2} would stall
	// after M instances of group 1.
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2, 3},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 10 * time.Millisecond
		cfg.Ring.Lambda = 1000
	})
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1, 2})
	}
	const count = 40
	for i := 0; i < count; i++ {
		if err := d.nodes[1].Multicast(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := d.collect(2, count, 20*time.Second)
	for i, dd := range ds {
		if dd.Data[0] != byte(i) {
			t.Fatalf("delivery %d out of order", i)
		}
	}
}

func TestDeliveredVectorAdvances(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2, 3},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
		cfg.Ring.Lambda = 1000
	})
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1, 2})
	}
	for i := 0; i < 30; i++ {
		_ = d.nodes[1].Multicast(1, []byte{1})
		_ = d.nodes[1].Multicast(2, []byte{2})
	}
	d.collect(1, 60, 20*time.Second)
	vec := d.nodes[1].DeliveredVector()
	if vec[1] == 0 || vec[2] == 0 {
		t.Fatalf("vector missing entries: %v", vec)
	}
	sub := d.nodes[1].Subscription()
	if len(sub) != 2 || sub[0] != 1 || sub[1] != 2 {
		t.Fatalf("subscription = %v", sub)
	}
	cur := d.nodes[1].MergeCursor()
	if len(cur.Groups) != 2 {
		t.Fatalf("cursor = %+v", cur)
	}
}

func TestSubscribeValidation(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	n := d.nodes[1]
	h := func([]Delivery) {}
	if err := n.SubscribeBatch(nil, 1); err == nil {
		t.Error("nil handler should fail")
	}
	if err := n.SubscribeBatch(h); err == nil {
		t.Error("empty subscription should fail")
	}
	if err := n.SubscribeBatch(h, 1); err != ErrNotSubscribed {
		t.Errorf("subscribe before join = %v, want ErrNotSubscribed", err)
	}
	if err := n.Join(99); err == nil {
		t.Error("join of unknown ring should fail")
	}
	if err := n.Join(1); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(1); err != nil {
		t.Errorf("re-join should be a no-op, got %v", err)
	}
	if err := n.SubscribeBatch(h, 1, 1); err == nil {
		t.Error("duplicate groups in subscription should fail")
	}
	if err := n.SubscribeBatch(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.SubscribeBatch(h, 1); err == nil {
		t.Error("second subscribe should fail")
	}
}

func TestJoinNonMember(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2}}
	d := newDeployment(t, 3, rings, nil)
	if err := d.nodes[3].Join(1); err != ErrNotMember {
		t.Errorf("join as non-member = %v, want ErrNotMember", err)
	}
}

func TestStopIdempotentAndMulticastAfterStop(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	d.joinAll(1, []transport.RingID{1}, []transport.RingID{1})
	n := d.nodes[1]
	n.Stop()
	n.Stop()
	if err := n.Multicast(1, []byte("late")); err != ErrStopped {
		t.Errorf("multicast after stop = %v, want ErrStopped", err)
	}
	if err := n.Join(1); err != ErrStopped {
		t.Errorf("join after stop = %v, want ErrStopped", err)
	}
}

func TestMergeQuotaM(t *testing.T) {
	// With M=4 and both groups loaded, the merged order must still be
	// identical across learners.
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2, 3},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.M = 4
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
		cfg.Ring.Lambda = 2000
	})
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1, 2})
	}
	const perGroup = 40
	for i := 0; i < perGroup; i++ {
		_ = d.nodes[1].Multicast(1, []byte(fmt.Sprintf("a%d", i)))
		_ = d.nodes[2].Multicast(2, []byte(fmt.Sprintf("b%d", i)))
	}
	s1 := d.collect(1, 2*perGroup, 30*time.Second)
	s2 := d.collect(2, 2*perGroup, 30*time.Second)
	for i := range s1 {
		if string(s1[i].Data) != string(s2[i].Data) {
			t.Fatalf("M=4 merge diverges at %d", i)
		}
	}
}

func TestDeliveredCount(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1}, []transport.RingID{1})
	}
	for i := 0; i < 10; i++ {
		if err := d.nodes[1].Multicast(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.collect(1, 10, 10*time.Second)
	if got := d.nodes[1].DeliveredCount(); got != 10 {
		t.Errorf("DeliveredCount = %d, want 10", got)
	}
}

// TestBatchedMulticastUnpacks: a burst of messages reaching the
// coordinator together is delivered in proposal order at every learner,
// however the event loop splits it into packed instances (Section 4). The
// burst is one SendBatch from a client process, the way a busy proposer's
// coalesced flush arrives. How many instances it takes is timing: the
// count is pinned white-box in internal/ring
// (TestCoordinatorPacksDrainedBurst), and unpacking in TestMergeModel.
func TestBatchedMulticastUnpacks(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.BatchBytes = 32 << 10
	})
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1}, []transport.RingID{1})
	}
	const count = 100
	client := d.net.Attach(99, netem.SiteLocal).(transport.BatchSender)
	burst := make([]transport.Message, count)
	for i := range burst {
		burst[i] = transport.Message{
			Kind: transport.KindProposal, To: 1, Ring: 1, Seq: 99,
			Value: transport.Value{
				ID:    transport.MakeValueID(99, uint32(i+1)),
				Count: 1,
				Data:  []byte(fmt.Sprintf("m%04d", i)),
			},
		}
	}
	if err := client.SendBatch(burst); err != nil {
		t.Fatal(err)
	}
	// All messages are delivered, in order, despite packing.
	for id := 1; id <= 3; id++ {
		ds := d.collect(transport.ProcessID(id), count, 15*time.Second)
		for i, dd := range ds {
			if want := fmt.Sprintf("m%04d", i); string(dd.Data) != want {
				t.Fatalf("node %d delivery %d = %q, want %q", id, i, dd.Data, want)
			}
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	c := Cursor{
		Groups:    []transport.RingID{1, 2, 7},
		Credits:   []uint64{0, 5, 2},
		Next:      1,
		Remaining: 3,
	}
	got, err := DecodeCursor(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 3 || got.Groups[2] != 7 || got.Credits[1] != 5 ||
		got.Next != 1 || got.Remaining != 3 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeCursor([]byte{1, 2}); err == nil {
		t.Error("short cursor accepted")
	}
}

func TestCursorSubscriptionMismatch(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.StartCursor = Cursor{Groups: []transport.RingID{1, 2}, Credits: []uint64{0, 0}}
	})
	if err := d.nodes[1].Join(1); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[1].SubscribeBatch(func([]Delivery) {}, 1); err == nil {
		t.Error("cursor/subscription mismatch should fail")
	}
}
