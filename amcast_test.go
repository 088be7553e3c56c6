package amcast

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func fullMembers(ids ...ProcessID) []Member {
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i] = Member{ID: id, Proposer: true, Acceptor: true, Learner: true}
	}
	return out
}

func TestPublicAPIQuickstart(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	if err := sys.CreateGroup(1, fullMembers(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	chans := make([]chan Delivery, 3)
	for i := 0; i < 3; i++ {
		opts := Defaults()
		opts.RetryInterval = 30 * time.Millisecond
		n, err := sys.NewNode(ProcessID(i+1), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		if err := n.Join(1); err != nil {
			t.Fatal(err)
		}
		ch := make(chan Delivery, 64)
		chans[i] = ch
		if err := n.Subscribe(func(d Delivery) { ch <- d }, 1); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if err := nodes[0].Multicast(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case d := <-ch:
			if string(d.Data) != "hello" || d.Group != 1 {
				t.Errorf("node %d delivered %+v", i+1, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d timed out", i+1)
		}
	}
	if nodes[0].ID() != 1 {
		t.Error("ID broken")
	}
	if nodes[0].DeliveredCount() != 1 {
		t.Error("DeliveredCount broken")
	}
	if v := nodes[0].DeliveredVector(); v[1] == 0 {
		t.Error("DeliveredVector broken")
	}
}

func TestPublicAPITwoGroupsSameOrder(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	for g := GroupID(1); g <= 2; g++ {
		if err := sys.CreateGroup(g, fullMembers(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seqs := make(map[ProcessID][]string)
	var nodes []*Node
	for i := ProcessID(1); i <= 2; i++ {
		opts := Defaults()
		opts.RetryInterval = 30 * time.Millisecond
		n, err := sys.NewNode(i, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		for g := GroupID(1); g <= 2; g++ {
			if err := n.Join(g); err != nil {
				t.Fatal(err)
			}
		}
		id := i
		if err := n.Subscribe(func(d Delivery) {
			mu.Lock()
			seqs[id] = append(seqs[id], string(d.Data))
			mu.Unlock()
		}, 1, 2); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	const perGroup = 30
	for i := 0; i < perGroup; i++ {
		if err := nodes[0].Multicast(1, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Multicast(2, []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		done := len(seqs[1]) >= 2*perGroup && len(seqs[2]) >= 2*perGroup
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("timeout: node1=%d node2=%d deliveries", len(seqs[1]), len(seqs[2]))
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 2*perGroup; i++ {
		if seqs[1][i] != seqs[2][i] {
			t.Fatalf("order diverges at %d: %q vs %q", i, seqs[1][i], seqs[2][i])
		}
	}
}

func TestPublicAPIGeoSystem(t *testing.T) {
	sys := NewGeoSystem(0.02)
	defer sys.Close()
	regions := Regions()
	if len(regions) != 4 {
		t.Fatalf("regions = %v", regions)
	}
	for i := ProcessID(1); i <= 3; i++ {
		sys.PlaceNode(i, regions[int(i-1)%len(regions)])
	}
	if err := sys.CreateGroup(1, fullMembers(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	ch := make(chan Delivery, 8)
	var nodes []*Node
	for i := ProcessID(1); i <= 3; i++ {
		opts := WANDefaults()
		opts.RetryInterval = 100 * time.Millisecond
		n, err := sys.NewNode(i, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		if err := n.Join(1); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := n.Subscribe(func(d Delivery) { ch <- d }, 1); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	if err := nodes[2].Multicast(1, []byte("geo")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-ch:
		if string(d.Data) != "geo" {
			t.Errorf("delivered %q", d.Data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("geo delivery timed out")
	}
}

func TestPublicAPICrashRecover(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	if err := sys.CreateGroup(1, fullMembers(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	mk := func(id ProcessID, sink chan Delivery) *Node {
		opts := Defaults()
		opts.RetryInterval = 30 * time.Millisecond
		n, err := sys.NewNode(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Join(1); err != nil {
			t.Fatal(err)
		}
		if sink != nil {
			if err := n.Subscribe(func(d Delivery) {
				d.Data = append([]byte(nil), d.Data...) // retried multicasts may be packed
				sink <- d
			}, 1); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	ch2 := make(chan Delivery, 64)
	n1 := mk(1, nil)
	n2 := mk(2, ch2)
	n3 := mk(3, nil)
	defer n2.Stop()
	defer n3.Stop()

	if err := n1.Multicast(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	<-ch2

	// Crash the coordinator (node 1); the group must keep deciding.
	n1.Stop()
	sys.Crash(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_ = n3.Multicast(1, []byte("after"))
		select {
		case d := <-ch2:
			if string(d.Data) == "after" {
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after coordinator crash")
		}
	}
}

func TestPublicAPIValidation(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	if err := sys.CreateGroup(1, []Member{{ID: 1}}); err == nil {
		t.Error("member without roles accepted")
	}
	if err := sys.CreateGroup(1, fullMembers(1)); err != nil {
		t.Fatal(err)
	}
	n, err := sys.NewNode(1, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Subscribe(nil, 1); err == nil {
		t.Error("nil handler accepted")
	}
	bad := Defaults()
	bad.Durable = true
	if _, err := sys.NewNode(2, bad); err == nil {
		t.Error("Durable without DataDir accepted")
	}
}

func TestPublicAPIDurable(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	if err := sys.CreateGroup(1, fullMembers(1)); err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.Durable = true
	opts.DataDir = t.TempDir()
	opts.RetryInterval = 30 * time.Millisecond
	n, err := sys.NewNode(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Join(1); err != nil {
		t.Fatal(err)
	}
	ch := make(chan Delivery, 1)
	if err := n.Subscribe(func(d Delivery) { ch <- d }, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Multicast(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("durable multicast not delivered")
	}
}

func TestSubscribeBatch(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	members := []Member{
		{ID: 1, Proposer: true, Acceptor: true, Learner: true},
		{ID: 2, Proposer: true, Acceptor: true, Learner: true},
		{ID: 3, Proposer: true, Acceptor: true, Learner: true},
	}
	if err := sys.CreateGroup(1, members); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 3)
	for i := ProcessID(1); i <= 3; i++ {
		n, err := sys.NewNode(i, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		if err := n.Join(1); err != nil {
			t.Fatal(err)
		}
		nodes[i-1] = n
	}
	node := nodes[0]
	got := make(chan string, 64)
	if err := node.SubscribeBatch(func(ds []Delivery) {
		for _, d := range ds {
			got <- string(d.Data)
		}
	}, 1); err != nil {
		t.Fatal(err)
	}
	const count = 20
	for i := 0; i < count; i++ {
		if err := node.Multicast(1, []byte{'a' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case s := <-got:
			if want := string([]byte{'a' + byte(i)}); s != want {
				t.Fatalf("delivery %d = %q, want %q", i, s, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at delivery %d", i)
		}
	}
}
