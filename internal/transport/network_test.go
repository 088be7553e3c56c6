package transport

import (
	"sync"
	"testing"
	"time"

	"amcast/internal/netem"
)

func recvOne(t *testing.T, tr Transport, timeout time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-tr.Recv():
		if !ok {
			t.Fatal("transport closed unexpectedly")
		}
		// Honor the pooled-read contract on behalf of the test: copy
		// anything aliasing a pooled read block, then drop the refs.
		m.DetachAlias()
		m.ReleaseRefs()
		return m
	case <-time.After(timeout):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

func TestNetworkDeliver(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	if err := a.Send(2, Message{Kind: KindCommand, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, time.Second)
	if m.From != 1 || m.To != 2 || m.Seq != 7 {
		t.Errorf("unexpected message %+v", m)
	}
}

func TestNetworkFIFOPerLink(t *testing.T) {
	topo := netem.NewTopology()
	topo.SetLink("a", "b", netem.Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})
	n := NewNetwork(topo)
	defer n.Close()
	a := n.Attach(1, "a")
	b := n.Attach(2, "b")

	const count = 200
	for i := uint64(0); i < count; i++ {
		if err := a.Send(2, Message{Kind: KindCommand, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		m := recvOne(t, b, 5*time.Second)
		if m.Seq != i {
			t.Fatalf("out of order: got seq %d want %d", m.Seq, i)
		}
	}
}

func TestNetworkLatencyApplied(t *testing.T) {
	topo := netem.NewTopology()
	topo.SetRTT("x", "y", 40*time.Millisecond, 0, 0)
	n := NewNetwork(topo)
	defer n.Close()
	a := n.Attach(1, "x")
	b := n.Attach(2, "y")

	start := time.Now()
	if err := a.Send(2, Message{Kind: KindCommand}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= ~20ms", elapsed)
	}
}

func TestNetworkSendToCrashed(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	n.Attach(2, netem.SiteLocal)
	n.Detach(2)

	// Lost silently, no error.
	if err := a.Send(2, Message{Kind: KindCommand}); err != nil {
		t.Fatalf("send to crashed process should not error: %v", err)
	}
	if err := a.Send(99, Message{Kind: KindCommand}); err != nil {
		t.Fatalf("send to unknown process should not error: %v", err)
	}
}

func TestNetworkReattachDropsInFlight(t *testing.T) {
	topo := netem.NewTopology()
	topo.SetRTT("x", "y", 50*time.Millisecond, 0, 0)
	n := NewNetwork(topo)
	defer n.Close()
	a := n.Attach(1, "x")
	n.Attach(2, "y")

	// Message in flight to the old incarnation must not reach the new one.
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	b2 := n.Attach(2, "y") // crash + recover before delivery
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b2, time.Second)
	if m.Seq != 2 {
		t.Errorf("new incarnation received stale message seq=%d", m.Seq)
	}
}

func TestNetworkBlockUnblock(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	n.Faults().Cut(1, 2)
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("message crossed a cut link")
	case <-time.After(50 * time.Millisecond):
	}
	n.Faults().Heal(1, 2)
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b, time.Second); m.Seq != 2 {
		t.Errorf("got seq %d after unblock, want 2", m.Seq)
	}
}

func TestNetworkSendAfterClose(t *testing.T) {
	n := NewNetwork(nil)
	a := n.Attach(1, netem.SiteLocal)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, Message{}); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	n.Close()
}

func TestNetworkBandwidthSerialization(t *testing.T) {
	topo := netem.NewTopology()
	// 1 MB/s link: a 100 KB payload takes ~100 ms to serialize.
	topo.SetLink("x", "y", netem.Link{Bandwidth: 1 << 20})
	n := NewNetwork(topo)
	defer n.Close()
	a := n.Attach(1, "x")
	b := n.Attach(2, "y")

	payload := make([]byte, 100<<10)
	start := time.Now()
	if err := a.Send(2, Message{Kind: KindCommand, Value: Value{Data: payload}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("100KB over 1MB/s took %v, want >= ~95ms", elapsed)
	}
}

func TestNetworkSendBatch(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	const count = 300
	msgs := make([]Message, count)
	for i := range msgs {
		msgs[i] = Message{Kind: KindPhase2, To: 2, Seq: uint64(i)}
	}
	if err := a.(BatchSender).SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < count; i++ {
		if m := recvOne(t, b, 5*time.Second); m.Seq != i || m.From != 1 {
			t.Fatalf("message %d: %+v", i, m)
		}
	}
}

func TestNetworkSendBatchShapedFIFO(t *testing.T) {
	// A shaped link forces the queued path; batch and single sends must
	// still arrive FIFO.
	topo := netem.NewTopology()
	topo.SetLink("a", "b", netem.Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})
	n := NewNetwork(topo)
	defer n.Close()
	a := n.Attach(1, "a")
	b := n.Attach(2, "b")

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := a.(BatchSender).SendBatch([]Message{
			{Kind: KindPhase2, To: 2, Seq: uint64(3 * i)},
			{Kind: KindPhase2, To: 2, Seq: uint64(3*i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(2, Message{Kind: KindDecision, Seq: uint64(3*i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3*rounds; i++ {
		if m := recvOne(t, b, 5*time.Second); m.Seq != i {
			t.Fatalf("out of order: got seq %d want %d", m.Seq, i)
		}
	}
}

func TestNetworkSendBatchToCrashedAndBlocked(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)
	n.Faults().Cut(1, 3) // 3 never attached anyway; also exercise the cut path
	msgs := []Message{
		{Kind: KindCommand, To: 3, Seq: 1}, // cut/crashed: lost
		{Kind: KindCommand, To: 9, Seq: 2}, // never attached: lost
		{Kind: KindCommand, To: 2, Seq: 3},
	}
	if err := a.(BatchSender).SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b, 5*time.Second); m.Seq != 3 {
		t.Fatalf("got seq %d, want 3", m.Seq)
	}
}

// TestZeroDelayLinkNeverQueues: on a zero-delay link every message is
// deliverable the moment it is sent, however many goroutines of one
// process send over the link at once. None may take the queued path — a
// drain goroutine and a queue slot per message — and each sender's
// messages still arrive in the order it sent them.
func TestZeroDelayLinkNeverQueues(t *testing.T) {
	const senders, each = 8, 10000
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)
	if err := a.Send(2, Message{Kind: KindCommand, Ring: senders, Seq: 0}); err != nil {
		t.Fatal(err) // creates the link the sampler watches
	}
	recvOne(t, b, time.Second)
	n.mu.Lock()
	ls := n.links[[2]ProcessID{1, 2}]
	n.mu.Unlock()

	stop := make(chan struct{})
	queued := make(chan int, 1)
	go func() {
		seen := 0
		for {
			select {
			case <-stop:
				queued <- seen
				return
			default:
			}
			ls.mu.Lock()
			if ls.draining || ls.queue.len() > 0 {
				seen++
			}
			ls.mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				if err := a.Send(2, Message{Kind: KindCommand, Ring: RingID(w), Seq: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var next [senders]uint64
	for got := 0; got < senders*each; got++ {
		m := recvOne(t, b, 5*time.Second)
		if next[m.Ring] != m.Seq {
			t.Fatalf("sender %d: message %d arrived where %d was due", m.Ring, m.Seq, next[m.Ring])
		}
		next[m.Ring]++
	}
	wg.Wait()
	close(stop)
	if seen := <-queued; seen > 0 {
		t.Errorf("the zero-delay link was seen queueing %d times", seen)
	}
}
