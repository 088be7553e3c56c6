package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// Tests consume a node's delivery queue through channels so they can
// select on a delivery with a timeout. One adapter goroutine per node and
// form: two would race for the node's batches.
var batchFeeds, deliveryFeeds sync.Map // *Node → chan

// batchesOf adapts n's delivery queue into a channel of batches, closed at
// the stream's end. Consumers hand each batch back with ReleaseBatch.
func batchesOf(n *Node) <-chan []Delivery {
	// Two batches: the poller runs at most that far ahead of its reader,
	// so a slow reader still leaves its backlog in the queue's lag.
	v, started := batchFeeds.LoadOrStore(n, make(chan []Delivery, 2))
	out := v.(chan []Delivery)
	if started {
		return out
	}
	go func() {
		defer close(out)
		var idle time.Duration
		for {
			b, closed := n.TakeBatch()
			switch {
			case closed:
				return
			case b == nil:
				// Poll: the test holds no receive end of Config.Wake.
				idle = min(max(2*idle, 50*time.Microsecond), 2*time.Millisecond)
				time.Sleep(idle)
				continue
			}
			idle = 0
			select {
			case out <- b:
			case <-n.done:
				n.ReleaseBatch(b) // the consumer may be gone: do not wait on it
			}
		}
	}()
	return out
}

// deliveries adapts n's delivery queue into a channel of single
// deliveries, closed at the stream's end. Each carries a heap copy of its
// payload, so it may be kept after its batch is released.
func deliveries(n *Node) <-chan Delivery {
	// Room for a few batches' worth, so a test that reads one delivery
	// at a time does not hold the batch poller up per entry.
	v, started := deliveryFeeds.LoadOrStore(n, make(chan Delivery, 1024))
	out := v.(chan Delivery)
	if started {
		return out
	}
	go func() {
		defer close(out)
		for b := range batchesOf(n) {
			for _, d := range b {
				if d.Value.Buf != nil {
					d.Value.Data = append([]byte(nil), d.Value.Data...)
					d.Value.Buf = nil
				}
				select {
				case out <- d:
				case <-n.done:
				}
			}
			n.ReleaseBatch(b)
		}
	}()
	return out
}

// TestDeliveryQueueContract pins the queue between the event loop and its
// consumer: the lag is exactly what is queued and not yet taken, the cap
// refuses the batch that would pass it, batches come out whole and in
// order, the end of the stream comes after everything queued before it,
// and a dropped stream queues nothing more.
func TestDeliveryQueueContract(t *testing.T) {
	svc := ringService(t, 3, fullRoles)
	small := func(cfg *Config) { cfg.DeliverBuffer = 4 }
	n, _ := idleNode(t, svc, 2, small)
	pair := func(n *Node, first uint64) []Delivery {
		b := n.getBatch()
		for inst := first; inst < first+2; inst++ {
			b = append(b, Delivery{Ring: 1, Instance: inst, Value: transport.Value{ID: inst, Count: 1}})
		}
		return b
	}
	lag := func(want int) {
		t.Helper()
		if got := n.FlowStats().Lag; got != want {
			t.Fatalf("Lag = %d, want %d", got, want)
		}
	}
	take := func(wantFirst uint64) {
		t.Helper()
		b, closed := n.TakeBatch()
		if closed || len(b) != 2 || b[0].Instance != wantFirst || b[1].Instance != wantFirst+1 {
			t.Fatalf("TakeBatch = %+v, closed %v; want instances %d, %d", b, closed, wantFirst, wantFirst+1)
		}
		n.ReleaseBatch(b)
	}

	if !n.enqueueBatch(pair(n, 1)) || !n.enqueueBatch(pair(n, 3)) {
		t.Fatal("the queue refused a batch below its cap")
	}
	lag(4)
	over := pair(n, 5)
	if n.enqueueBatch(over) {
		t.Fatal("the queue took a batch past its cap")
	}
	n.ReleaseBatch(over)
	lag(4)
	take(1)
	lag(2)
	take(3)
	lag(0)
	if b, closed := n.TakeBatch(); b != nil || closed {
		t.Fatalf("empty queue: TakeBatch = %+v, closed %v; want nil, false", b, closed)
	}

	if !n.enqueueBatch(pair(n, 5)) {
		t.Fatal("the drained queue refused a batch")
	}
	n.closeDelivery()
	take(5)
	if b, closed := n.TakeBatch(); b != nil || !closed {
		t.Fatalf("ended stream: TakeBatch = %+v, closed %v; want nil, true", b, closed)
	}

	d, _ := idleNode(t, svc, 3, small)
	if !d.enqueueBatch(pair(d, 1)) {
		t.Fatal("the queue refused a batch below its cap")
	}
	d.DropDeliveries()
	if got := d.FlowStats().Lag; got != 0 {
		t.Fatalf("Lag after DropDeliveries = %d, want 0", got)
	}
	if b, closed := d.TakeBatch(); b != nil || !closed {
		t.Fatalf("dropped stream: TakeBatch = %+v, closed %v; want nil, true", b, closed)
	}
	buf := bufpool.Get(8)
	buf.Retain() // the test's own reference, to watch the batch's go
	late := append(d.getBatch(), Delivery{Ring: 1, Instance: 3, Value: transport.Value{ID: 3, Count: 1, Data: buf.Bytes(), Buf: buf}})
	if !d.enqueueBatch(late) || buf.Refs() != 1 {
		t.Fatalf("a batch decided after the drop holds %d references, want only the test's", buf.Refs())
	}
	buf.Release()
	if got := d.FlowStats().Lag; got != 0 {
		t.Fatalf("Lag after a late batch = %d, want 0", got)
	}
}

// TestNewStartsOnlyTheEventLoop: a process joined to one ring runs one
// goroutine for it, the event loop. The transport hands each message to
// the ring's inbox as it arrives and the consumer pulls from the delivery
// queue, so no relay sits on either side of the loop.
func TestNewStartsOnlyTheEventLoop(t *testing.T) {
	svc := ringService(t, 3, fullRoles)
	start := func(t *testing.T, tr transport.Transport) {
		n, err := New(Config{Ring: 1, Self: 2, Router: transport.NewRouter(tr), Coord: svc, Log: storage.NewMemLog(), RetryInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
	}
	t.Run("network", func(t *testing.T) {
		net := transport.NewNetwork(nil)
		t.Cleanup(net.Close)
		before := stableGoroutines()
		start(t, net.Attach(2, netem.SiteLocal))
		if got := stableGoroutines() - before; got != 1 {
			t.Fatalf("Attach, NewRouter and New started %d goroutines, want 1 (the event loop)", got)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		peer, err := transport.ListenTCP(3, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = peer.Close() })
		before := stableGoroutines()
		tr, err := transport.ListenTCP(2, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		start(t, tr)
		if got := stableGoroutines() - before; got != 2 {
			t.Fatalf("ListenTCP, NewRouter and New started %d goroutines, want 2 (accept loop, event loop)", got)
		}
		// A connection adds its read loops — one at each end — and
		// nothing per inbox.
		peer.SetPeer(2, tr.Addr())
		if err := peer.Send(2, transport.Message{Kind: transport.KindCommand}); err != nil {
			t.Fatal(err)
		}
		got := stableGoroutines() - before
		for deadline := time.Now().Add(2 * time.Second); got < 4 && time.Now().Before(deadline); {
			got = stableGoroutines() - before // the accepting end starts its read loop asynchronously
		}
		if got != 4 {
			t.Fatalf("with one connection the process runs %d more goroutines, want 4", got)
		}
	})
}

// stableGoroutines counts goroutines once two readings 10 ms apart agree,
// so goroutines of earlier tests still winding down do not skew a count.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
