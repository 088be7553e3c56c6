package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/netem"
)

// takeN takes up to n messages from in within d, honoring the pooled-read
// contract on behalf of the test.
func takeN(t *testing.T, in *Inbox, n int, d time.Duration) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(d)
	for len(out) < n {
		select {
		case <-in.Ready():
			var open bool
			if out, open = in.Take(out, n-len(out)); !open {
				t.Fatalf("inbox closed after %d messages", len(out))
			}
		case <-deadline:
			return out
		}
	}
	for i := range out {
		out[i].DetachAlias()
		out[i].ReleaseRefs()
	}
	return out
}

// TestInboxPerSenderFIFO: concurrent senders interleave, but each one's
// messages come out in the order it pushed them, and none is lost.
func TestInboxPerSenderFIFO(t *testing.T) {
	const senders, each = 8, 10000
	in := newInbox()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				in.push(Message{From: ProcessID(s), Seq: uint64(i)})
			}
		}()
	}
	last := make([]uint64, senders)
	var burst []Message
	for got := 0; got < senders*each; {
		select {
		case <-in.Ready():
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d of %d messages", got, senders*each)
		}
		burst, _ = in.Take(burst[:0], 128)
		for _, m := range burst {
			if m.Seq != last[m.From]+1 {
				t.Fatalf("sender %d: got seq %d after %d", m.From, m.Seq, last[m.From])
			}
			last[m.From] = m.Seq
		}
		got += len(burst)
	}
	wg.Wait()
}

// TestInboxTakeBoundedAndResignals: Take never returns more than max, and
// Ready fires again while messages remain, so a consumer taking bounded
// bursts never strands the tail.
func TestInboxTakeBoundedAndResignals(t *testing.T) {
	in := newInbox()
	for i := 1; i <= 10; i++ {
		in.push(Message{Seq: uint64(i)})
	}
	var next uint64 = 1
	for next <= 10 {
		select {
		case <-in.Ready():
		case <-time.After(time.Second):
			t.Fatalf("Ready did not fire with seq %d still queued", next)
		}
		got, open := in.Take(nil, 3)
		if !open || len(got) > 3 {
			t.Fatalf("Take(3) = %d messages, open %v", len(got), open)
		}
		for _, m := range got {
			if m.Seq != next {
				t.Fatalf("got seq %d, want %d", m.Seq, next)
			}
			next++
		}
	}
	select {
	case <-in.Ready():
		if got, _ := in.Take(nil, 3); len(got) != 0 {
			t.Fatalf("drained inbox still held %d messages", len(got))
		}
	default:
	}
}

// TestInboxCloseDiscards: close releases every queued pooled reference,
// drops later pushes, and leaves Ready firing with Take reporting closed.
func TestInboxCloseDiscards(t *testing.T) {
	before := bufpool.Outstanding()
	in := newInbox()
	for i := 0; i < 10; i++ {
		in.push(Message{Seq: uint64(i), Block: bufpool.Get(64)})
	}
	in.close()
	in.push(Message{Seq: 99, Block: bufpool.Get(64)}) // dropped after close
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("outstanding pool buffers = %d after close, want %d", got, before)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-in.Ready():
		case <-time.After(time.Second):
			t.Fatal("Ready stopped firing after close")
		}
		if got, open := in.Take(nil, 64); open || len(got) != 0 {
			t.Fatalf("Take on a closed inbox = %d messages, open %v", len(got), open)
		}
	}
}

// TestRouterBindsAfterArrivals: messages that arrive before NewRouter —
// a deployment attaches every process before it builds their routers —
// are routed first, and none is lost or overtaken by later arrivals.
func TestRouterBindsAfterArrivals(t *testing.T) {
	const count = 5000
	check := func(t *testing.T, a, b Transport) {
		sent := make(chan int, count)
		go func() {
			for i := 1; i <= count; i++ {
				_ = a.Send(b.ID(), Message{Kind: KindCommand, Seq: uint64(i)})
				sent <- i
			}
		}()
		for i := 0; i < count/10; i++ {
			<-sent // let arrivals begin before the router binds
		}
		r := NewRouter(b)
		got := takeN(t, r.Service(), count, 10*time.Second)
		if len(got) != count {
			t.Fatalf("router saw %d of %d messages", len(got), count)
		}
		for i, m := range got {
			if m.Seq != uint64(i+1) {
				t.Fatalf("message %d has seq %d", i, m.Seq)
			}
		}
	}
	t.Run("network", func(t *testing.T) {
		n := NewNetwork(nil)
		defer n.Close()
		check(t, n.Attach(1, netem.SiteLocal), n.Attach(2, netem.SiteLocal))
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := newTCPPair(t)
		check(t, a, b)
	})
}

// TestRouterInboxAfterCloseIsClosed: an inbox first asked for after the
// transport closed is born closed, so its consumer sees the end instead
// of waiting forever.
func TestRouterInboxAfterCloseIsClosed(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	tr := n.Attach(1, netem.SiteLocal)
	r := NewRouter(tr)
	_ = tr.Close()
	for name, in := range map[string]*Inbox{"ring": r.Ring(7), "heartbeats": r.Heartbeats(), "service": r.Service()} {
		select {
		case <-in.Ready():
		case <-time.After(200 * time.Millisecond):
			t.Fatalf("%s inbox created after close never fired", name)
		}
		if _, open := in.Take(nil, 1); open {
			t.Fatalf("%s inbox created after close is open", name)
		}
	}
	// Binding a closed transport closes the router at once.
	if _, open := NewRouter(tr).Ring(1).Take(nil, 1); open {
		t.Fatal("router bound to a closed transport is open")
	}
}

// TestRouterStartsNoGoroutine: on a Network endpoint and a TCPNode a
// router and its inboxes run nothing of their own; the message is routed
// by the goroutine that received it.
func TestRouterStartsNoGoroutine(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a, b := n.Attach(1, netem.SiteLocal), n.Attach(2, netem.SiteLocal)
	ta, tb := newTCPPair(t)
	before := runtime.NumGoroutine()
	for _, tr := range []Transport{a, b, ta, tb} {
		r := NewRouter(tr)
		r.Ring(1)
		r.Heartbeats()
	}
	if got := runtime.NumGoroutine() - before; got != 0 {
		t.Fatalf("routers started %d goroutines, want 0", got)
	}
}
