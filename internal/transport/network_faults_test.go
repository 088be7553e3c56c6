package transport

import (
	"testing"
	"time"

	"amcast/internal/netem"
)

// recvN drains n messages or times out.
func recvN(t *testing.T, ch <-chan Message, n int, d time.Duration) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(d)
	for len(out) < n {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d messages", len(out))
			}
			out = append(out, m)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestNetworkFaultCutAndHeal(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	n.Faults().CutBoth(1, 2)
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, b.Recv(), 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("cut link delivered %d messages", len(got))
	}

	n.Faults().HealAll()
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, b.Recv(), 1, time.Second)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("healed link: got %v", got)
	}
}

func TestNetworkFaultDuplicateAndFIFO(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	n.Faults().SetLink(1, 2, netem.LinkFault{Dup: 1})
	for i := uint64(1); i <= 3; i++ {
		if err := a.Send(2, Message{Kind: KindCommand, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvN(t, b.Recv(), 6, time.Second)
	if len(got) != 6 {
		t.Fatalf("want 6 (dup everything), got %d", len(got))
	}
	want := []uint64{1, 1, 2, 2, 3, 3}
	for i, m := range got {
		if m.Seq != want[i] {
			t.Fatalf("order violated at %d: got %d want %d", i, m.Seq, want[i])
		}
	}
}

func TestNetworkFaultDelay(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)

	n.Faults().SetLink(1, 2, netem.LinkFault{Delay: 60 * time.Millisecond})
	start := time.Now()
	if err := a.Send(2, Message{Kind: KindCommand, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, b.Recv(), 1, time.Second)
	if len(got) != 1 {
		t.Fatal("message lost")
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("delivered in %v, want >=50ms injected delay", el)
	}
}

func TestRouterHeartbeatChannel(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Attach(1, netem.SiteLocal)
	b := n.Attach(2, netem.SiteLocal)
	r := NewRouter(b)

	// No consumer yet: heartbeats are dropped, not buffered anywhere.
	if err := a.Send(2, Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	hb := r.Heartbeats()
	if err := a.Send(2, Message{Kind: KindHeartbeat, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	got := takeN(t, hb, 1, time.Second)
	if len(got) != 1 || got[0].Seq != 42 {
		t.Fatalf("heartbeat inbox got %v", got)
	}
	// Heartbeats must not leak into the service inbox.
	if got, _ := r.Service().Take(nil, 1); len(got) != 0 {
		t.Fatalf("heartbeat leaked to service inbox: %v", got)
	}
}
