package ring

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/transport"
)

// TestAcceptorCrashWithQuorumLeft verifies progress with one of three
// acceptors down (majority survives).
func TestAcceptorCrashWithQuorumLeft(t *testing.T) {
	c := newCluster(t, 3, nil)
	if err := propose(c.nodes[1], []byte("warm")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[1], 1, 5*time.Second)

	c.crash(3) // not the coordinator
	deadline := time.Now().Add(10 * time.Second)
	for {
		_ = propose(c.nodes[1], []byte("with-2-acceptors"))
		select {
		case d := <-deliveries(c.nodes[1]):
			if !d.Value.Skip && string(d.Value.Data) == "with-2-acceptors" {
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no decision with 2/3 acceptors")
		}
	}
}

// TestDoubleFailureBlocksThenRecovers: with 2 of 3 acceptors down no value
// may be decided (no quorum); after one recovers, progress resumes.
func TestDoubleFailureBlocksThenRecovers(t *testing.T) {
	c := newCluster(t, 3, nil)
	if err := propose(c.nodes[1], []byte("warm")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[1], 1, 5*time.Second)

	c.crash(2)
	c.crash(3)
	// No quorum: proposals must not be decided.
	_ = propose(c.nodes[1], []byte("blocked"))
	select {
	case d := <-deliveries(c.nodes[1]):
		if !d.Value.Skip {
			t.Fatalf("decided %q without a quorum!", d.Value.Data)
		}
	case <-time.After(500 * time.Millisecond):
	}

	// One acceptor returns (fresh volatile state, same log).
	c.svc.MarkUp(2)
	c.start(2, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_ = propose(c.nodes[1], []byte("after-heal"))
		select {
		case d := <-deliveries(c.nodes[1]):
			if !d.Value.Skip && string(d.Value.Data) == "after-heal" {
				return
			}
		case <-time.After(200 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no decision after quorum healed")
		}
	}
}

// TestCascadingCoordinatorFailures kills coordinators one after another;
// the last remaining pair must still decide (quorum = 2 of 3 acceptors...
// here ring of 5 with majority 3 keeps quorum after two crashes).
func TestCascadingCoordinatorFailures(t *testing.T) {
	c := newCluster(t, 5, nil)
	if err := propose(c.nodes[1], []byte("warm")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[5], 1, 5*time.Second)

	c.crash(1) // coordinator -> node 2 takes over
	c.crash(2) // next coordinator -> node 3 takes over

	deadline := time.Now().Add(15 * time.Second)
	for {
		_ = propose(c.nodes[4], []byte("third-coordinator"))
		select {
		case d := <-deliveries(c.nodes[5]):
			if !d.Value.Skip && string(d.Value.Data) == "third-coordinator" {
				return
			}
		case <-time.After(300 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no decision after two coordinator crashes")
		}
	}
}

// TestNoDuplicateDeliveries floods a ring while a link flaps; retries and
// retransmissions must never deliver an instance twice or out of order.
func TestNoDuplicateDeliveries(t *testing.T) {
	c := newCluster(t, 3, nil)
	go func() {
		for i := 0; i < 10; i++ {
			c.net.Faults().Cut(1, 2)
			time.Sleep(20 * time.Millisecond)
			c.net.Faults().Heal(1, 2)
			time.Sleep(30 * time.Millisecond)
		}
	}()
	const count = 100
	go func() {
		for i := 0; i < count; i++ {
			_ = propose(c.nodes[3], []byte(fmt.Sprintf("v%03d", i)))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	seen := make(map[uint64]bool)
	var last uint64
	got := 0
	deadline := time.After(30 * time.Second)
	for got < count*80/100 { // some proposals may be shed during flaps
		select {
		case d := <-deliveries(c.nodes[3]):
			if d.Value.Skip {
				continue
			}
			if seen[d.Instance] {
				t.Fatalf("instance %d delivered twice", d.Instance)
			}
			if d.Instance <= last {
				t.Fatalf("instance %d after %d", d.Instance, last)
			}
			seen[d.Instance] = true
			last = d.Instance
			got++
		case <-deadline:
			t.Fatalf("only %d/%d deliveries", got, count)
		}
	}
}

// TestBatchingPreservesProposalOrderPerProposer checks FIFO of one
// proposer's values under batching.
func TestBatchingPreservesProposalOrderPerProposer(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.BatchBytes = 8 << 10 })
	const count = 150
	for i := 0; i < count; i++ {
		if err := propose(c.nodes[2], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Batched instances carry multiple values; unpack in order.
	var values []byte
	deadline := time.After(15 * time.Second)
	for len(values) < count {
		select {
		case d := <-deliveries(c.nodes[1]):
			if d.Value.Skip {
				continue
			}
			if d.Value.Batched {
				sub, err := transport.DecodeBatch(d.Value.Data)
				if err != nil {
					t.Fatal(err)
				}
				for _, iv := range sub {
					values = append(values, iv.Value.Data[0])
				}
			} else {
				values = append(values, d.Value.Data[0])
			}
		case <-deadline:
			t.Fatalf("got %d/%d values", len(values), count)
		}
	}
	for i := 0; i < count; i++ {
		if values[i] != byte(i) {
			t.Fatalf("value %d out of order (got %d)", i, values[i])
		}
	}
}
