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

// TestTakeBatchDeliversInOrder takes batches from the delivery queue
// directly: all decided instances arrive in order, batches are never
// empty, and released buffers are recycled through the pool.
func TestTakeBatchDeliversInOrder(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
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
	nodes := make([]*Node, 3)
	for i := 1; i <= 3; i++ {
		router := transport.NewRouter(net.Attach(transport.ProcessID(i), netem.SiteLocal))
		n, err := New(Config{
			Ring:          1,
			Self:          transport.ProcessID(i),
			Router:        router,
			Coord:         svc,
			Log:           storage.NewMemLog(),
			RetryInterval: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes[i-1] = n
	}

	const count = 300
	go func() {
		for i := 0; i < count; i++ {
			_ = propose(nodes[0], []byte(fmt.Sprintf("v%03d", i)))
		}
	}()

	var got int
	var batches int
	deadline := time.Now().Add(20 * time.Second)
	for got < count {
		b, closed := nodes[1].TakeBatch()
		switch {
		case closed:
			t.Fatalf("stream ended at %d/%d", got, count)
		case b == nil:
			if time.Now().After(deadline) {
				t.Fatalf("timed out at %d/%d (in %d batches)", got, count, batches)
			}
			time.Sleep(time.Millisecond)
			continue
		case len(b) == 0:
			t.Fatal("empty batch delivered")
		}
		batches++
		for _, d := range b {
			if d.Value.Skip {
				continue
			}
			if want := fmt.Sprintf("v%03d", got); string(d.Value.Data) != want {
				t.Fatalf("delivery %d = %q, want %q", got, d.Value.Data, want)
			}
			got++
		}
		nodes[1].ReleaseBatch(b)
	}
	if batches > count {
		t.Errorf("batches (%d) exceed messages (%d)", batches, count)
	}
}

// TestReleaseBatchRecycles verifies the buffer pool round-trip.
func TestReleaseBatchRecycles(t *testing.T) {
	n := &Node{batchFree: make(chan []Delivery, 2)}
	b := make([]Delivery, 3, deliveryBatchCap)
	b[0] = Delivery{Ring: 1, Instance: 7, Value: transport.Value{Data: []byte("x")}}
	n.ReleaseBatch(b)
	got := n.getBatch()
	if cap(got) != deliveryBatchCap || len(got) != 0 {
		t.Fatalf("recycled batch len=%d cap=%d", len(got), cap(got))
	}
	// Entries were cleared so pooled arrays do not pin payloads.
	got = got[:1]
	if got[0].Value.Data != nil || got[0].Instance != 0 {
		t.Errorf("recycled batch retains entry: %+v", got[0])
	}
	// Empty pool falls back to allocation.
	fresh := n.getBatch()
	if cap(fresh) != deliveryBatchCap {
		t.Errorf("fresh batch cap = %d", cap(fresh))
	}
}
