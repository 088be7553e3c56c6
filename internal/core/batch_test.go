package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"amcast/internal/ring"
	"amcast/internal/transport"
)

// TestSubscribeBatchMatchesSubscribe is the batched-delivery equivalence
// property: a subscriber limited to one instance per batch and a
// full-batch subscriber attached to the same decided sequences deliver the identical global order — with
// concurrent proposers on two groups, rate-leveling skips and message
// packing all in play.
func TestSubscribeBatchMatchesSubscribe(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2, 3},
		2: {1, 2, 3},
	}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
		cfg.Ring.Lambda = 2000
		cfg.Ring.BatchBytes = 4 << 10 // message packing on
	})
	for i := 1; i <= 3; i++ {
		for _, r := range []transport.RingID{1, 2} {
			if err := d.nodes[transport.ProcessID(i)].Join(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Node 1 takes one instance per batch, node 2 full batches.
	var mu sync.Mutex
	var perMsg, batched []Delivery
	d.nodes[1].LimitBatch(1)
	if err := d.nodes[1].SubscribeBatch(func(ds []Delivery) {
		mu.Lock()
		for _, dd := range ds {
			perMsg = append(perMsg, Delivery{Group: dd.Group, Instance: dd.Instance, ValueID: dd.ValueID, Data: append([]byte(nil), dd.Data...)})
		}
		mu.Unlock()
	}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[2].SubscribeBatch(func(ds []Delivery) {
		mu.Lock()
		for _, dd := range ds {
			batched = append(batched, Delivery{Group: dd.Group, Instance: dd.Instance, ValueID: dd.ValueID, Data: append([]byte(nil), dd.Data...)})
		}
		mu.Unlock()
	}, 1, 2); err != nil {
		t.Fatal(err)
	}

	const perGroup = 150
	go func() {
		for i := 0; i < perGroup; i++ {
			_ = d.nodes[1].Multicast(1, []byte(fmt.Sprintf("g1-%03d", i)))
		}
	}()
	go func() {
		for i := 0; i < perGroup; i++ {
			_ = d.nodes[2].Multicast(2, []byte(fmt.Sprintf("g2-%03d", i)))
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		p, b := len(perMsg), len(batched)
		mu.Unlock()
		if p >= 2*perGroup && b >= 2*perGroup {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: per-message %d, batched %d of %d", p, b, 2*perGroup)
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	n := min(len(perMsg), len(batched))
	for i := 0; i < n; i++ {
		p, b := perMsg[i], batched[i]
		if p.Group != b.Group || p.Instance != b.Instance || p.ValueID != b.ValueID || string(p.Data) != string(b.Data) {
			t.Fatalf("order diverges at %d: per-message %+v vs batched %+v", i, p, b)
		}
	}
}

// TestBatchBoundsRespected checks that batches never exceed the message
// bound LimitBatch sets. Packing is off: batch bounds hold at
// consensus-instance granularity (an instance is never split across
// batches, so a packed instance may overshoot).
func TestBatchBoundsRespected(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	for i := 1; i <= 3; i++ {
		if err := d.nodes[transport.ProcessID(i)].Join(1); err != nil {
			t.Fatal(err)
		}
	}
	d.nodes[1].LimitBatch(16)
	d.nodes[2].LimitBatch(7)

	type sub struct {
		mu    sync.Mutex
		sizes []int
		total int
	}
	subs := make([]*sub, 2)
	for i, id := range []transport.ProcessID{1, 2} {
		s := &sub{}
		subs[i] = s
		if err := d.nodes[id].SubscribeBatch(func(ds []Delivery) {
			s.mu.Lock()
			s.sizes = append(s.sizes, len(ds))
			s.total += len(ds)
			s.mu.Unlock()
		}, 1); err != nil {
			t.Fatal(err)
		}
	}

	const count = 200
	for i := 0; i < count; i++ {
		if err := d.nodes[1].Multicast(1, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		subs[0].mu.Lock()
		t0 := subs[0].total
		subs[0].mu.Unlock()
		subs[1].mu.Lock()
		t1 := subs[1].total
		subs[1].mu.Unlock()
		if t0 >= count && t1 >= count {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d deliveries", t0, count)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, limit := range []int{16, 7} {
		subs[i].mu.Lock()
		for _, sz := range subs[i].sizes {
			if sz == 0 || sz > limit {
				t.Errorf("node %d batch size %d outside (0, %d]", i+1, sz, limit)
			}
		}
		subs[i].mu.Unlock()
	}
}

// TestBatchVectorConsistency: inside a batch handler, DeliveredVector and
// MergeCursor describe exactly the state after the batch's last delivery
// (the Section 5.2 checkpoint tuple at batch boundaries).
func TestBatchVectorConsistency(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, nil)
	for i := 1; i <= 3; i++ {
		if err := d.nodes[transport.ProcessID(i)].Join(1); err != nil {
			t.Fatal(err)
		}
	}
	node := d.nodes[1]
	errc := make(chan error, 1)
	done := make(chan struct{})
	var total int
	if err := node.SubscribeBatch(func(ds []Delivery) {
		vec := node.DeliveredVector()
		last := ds[len(ds)-1]
		if vec[1] != last.Instance {
			select {
			case errc <- fmt.Errorf("vector[1]=%d inside handler, want last instance %d", vec[1], last.Instance):
			default:
			}
		}
		total += len(ds)
		if total >= 50 {
			select {
			case <-done:
			default:
				close(done)
			}
		}
	}, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := node.Multicast(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out at %d deliveries", total)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestUnpackAllocs: unpacking one 16-message packet into the merge's
// output batch allocates nothing (the batch has room, no id is traced).
func TestUnpackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	var packed []transport.InstanceValue
	for id := uint64(1); id <= 16; id++ {
		packed = append(packed, transport.InstanceValue{Value: transport.Value{ID: id, Count: 1, Data: make([]byte, 1<<10)}})
	}
	d := ring.Delivery{Ring: 1, Instance: 7, Value: transport.Value{
		ID: 1, Batched: true, Count: 1, Data: transport.EncodeBatch(packed),
	}}
	batch := make([]Delivery, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		out, hitMarker := unpack(batch, 1, d, 16)
		if len(out) != 16 || !hitMarker || out[15].ValueID != 16 || out[0].Instance != 7 || len(out[15].Data) != 1<<10 {
			t.Fatalf("unpacked %d messages, marker=%v", len(out), hitMarker)
		}
	})
	if allocs != 0 {
		t.Errorf("unpacking a 16-message packet allocates %.2f times, want 0", allocs)
	}
	// A truncated packet delivers none of its messages.
	d.Value.Data = d.Value.Data[:len(d.Value.Data)-1]
	if out, hitMarker := unpack(batch, 1, d, 16); len(out) != 0 || hitMarker {
		t.Errorf("corrupt packet delivered %d messages (marker=%v)", len(out), hitMarker)
	}
}
