package cluster

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/core"
	"amcast/internal/netem"
)

// TestSequentialUpdatesDoNotWaitOutDelta is the one wall-clock assertion
// of skip on stall, with a wide margin. The paper's MRP-Store topology: every
// replica merges its partition ring with the 9-member global ring. A
// sequential client's update decides on its partition ring within a
// circulation, but at each learner it sits behind the idle global ring's
// frontier: with the Δ tick alone every update that is not the first of its
// window waits the window out — six fresh deployments on the parent took
// 0.11, 0.75, 0.75, 0.75, 1.11 and 6.87 s for these 300 updates, by the
// frontier offset they happened to boot with — and with the request it
// waits one hop and one circulation (15–55 ms in all of 15 deployments).
// The bound, 300·Δ/4 = 375 ms, sits between the two.
func TestSequentialUpdatesDoNotWaitOutDelta(t *testing.T) {
	const (
		updates = 300
		delta   = 5 * time.Millisecond
	)
	pooled := bufpool.Outstanding()
	defer func() {
		if got := bufpool.Outstanding(); got != pooled {
			t.Errorf("pooled buffers outstanding = %d, want %d", got, pooled)
		}
	}()
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 3, Replicas: 3, Global: true,
		Ring: core.RingOptions{SkipEnabled: true, Delta: delta, Lambda: 9000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, cl, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := sc.Insert("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < updates; i++ {
		if err := sc.Update("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	t.Logf("%d sequential updates in %v", updates, took)
	if limit := updates * delta / 4; took > limit && !raceEnabled {
		t.Fatalf("%d sequential updates took %v, want < %v: updates wait out Δ windows", updates, took, limit)
	}
}
