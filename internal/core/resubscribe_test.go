package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"amcast/internal/transport"
)

// TestResubscribeSwitchesAtMarker verifies the heart of online
// reconfiguration: two learners arm the same marker, the subscription
// switches from {1} to {1, 2} at exactly that value, and both learners
// deliver identical merged sequences across the transition — the
// deterministic merge property extended over an epoch change.
func TestResubscribeSwitchesAtMarker(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2},
		2: {1, 2},
	}
	d := newDeployment(t, 2, rings, nil)
	for i := 1; i <= 2; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1})
	}

	// Pre-marker traffic on the old subscription.
	for i := 0; i < 10; i++ {
		if err := d.nodes[1].Multicast(1, []byte(fmt.Sprintf("pre%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the transition at both learners BEFORE the marker is proposed
	// (the determinism contract), then multicast the marker.
	marker := d.nodes[1].MarkerID()
	for i := 1; i <= 2; i++ {
		if err := d.nodes[transport.ProcessID(i)].PrepareResubscribe(marker, 1, 2); err != nil {
			t.Fatalf("node %d prepare: %v", i, err)
		}
	}
	if err := d.nodes[1].MulticastValue(1, marker, []byte("MARK")); err != nil {
		t.Fatal(err)
	}

	// Post-marker traffic interleaved across both rings: only a correct
	// epoch transition merges ring 2 identically on both learners.
	for i := 0; i < 20; i++ {
		if err := d.nodes[1].Multicast(1, []byte(fmt.Sprintf("a%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := d.nodes[1].Multicast(2, []byte(fmt.Sprintf("b%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	const total = 10 + 1 + 40
	seq1 := d.collect(1, total, 10*time.Second)
	seq2 := d.collect(2, total, 10*time.Second)
	for i := range seq1 {
		if seq1[i].Group != seq2[i].Group || seq1[i].ValueID != seq2[i].ValueID {
			t.Fatalf("merged sequences diverge at %d: node1=(%d,%x) node2=(%d,%x)",
				i, seq1[i].Group, seq1[i].ValueID, seq2[i].Group, seq2[i].ValueID)
		}
	}

	for i := 1; i <= 2; i++ {
		n := d.nodes[transport.ProcessID(i)]
		cur := n.MergeCursor()
		if cur.Epoch != 1 {
			t.Errorf("node %d epoch = %d, want 1", i, cur.Epoch)
		}
		if subs := n.Subscription(); len(subs) != 2 || subs[0] != 1 || subs[1] != 2 {
			t.Errorf("node %d subscription = %v, want [1 2]", i, subs)
		}
		vec := n.DeliveredVector()
		if _, ok := vec[2]; !ok {
			t.Errorf("node %d vector missing new group: %v", i, vec)
		}
	}
}

// TestResubscribeDropsGroup verifies that removing a group at the marker
// stops its deliveries and prunes its vector entry, while the node keeps
// deciding on the dropped ring and queues nothing for the merge that left.
func TestResubscribeDropsGroup(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1},
		2: {1},
	}
	d := newDeployment(t, 1, rings, nil)
	d.joinAll(1, []transport.RingID{1, 2}, []transport.RingID{1, 2})

	// One message per ring: the round-robin merge consumes group 1's
	// turn before it looks at group 2.
	if err := d.nodes[1].Multicast(1, []byte("on1")); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[1].Multicast(2, []byte("on2")); err != nil {
		t.Fatal(err)
	}
	d.collect(1, 2, 5*time.Second)

	marker := d.nodes[1].MarkerID()
	if err := d.nodes[1].PrepareResubscribe(marker, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[1].MulticastValue(1, marker, []byte("MARK")); err != nil {
		t.Fatal(err)
	}
	d.collect(1, 1, 5*time.Second) // the marker itself

	// Traffic on the dropped ring must not be delivered anymore; traffic
	// on the kept ring still flows.
	if err := d.nodes[1].Multicast(2, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[1].Multicast(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	ds := d.collect(1, 1, 5*time.Second)
	if string(ds[0].Data) != "kept" || ds[0].Group != 1 {
		t.Fatalf("delivered %q from group %d after dropping group 2", ds[0].Data, ds[0].Group)
	}
	vec := d.nodes[1].DeliveredVector()
	if _, ok := vec[2]; ok {
		t.Errorf("vector still carries dropped group: %v", vec)
	}
	if got := d.nodes[1].Subscription(); len(got) != 1 || got[0] != 1 {
		t.Errorf("subscription = %v, want [1]", got)
	}
	// The node is still ring 2's acceptor: it keeps deciding there, more
	// than one delivery batch's worth, without queueing any of it.
	decided, _, _ := d.nodes[1].RingStats(2)
	const more = 300
	for i := 0; i < more; i++ {
		if err := d.nodes[1].Multicast(2, []byte(fmt.Sprintf("after%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		now, _, _ := d.nodes[1].RingStats(2)
		if now >= decided+more {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring 2 decided %d of %d values after the drop", now-decided, more)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fs, _ := d.nodes[1].RingFlowStats(2); fs.Lag != 0 || fs.Overruns != 0 {
		t.Errorf("dropped ring queues for nobody: Lag %d, Overruns %d; want 0, 0", fs.Lag, fs.Overruns)
	}
	// A dropped ring's delivery stream ended at the marker; re-adding it
	// must be refused, not silently diverge.
	err := d.nodes[1].PrepareResubscribe(d.nodes[1].MarkerID(), 1, 2)
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("re-adding dropped ring: err = %v, want dropped-ring rejection", err)
	}
}

// TestPrepareResubscribeValidation covers the arming error paths.
func TestPrepareResubscribeValidation(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{
		1: {1, 2},
		2: {2}, // node 1 is not a member of ring 2
	}
	d := newDeployment(t, 2, rings, nil)
	if err := d.nodes[1].PrepareResubscribe(7, 1); err == nil {
		t.Error("prepare before subscribe should fail")
	}
	d.joinAll(1, []transport.RingID{1}, []transport.RingID{1})
	if err := d.nodes[1].PrepareResubscribe(0, 1); err == nil {
		t.Error("zero marker accepted")
	}
	if err := d.nodes[1].PrepareResubscribe(7, 1, 2); err == nil {
		t.Error("resubscribing to an unjoined ring should fail")
	}
	if err := d.nodes[1].PrepareResubscribe(7, 1); err != nil {
		t.Fatalf("valid prepare failed: %v", err)
	}
	// A newer prepare replaces an armed-but-unfired transition (an
	// orphaned marker must not wedge reconfiguration forever).
	if err := d.nodes[1].PrepareResubscribe(8, 1); err != nil {
		t.Errorf("replacing prepare failed: %v", err)
	}
	if d.nodes[1].CancelResubscribe(7) {
		t.Error("cancel of replaced marker succeeded")
	}
	if !d.nodes[1].CancelResubscribe(8) {
		t.Error("cancel of pending marker failed")
	}
	if d.nodes[1].CancelResubscribe(8) {
		t.Error("cancel of absent marker succeeded")
	}
	if err := d.nodes[1].PrepareResubscribe(9, 1); err != nil {
		t.Errorf("prepare after cancel failed: %v", err)
	}
}

// TestCursorMismatchDiagnostics verifies the error names the expected and
// provided group sets instead of the old opaque message.
func TestCursorMismatchDiagnostics(t *testing.T) {
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}}
	d := newDeployment(t, 3, rings, func(cfg *Config) {
		cfg.StartCursor = Cursor{Groups: []transport.RingID{1, 2}, Credits: []uint64{0, 0}, Epoch: 3}
	})
	if err := d.nodes[1].Join(1); err != nil {
		t.Fatal(err)
	}
	err := d.nodes[1].Subscribe(func(Delivery) {}, 1)
	if err == nil {
		t.Fatal("cursor/subscription mismatch should fail")
	}
	for _, want := range []string{"[1 2]", "[1]", "epoch 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q does not name %q", err, want)
		}
	}
}
