package store

import (
	"bytes"
	"strings"
	"testing"

	"amcast/internal/ycsb"
)

// releaseSM is a state machine of n YCSB keys with values of size bytes.
func releaseSM(n, size int) *SM {
	sm := NewSM()
	for i := 0; i < n; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: ycsb.Key(i), Value: bytes.Repeat([]byte{'i'}, size)}.Encode())
	}
	return sm
}

// updates encodes an update of each of the first n keys to a value of
// size bytes of c.
func updates(n, size int, c byte) [][]byte {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = Op{Kind: OpUpdate, Key: ycsb.Key(i), Value: bytes.Repeat([]byte{c}, size)}.Encode()
	}
	return ops
}

// reshape inserts and deletes keys past the first n, so that leaves split
// and empty between captures, not only values change.
func reshape(sm *SM, n, round int) {
	for i := 0; i < 40; i++ {
		k := ycsb.Key(n + 97*round + i)
		sm.Execute(1, Op{Kind: OpInsert, Key: k, Value: []byte(k)}.Encode())
	}
	for i := 0; i < 20; i++ {
		sm.Execute(1, Op{Kind: OpDelete, Key: ycsb.Key(n + 97*(round-1) + i)}.Encode())
	}
}

// TestCapturesReleasedNewestFirst holds two captures and releases the newer
// first: the live tree then writes in place what only the newer one
// shared, and must still copy what the older one holds, which serializes
// byte-identical to a copy taken when it was captured.
func TestCapturesReleasedNewestFirst(t *testing.T) {
	const n = 600
	sm := releaseSM(n, 16)
	c1 := sm.CaptureSnapshot()
	want1 := sm.Snapshot() // the same state, serialized at once
	sm.ExecuteBatch(nil, updates(n, 24, 'a'))
	reshape(sm, n, 1)
	c2 := sm.CaptureSnapshot()
	want2 := sm.Snapshot()
	sm.ExecuteBatch(nil, updates(n, 24, 'b'))
	reshape(sm, n, 2)

	if got := c2.Serialize(); !bytes.Equal(got, want2) {
		t.Fatal("the newer capture changed before it was serialized")
	}
	// c1 still holds its epoch: writes after c2's release copy what c1
	// shares, and overwrite in place what c2 alone shared.
	sm.ExecuteBatch(nil, updates(n, 24, 'c'))
	reshape(sm, n, 3)
	if hold := c1.(dbSnapshot).hold; len(sm.holds) != 1 || sm.holds[0] != hold || sm.db.floor != hold.epoch+1 {
		t.Fatalf("after the newer release: %d holds, floor %d; want only the older, floor %d", len(sm.holds), sm.db.floor, hold.epoch+1)
	}
	sm.ExecuteBatch(nil, updates(n, 24, 'd'))
	if got := c1.Serialize(); !bytes.Equal(got, want1) {
		t.Fatal("the older capture changed after the newer one was released")
	}
	sm.ExecuteBatch(nil, updates(n, 24, 'e'))
	if len(sm.holds) != 0 || sm.db.floor != 0 {
		t.Fatalf("after both releases: %d holds, floor %d; want none, 0", len(sm.holds), sm.db.floor)
	}
	if err := check(sm.db.root, sm.db.Len()); err != nil {
		t.Fatal(err)
	}
	if v, _ := sm.db.Get([]byte(ycsb.Key(7))); string(v) != strings.Repeat("e", 24) {
		t.Fatalf("live value %q", v)
	}
}

// TestUnserializedCaptureStaysCopyOnWrite: a capture that is never
// serialized keeps its epoch copy-on-write, however many later captures
// are released.
func TestUnserializedCaptureStaysCopyOnWrite(t *testing.T) {
	const n = 300
	sm := releaseSM(n, 64)
	kept := sm.CaptureSnapshot()
	want := sm.Snapshot()
	for round := byte('a'); round < 'f'; round++ {
		sm.Snapshot() // a capture, serialized and released
		if got := mallocs(func() { sm.ExecuteBatch(nil, updates(n, 64, round)) }); round == 'a' && got < n {
			t.Fatalf("first updates under an unserialized capture: %d allocations, want ≥ %d (a copy of each value)", got, n)
		}
	}
	if got := kept.Serialize(); !bytes.Equal(got, want) {
		t.Fatal("an unserialized capture changed under later released ones")
	}
}

// TestRestoreDropsHolds: Restore replaces the tree, so the captures of the
// old one hold nothing of the new one, which writes in place at once; a
// capture of the old tree still serializes what it captured.
func TestRestoreDropsHolds(t *testing.T) {
	const n = 300
	sm := releaseSM(n, 32)
	old := sm.CaptureSnapshot()
	want := sm.Snapshot()
	sm.ExecuteBatch(nil, updates(n, 32, 'a'))
	if err := sm.Restore(sm.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if len(sm.holds) != 0 || sm.db.floor != 0 {
		t.Fatalf("after Restore: %d holds, floor %d; want none, 0", len(sm.holds), sm.db.floor)
	}
	ops := updates(n, 32, 'b')
	if got := mallocs(func() { sm.ExecuteBatch(nil, ops) }); !raceEnabled && got != 0 {
		t.Errorf("updates of restored values that fit: %d allocations, want 0", got)
	}
	if got := old.Serialize(); !bytes.Equal(got, want) {
		t.Fatal("a capture of the replaced tree changed")
	}
}

// TestSerializeTwicePanics: a released capture may share bytes the live
// tree has overwritten since, so a second Serialize fails loudly. A view of
// an outgoing stash holds nothing and serializes as often as asked.
func TestSerializeTwicePanics(t *testing.T) {
	sm := releaseSM(100, 8)
	c := sm.CaptureSnapshot()
	c.Serialize()
	sm.ExecuteBatch(nil, updates(100, 8, 'x'))
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "Serialize called twice") {
				t.Errorf("second Serialize: recovered %q, want a panic naming the misuse", msg)
			}
		}()
		c.Serialize()
	}()

	sm.Execute(1, Op{Kind: OpSplit, Key: ycsb.Key(50), Value: SplitSpec{ID: 9, NewGroup: 2}.Encode()}.Encode())
	first, ok := sm.OutgoingRange(9)
	if !ok {
		t.Fatal("no outgoing range after the split")
	}
	if again, _ := sm.OutgoingRange(9); !bytes.Equal(again, first) {
		t.Fatal("an outgoing range serialized differently the second time")
	}
}

// TestWriteAfterReleaseAllocs pins the gain of releasing a capture once it
// is serialized, on store-recovery's shape (2 000 keys, 1 KB values): the
// first update of a captured key after the release overwrites its bytes in
// place, where a held capture makes it copy the leaf path and the value
// (TestBTreePutAllocs's bound, height + 1).
func TestWriteAfterReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	const n, size, batch = 2000, 1000, 512
	sm := releaseSM(n, size)
	ops := updates(n, size, 'u')

	// Held: the first update of a key copies its path and its value.
	c := sm.CaptureSnapshot()
	h := height(sm.db.root)
	held := mallocs(func() { sm.Execute(1, ops[0]) })
	t.Logf("first update under a held capture: %d allocs, height %d", held, h)
	if held > uint64(h+1) {
		t.Errorf("first update under a held capture: %d allocs, want ≤ height %d + 1", held, h)
	}
	c.Serialize()

	// Released: the first update of each captured key allocates nothing.
	c = sm.CaptureSnapshot()
	c.Serialize()
	if got := mallocs(func() {
		for _, op := range ops[1:101] {
			sm.Execute(1, op)
		}
	}); got != 0 {
		t.Errorf("first updates of 100 captured keys after the release: %d allocs, want 0", got)
	}

	// A batch right after each released capture.
	var total uint64
	for round := 0; round < 10; round++ {
		sm.CaptureSnapshot().Serialize()
		run := ops[(round*batch)%(n-batch):][:batch]
		total += mallocs(func() { sm.ExecuteBatch(nil, run) })
	}
	perOp := float64(total) / (10 * batch)
	t.Logf("%.3f allocs per 1 KB update right after a released capture", perOp)
	if perOp > 0.05 {
		t.Errorf("ExecuteBatch right after a released capture: %.3f allocs per op, want ≤ 0.05", perOp)
	}
	if len(sm.holds) != 0 {
		t.Fatalf("%d holds left after every capture was serialized", len(sm.holds))
	}
}
