package store

import (
	"fmt"
	"runtime"
	"testing"

	"amcast/internal/transport"
)

func fillTree(t *btree, n int) {
	for i := 0; i < n; i++ {
		t.Put([]byte(fmt.Sprintf("k%04d", i)), []byte{byte(i)})
	}
}

func TestTreapSplitOff(t *testing.T) {
	tr := newBTree()
	fillTree(tr, 100)
	pre := tr.snapshot()

	out := tr.splitOff([]byte("k0060"))
	if tr.Len() != 60 {
		t.Errorf("left size = %d, want 60", tr.Len())
	}
	if out.Len() != 40 {
		t.Errorf("moved size = %d, want 40", out.Len())
	}
	for name, half := range map[string]btreeSnapshot{"kept": {tr.root, tr.Len()}, "moved": out, "pre-split": pre} {
		if err := check(half.root, half.Len()); err != nil {
			t.Errorf("%s tree: %v", name, err)
		}
	}
	out.All(func(k string, _ []byte) bool {
		if k < "k0060" {
			t.Errorf("moved key %q below split point", k)
		}
		return true
	})
	tr.All(func(k string, _ []byte) bool {
		if k >= "k0060" {
			t.Errorf("kept key %q at/above split point", k)
		}
		return true
	})
	// The pre-split snapshot still sees everything (copy-on-write).
	if pre.Len() != 100 {
		t.Errorf("pre-split snapshot size = %d, want 100", pre.Len())
	}
	n := 0
	pre.All(func(string, []byte) bool { n++; return true })
	if n != 100 {
		t.Errorf("pre-split snapshot iterated %d, want 100", n)
	}
	// The split tree keeps working.
	if existed := tr.Put([]byte("k0010"), []byte("new")); !existed {
		t.Error("k0010 should exist in left half")
	}
	if _, ok := tr.Get([]byte("k0070")); ok {
		t.Error("k0070 should have moved out")
	}
	if err := check(tr.root, tr.Len()); err != nil {
		t.Errorf("kept tree after a write: %v", err)
	}
}

// TestSplitOffEverywhere splits a tree of three levels at every key,
// at bounds between keys and beyond both ends: both halves keep the tree
// invariants and together hold what the tree held, the pre-split capture
// does not change, and the split copies or creates only the nodes on its
// path — at most two per level.
func TestSplitOffEverywhere(t *testing.T) {
	const n = 600
	for _, at := range []string{"", "k", "k0000", "k00005", "k0001", "k0299", "k02995", "k0300", "k0599", "k0600", "z"} {
		for _, captured := range []bool{false, true} {
			tr := newBTree()
			fillTree(tr, n)
			if h := height(tr.root); h != 3 {
				t.Fatalf("height %d, want 3", h)
			}
			pre := tr.snapshot()
			if !captured {
				tr.Put([]byte("k0000"), []byte{0}) // own the leftmost path again
			}
			h := height(tr.root)
			var out btreeSnapshot
			if allocs := mallocs(func() { out = tr.splitOff([]byte(at)) }); !raceEnabled && allocs > uint64(2*h) {
				t.Errorf("split at %q: %d allocs, height %d", at, allocs, h)
			}
			kept := btreeSnapshot{tr.root, tr.Len()}
			if tr.Len()+out.Len() != n {
				t.Errorf("split at %q: %d + %d entries, want %d", at, tr.Len(), out.Len(), n)
			}
			for name, half := range map[string]btreeSnapshot{"kept": kept, "moved": out, "pre-split": pre} {
				if err := check(half.root, half.Len()); err != nil {
					t.Errorf("split at %q, %s tree: %v", at, name, err)
				}
			}
			kept.All(func(k string, _ []byte) bool {
				if k >= at {
					t.Errorf("split at %q kept %q", at, k)
				}
				return k < at
			})
			out.All(func(k string, _ []byte) bool {
				if k < at {
					t.Errorf("split at %q moved %q", at, k)
				}
				return k >= at
			})
		}
	}
}

// mallocs counts the heap allocations fn makes, run once.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestTreapSubtreeCounts(t *testing.T) {
	tr := newBTree()
	fillTree(tr, 512)
	for i := 0; i < 256; i += 2 {
		tr.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if got := tr.root.count(); got != tr.Len() || got != 384 {
		t.Errorf("root subtree count = %d, Len = %d, want 384", got, tr.Len())
	}
	out := tr.splitOff([]byte("k0256"))
	if err := check(tr.root, tr.Len()); err != nil {
		t.Errorf("kept half: %v", err)
	}
	if err := check(out.root, out.Len()); err != nil {
		t.Errorf("moved half: %v", err)
	}
}

func TestOwnershipEnforcement(t *testing.T) {
	sm := NewSM()
	sm.SetOwnedRange("a", "m")
	exec := func(op Op) Result {
		res, err := DecodeResult(sm.Execute(1, op.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := exec(Op{Kind: OpInsert, Key: "banana", Value: []byte("v")}); res.Status != StatusOK {
		t.Errorf("owned insert = %s", res.Status)
	}
	if res := exec(Op{Kind: OpInsert, Key: "zebra", Value: []byte("v")}); res.Status != StatusWrongPartition {
		t.Errorf("out-of-range insert = %s, want wrong-partition", res.Status)
	}
	for _, kind := range []OpKind{OpRead, OpUpdate, OpDelete} {
		if res := exec(Op{Kind: kind, Key: "zebra", Value: []byte("v")}); res.Status != StatusWrongPartition {
			t.Errorf("out-of-range %s = %s, want wrong-partition", kind, res.Status)
		}
	}
	// Scans clip to the owned range instead of failing.
	if res := exec(Op{Kind: OpScan, Key: "a", KeyHi: "z"}); res.Status != StatusOK || len(res.Entries) != 1 || res.Entries[0].Key != "banana" {
		t.Errorf("clipped scan = %s %v", res.Status, res.Entries)
	}
}

func TestApplySplitOp(t *testing.T) {
	sm := NewSM()
	sm.SetOwnedRange("", "")
	for i := 0; i < 50; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: fmt.Sprintf("k%04d", i), Value: []byte("v")}.Encode())
	}
	split := Op{Kind: OpSplit, Key: "k0030", Value: SplitSpec{ID: 42, NewGroup: 2}.Encode()}
	res, _ := DecodeResult(sm.Execute(1, split.Encode()))
	if res.Status != StatusOK {
		t.Fatalf("split = %s", res.Status)
	}
	if sm.Len() != 30 {
		t.Errorf("post-split len = %d, want 30", sm.Len())
	}
	if got := sm.MigratedKeys(); got != 20 {
		t.Errorf("migrated keys = %d, want 20", got)
	}
	if _, hi, ok := sm.OwnedRange(); !ok || hi != "k0030" {
		t.Errorf("owned hi = %q, %v; want k0030", hi, ok)
	}
	// Moved keys now answer wrong-partition.
	res, _ = DecodeResult(sm.Execute(1, Op{Kind: OpRead, Key: "k0040"}.Encode()))
	if res.Status != StatusWrongPartition {
		t.Errorf("moved key read = %s, want wrong-partition", res.Status)
	}
	// Replayed marker is a no-op (no double stash, no range regression).
	res, _ = DecodeResult(sm.Execute(1, split.Encode()))
	if res.Status != StatusOK || sm.Len() != 30 || sm.MigratedKeys() != 20 {
		t.Errorf("replayed split changed state: len=%d migrated=%d", sm.Len(), sm.MigratedKeys())
	}

	// The stashed range transfers into a fresh SM with its bounds.
	enc, ok := sm.OutgoingRange(42)
	if !ok {
		t.Fatal("outgoing range missing")
	}
	if SnapshotLen(enc) != 20 {
		t.Errorf("outgoing count = %d, want 20", SnapshotLen(enc))
	}
	dst := NewSM()
	if err := dst.Restore(enc); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 20 {
		t.Errorf("restored len = %d, want 20", dst.Len())
	}
	if lo, hi, ok := dst.OwnedRange(); !ok || lo != "k0030" || hi != "" {
		t.Errorf("restored bounds = [%q, %q) %v", lo, hi, ok)
	}
	res, _ = DecodeResult(dst.Execute(2, Op{Kind: OpRead, Key: "k0040"}.Encode()))
	if res.Status != StatusOK {
		t.Errorf("new owner read = %s, want ok", res.Status)
	}
	sm.ReleaseOutgoing(42)
	if _, ok := sm.OutgoingRange(42); ok {
		t.Error("released range still stashed")
	}

	// In-place markers change nothing.
	before := sm.Len()
	res, _ = DecodeResult(sm.Execute(1, Op{Kind: OpSplit, Key: "k0010", Value: SplitSpec{ID: 43, NewGroup: 3, InPlace: true}.Encode()}.Encode()))
	if res.Status != StatusOK || sm.Len() != before {
		t.Errorf("in-place split mutated state: %s len=%d", res.Status, sm.Len())
	}
}

// TestSplitRetryRestashes covers the failed-transfer retry path: after a
// marker executed and shrank ownership, the moved keys exist only in the
// stash. A retried split (same key, fresh id) must re-stash them under
// the new id so the controller's fetch can succeed — and once a transfer
// is committed (ReleaseOutgoing), later replays must NOT resurrect it.
func TestSplitRetryRestashes(t *testing.T) {
	sm := NewSM()
	sm.SetOwnedRange("", "")
	for i := 0; i < 40; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: fmt.Sprintf("k%04d", i), Value: []byte("v")}.Encode())
	}
	exec := func(id uint64) Result {
		op := Op{Kind: OpSplit, Key: "k0020", Value: SplitSpec{ID: id, NewGroup: 2}.Encode()}
		res, _ := DecodeResult(sm.Execute(1, op.Encode()))
		return res
	}
	if res := exec(7); res.Status != StatusOK {
		t.Fatalf("first split = %s", res.Status)
	}
	// Retry with a fresh id (the controller's second attempt).
	if res := exec(8); res.Status != StatusOK {
		t.Fatalf("retried split = %s", res.Status)
	}
	enc, ok := sm.OutgoingRange(8)
	if !ok || SnapshotLen(enc) != 20 {
		t.Fatalf("retried split stash: ok=%v len=%d, want 20 keys under id 8", ok, SnapshotLen(enc))
	}
	if sm.MigratedKeys() != 20 {
		t.Errorf("migrated counter double-counted: %d", sm.MigratedKeys())
	}
	// Commit: after release, a replayed marker must not re-stash.
	sm.ReleaseOutgoing(8)
	if res := exec(9); res.Status != StatusOK {
		t.Fatalf("post-commit replay = %s", res.Status)
	}
	if _, ok := sm.OutgoingRange(9); ok {
		t.Error("post-commit replay resurrected a released range")
	}
}

// TestSnapshotCarriesOutgoingStash covers the crash window between a
// split marker and the range transfer: the moved keys exist only in the
// outgoing stash, so checkpoints taken in that window must persist it —
// a replica restored from such a checkpoint must still serve (or retry)
// the transfer.
func TestSnapshotCarriesOutgoingStash(t *testing.T) {
	sm := NewSM()
	sm.SetOwnedRange("", "")
	for i := 0; i < 30; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: fmt.Sprintf("k%04d", i), Value: []byte("v")}.Encode())
	}
	split := Op{Kind: OpSplit, Key: "k0020", Value: SplitSpec{ID: 77, NewGroup: 2}.Encode()}
	if res, _ := DecodeResult(sm.Execute(1, split.Encode())); res.Status != StatusOK {
		t.Fatalf("split = %s", res.Status)
	}

	// Checkpoint after the marker, restore into a fresh SM (the restart).
	snap := sm.Snapshot()
	restored := NewSM()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 20 {
		t.Errorf("restored live tree = %d entries, want 20", restored.Len())
	}
	enc, ok := restored.OutgoingRange(77)
	if !ok || SnapshotLen(enc) != 10 {
		t.Fatalf("restored stash: ok=%v len=%d, want the 10 moved keys", ok, SnapshotLen(enc))
	}
	// The retry path survives the restart too: a retried marker (fresh
	// id) re-stashes from the restored lastSplit.
	retry := Op{Kind: OpSplit, Key: "k0020", Value: SplitSpec{ID: 78, NewGroup: 2}.Encode()}
	if res, _ := DecodeResult(restored.Execute(1, retry.Encode())); res.Status != StatusOK {
		t.Fatalf("retried split after restore = %s", res.Status)
	}
	if enc, ok := restored.OutgoingRange(78); !ok || SnapshotLen(enc) != 10 {
		t.Fatalf("post-restore retry stash missing")
	}
	if _, ok := restored.OutgoingRange(77); ok {
		t.Error("re-keyed stash left the stale entry behind")
	}
	// Once released, the stash no longer rides in checkpoints.
	restored.ReleaseOutgoing(78)
	clean := NewSM()
	if err := clean.Restore(restored.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, ok := clean.OutgoingRange(78); ok {
		t.Error("released stash persisted in a later checkpoint")
	}
}

func TestSnapshotCarriesBounds(t *testing.T) {
	sm := NewSM()
	sm.SetOwnedRange("c", "p")
	sm.Execute(1, Op{Kind: OpInsert, Key: "dog", Value: []byte("v")}.Encode())
	snap := sm.Snapshot()

	dst := NewSM()
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := dst.OwnedRange(); !ok || lo != "c" || hi != "p" {
		t.Errorf("restored bounds = [%q, %q) %v, want [c, p)", lo, hi, ok)
	}
	// Bounds-free snapshots leave configured bounds alone.
	plain := NewSM()
	plain.Execute(1, Op{Kind: OpInsert, Key: "x", Value: []byte("v")}.Encode())
	dst2 := NewSM()
	dst2.SetOwnedRange("a", "z")
	if err := dst2.Restore(plain.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := dst2.OwnedRange(); !ok || lo != "a" || hi != "z" {
		t.Errorf("configured bounds lost: [%q, %q) %v", lo, hi, ok)
	}
}

func TestSchemaSplitRange(t *testing.T) {
	s := RangeSchema([]transport.RingID{1, 2}, 0)
	split, err := s.SplitRange(7, "5")
	if err != nil {
		t.Fatal(err)
	}
	if split.Version != s.Version+1 {
		t.Errorf("version = %d, want %d", split.Version, s.Version+1)
	}
	if got := split.PartitionOf("6"); got != 7 {
		t.Errorf("PartitionOf(6) = %d, want 7", got)
	}
	if got := split.PartitionOf("4"); got != s.PartitionOf("4") {
		t.Errorf("PartitionOf(4) moved to %d", got)
	}
	if lo, hi, ok := split.RangeOf(7); !ok || lo != "5" {
		t.Errorf("RangeOf(7) = [%q, %q) %v", lo, hi, ok)
	}
	if _, err := s.SplitRange(8, ""); err == nil {
		t.Error("empty split key accepted")
	}
	if _, err := s.SplitRange(8, s.Partitions[1].Low); err == nil {
		t.Error("existing boundary accepted as split key")
	}
	if _, err := HashSchema([]transport.RingID{1}, 0).SplitRange(2, "m"); err == nil {
		t.Error("hash schema split accepted")
	}
	// Version survives the coordination-service round trip.
	dec, err := DecodeSchema(split.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != split.Version || len(dec.Partitions) != 3 {
		t.Errorf("round trip = v%d %d partitions", dec.Version, len(dec.Partitions))
	}
}
