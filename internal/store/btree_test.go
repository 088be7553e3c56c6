package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"amcast/internal/recovery"
	"amcast/internal/ycsb"
)

// The TestTreap* tests keep the names they had when the store's tree was a
// treap, so their results compare across the history; they test the
// B+tree now. TestBTreePutAllocs was TestTreapPutAllocs.

// checker walks a tree for check.
type checker struct {
	leafDepth int    // depth of the first leaf reached, -1 before
	seen      int    // entries visited so far, in key order
	last      string // the last of them
	err       error
}

func (c *checker) fail(format string, args ...any) int {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return 0
}

// check verifies the invariants of the tree under root, which holds size
// entries: keys strictly ascending, within each leaf and across leaves, and
// inside the bounds the separators above them set; all leaves at one depth;
// every node's count equal to the entries below it; no empty node and no
// root with a single child; and no live pointer in a slot past a node's
// count, nor a value in an inner node or a child in a leaf.
func check(root *node, size int) error {
	c := checker{leafDepth: -1}
	switch {
	case root == nil && size != 0:
		return fmt.Errorf("empty tree, Len %d", size)
	case root == nil:
		return nil
	case !root.leaf && root.n == 1:
		return errors.New("root has a single child")
	}
	if n := c.walk(root, 0, "", "", false); c.err == nil && n != size {
		c.fail("tree holds %d entries, Len %d", n, size)
	}
	return c.err
}

// walk checks the subtree of n, whose keys must lie in [lo, hi) — below no
// upper bound when bounded is false — and returns its entry count.
func (c *checker) walk(n *node, depth int, lo, hi string, bounded bool) int {
	if n.n < 1 || n.n > fanout {
		return c.fail("node at depth %d has %d slots", depth, n.n)
	}
	for i := range fanout {
		past := i >= n.n
		if past && (n.keys[i] != "" || unsafe.StringData(n.keys[i]) != nil) {
			return c.fail("slot %d past count %d keeps key %q", i, n.n, n.keys[i])
		}
		if (past || !n.leaf) && (n.vals[i].b != nil || n.vals[i].epoch != 0) {
			return c.fail("slot %d (count %d, leaf %v) keeps a value", i, n.n, n.leaf)
		}
		if (past || n.leaf) && n.kids[i] != nil {
			return c.fail("slot %d (count %d, leaf %v) keeps a child", i, n.n, n.leaf)
		}
	}
	if n.leaf {
		if c.leafDepth < 0 {
			c.leafDepth = depth
		}
		if depth != c.leafDepth {
			return c.fail("leaves at depths %d and %d", c.leafDepth, depth)
		}
		for _, k := range n.keys[:n.n] {
			if c.seen > 0 && k <= c.last {
				return c.fail("key %q after %q", k, c.last)
			}
			if k < lo || bounded && k >= hi {
				return c.fail("key %q outside its separators [%q, %q)", k, lo, hi)
			}
			c.seen, c.last = c.seen+1, k
		}
		if n.sub != n.n {
			return c.fail("leaf counts %d entries, holds %d", n.sub, n.n)
		}
		return n.n
	}
	if n.keys[0] != "" {
		return c.fail("inner node keeps %q in its first separator", n.keys[0])
	}
	total := 0
	for i, kid := range n.kids[:n.n] {
		clo, chi, cb := lo, hi, bounded
		if i > 0 {
			clo = n.keys[i]
		}
		if i+1 < n.n {
			chi, cb = n.keys[i+1], true
		}
		if clo < lo || bounded && clo > hi || cb && clo >= chi {
			return c.fail("separators [%q, %q) out of order under [%q, %q)", clo, chi, lo, hi)
		}
		total += c.walk(kid, depth+1, clo, chi, cb)
	}
	if n.sub != total {
		return c.fail("inner node counts %d entries, holds %d", n.sub, total)
	}
	return total
}

// height counts the levels of the tree under root.
func height(root *node) int {
	h := 0
	for n := root; n != nil; n = n.kids[0] {
		h++
		if n.leaf {
			break
		}
	}
	return h
}

func TestTreapBasic(t *testing.T) {
	tr := newBTree()
	if _, ok := tr.Get([]byte("a")); ok {
		t.Error("empty tree returned a value")
	}
	if existed := tr.Put([]byte("a"), []byte("1")); existed {
		t.Error("fresh insert reported existed")
	}
	if existed := tr.Put([]byte("a"), []byte("2")); !existed {
		t.Error("overwrite not reported")
	}
	v, ok := tr.Get([]byte("a"))
	if !ok || string(v) != "2" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if !tr.Delete([]byte("a")) {
		t.Error("delete of existing key failed")
	}
	if tr.Delete([]byte("a")) {
		t.Error("double delete succeeded")
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Errorf("Len after delete = %d, root %v", tr.Len(), tr.root)
	}
}

func TestTreapOrderedIteration(t *testing.T) {
	tr := newBTree()
	keys := []string{"melon", "apple", "zebra", "kiwi", "banana"}
	for _, k := range keys {
		tr.Put([]byte(k), []byte(k))
	}
	var got []string
	allNodes(tr.root, func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
}

func TestTreapRange(t *testing.T) {
	tr := newBTree()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("key%03d", i)), []byte{byte(i)})
	}
	var got []string
	tr.Range([]byte("key010"), []byte("key015"), func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 6 || got[0] != "key010" || got[5] != "key015" {
		t.Errorf("range = %v", got)
	}
	// A range across several leaves, with bounds that are not keys.
	got = nil
	tr.Range([]byte("key0105"), []byte("key0905"), func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 80 || got[0] != "key011" || got[79] != "key090" {
		t.Errorf("range across leaves = %v", got)
	}
	// Early stop.
	count := 0
	tr.Range([]byte("key000"), []byte("key099"), func(string, []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop iterated %d", count)
	}
	// Empty ranges: above every key, and with lo > hi.
	got = nil
	for _, r := range [][2]string{{"zzz", "zzzz"}, {"key050", "key040"}} {
		tr.Range([]byte(r[0]), []byte(r[1]), func(k string, _ []byte) bool {
			got = append(got, k)
			return true
		})
	}
	if len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
}

// TestTreapMatchesMap is a property test: after any sequence of puts and
// deletes, the tree agrees with a reference map, iterates sorted and keeps
// its invariants.
func TestTreapMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		tr := newBTree()
		ref := make(map[string]byte)
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range opsRaw {
			key := fmt.Sprintf("k%02d", raw%90)
			switch rng.Intn(3) {
			case 0, 1:
				val := byte(raw >> 8)
				tr.Put([]byte(key), []byte{val})
				ref[key] = val
			case 2:
				delete(ref, key)
				tr.Delete([]byte(key))
			}
		}
		if tr.Len() != len(ref) || check(tr.root, tr.Len()) != nil {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || got[0] != v {
				return false
			}
		}
		var keys []string
		allNodes(tr.root, func(k string, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		return sort.StringsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTreapLarge grows a tree of 10 000 keys in random order and shrinks it
// again: deletes drop emptied nodes and collapse the root, so the tree
// keeps its invariants down to empty.
func TestTreapLarge(t *testing.T) {
	tr := newBTree()
	const n = 10000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Put([]byte(fmt.Sprintf("key%08d", i)), []byte("v"))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := check(tr.root, tr.Len()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 997 {
		if _, ok := tr.Get([]byte(fmt.Sprintf("key%08d", i))); !ok {
			t.Fatalf("missing key %d", i)
		}
	}
	for j, i := range perm {
		if !tr.Delete([]byte(fmt.Sprintf("key%08d", i))) {
			t.Fatalf("Delete of key %d failed", i)
		}
		if j%1000 == 0 || n-j < 40 {
			if err := check(tr.root, tr.Len()); err != nil {
				t.Fatalf("after %d deletes: %v", j+1, err)
			}
		}
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Errorf("emptied tree: Len %d, root %v", tr.Len(), tr.root)
	}
}

// TestTreapSnapshotImmutableUnderMutation: a captured snapshot must keep
// serving the exact capture-point state while the live tree is overwritten,
// shrunk and regrown (the copy-on-write property the non-blocking
// checkpoint pipeline rests on).
func TestTreapSnapshotImmutableUnderMutation(t *testing.T) {
	tr := newBTree()
	want := make(map[string]string)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%04d", i)
		v := fmt.Sprintf("v%d", i)
		tr.Put([]byte(k), []byte(v))
		want[k] = v
	}
	snap := tr.snapshot()

	// Mutate heavily: overwrite all, delete the even half, add new keys.
	for i := 0; i < 1000; i++ {
		tr.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("CLOBBERED"))
	}
	for i := 0; i < 1000; i += 2 {
		tr.Delete([]byte(fmt.Sprintf("key%04d", i)))
	}
	for i := 0; i < 500; i++ {
		tr.Put([]byte(fmt.Sprintf("new%04d", i)), []byte("x"))
	}

	if snap.Len() != len(want) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(want))
	}
	got := make(map[string]string)
	var keys []string
	snap.All(func(k string, v []byte) bool {
		got[k] = string(v)
		keys = append(keys, k)
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Error("snapshot iteration not sorted")
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot iterated %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("snapshot[%s] = %q, want %q", k, got[k], v)
		}
	}
	// And the live tree reflects the mutations, not the snapshot.
	if v, ok := tr.Get([]byte("key0001")); !ok || string(v) != "CLOBBERED" {
		t.Error("live tree lost its mutations")
	}
	if _, ok := tr.Get([]byte("key0000")); ok {
		t.Error("live tree kept a deleted key")
	}
}

// TestHeldSnapshotKeepsValueBytes: an overwrite of the same length goes in
// place only into bytes the live tree owns. A snapshot read on another
// goroutine keeps the bytes it captured — values that were themselves
// overwritten in place before the capture — while the live tree overwrites
// every key again and again with values of the same length; under -race, a
// write into bytes a captured view holds is a reported data race.
func TestHeldSnapshotKeepsValueBytes(t *testing.T) {
	const keys, rounds = 300, 40
	tr := newBTree()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	for i := range keys {
		tr.Put(key(i), []byte("v-000"))
	}
	for i := range keys {
		tr.Put(key(i), []byte("w-000"))
	}
	snap := tr.snapshot()
	done := make(chan error, 1)
	go func() {
		var err error
		for r := 0; r < rounds && err == nil; r++ {
			n := 0
			snap.All(func(k string, v []byte) bool {
				if string(v) != "w-000" {
					err = fmt.Errorf("held snapshot: %s = %q, captured %q", k, v, "w-000")
				}
				n++
				return err == nil
			})
			if err == nil && n != keys {
				err = fmt.Errorf("held snapshot enumerated %d entries, want %d", n, keys)
			}
		}
		done <- err
	}()
	for round := range rounds {
		for i := range keys {
			tr.Put(key(i), []byte(fmt.Sprintf("x-%03d", round)))
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get(key(7)); string(v) != fmt.Sprintf("x-%03d", rounds-1) {
		t.Errorf("live tree: %q", v)
	}
}

// TestSMCaptureConcurrentWithWrites drives SM.CaptureSnapshot/Serialize
// from a background goroutine while the state machine keeps executing, as
// the replica's checkpoint writer does. Once a capture is serialized the
// live tree writes in place again what it shared, so the race detector
// guards the release, and every serialized snapshot must be a state the
// store passed through: rounds update the keys in order, so some prefix of
// the keys holds round r and the rest round r−1.
func TestSMCaptureConcurrentWithWrites(t *testing.T) {
	const keys, rounds, snapshots = 200, 50, 20
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	value := func(round int) []byte { return []byte(fmt.Sprintf("r%05d-%s", round, strings.Repeat("v", 60))) }
	sm := NewSM()
	for i := 0; i < keys; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: key(i), Value: value(-1)}.Encode())
	}
	// passedThrough reports why buf is not a state of the store, or nil.
	passedThrough := func(buf []byte) error {
		probe := NewSM()
		if err := probe.Restore(buf); err != nil {
			return fmt.Errorf("undecodable: %w", err)
		}
		got := entries(probe)
		if len(got) != keys {
			return fmt.Errorf("%d entries, want %d", len(got), keys)
		}
		first := -1
		if _, err := fmt.Sscanf(string(got[0].Value), "r%05d", &first); err != nil {
			return fmt.Errorf("%s = %q: %v", got[0].Key, got[0].Value, err)
		}
		round := first // the prefix's round; past the prefix, first − 1
		for i, e := range got {
			if i > 0 && round == first && string(e.Value) == string(value(first-1)) {
				round = first - 1
			}
			if e.Key != key(i) || string(e.Value) != string(value(round)) {
				return fmt.Errorf("entry %d is %s = %q: not a prefix at round %d and the rest at %d", i, e.Key, e.Value, first, first-1)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	var serialized atomic.Int64
	go func() {
		defer close(done)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := passedThrough(sm.CaptureSnapshot().Serialize()); err != nil {
				done <- fmt.Errorf("snapshot %d: %w", n, err)
				return
			}
			serialized.Add(1)
		}
	}()
	// At least rounds rounds, and more until enough snapshots overlapped
	// them.
	for round := 0; round < rounds || serialized.Load() < snapshots && round < 100*rounds; round++ {
		for i := 0; i < keys; i++ {
			sm.Execute(1, Op{Kind: OpUpdate, Key: key(i), Value: value(round)}.Encode())
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := passedThrough(sm.Snapshot()); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
}

// TestTreapBalanced bounds the tree's height for the key families services
// actually use. Splits leave every node but the root at least half full, so
// n keys take at most 1 + ⌈log_{fanout/2} n⌉ levels, whatever the order or
// shape of the keys.
func TestTreapBalanced(t *testing.T) {
	const n = 10000
	prefix := strings.Repeat("p", 64)
	rng := rand.New(rand.NewSource(11))
	families := []struct {
		name string
		key  func(i int) string
	}{
		{"ycsb", ycsb.Key},
		{"decimal", func(i int) string { return fmt.Sprint(i) }},
		{"common-prefix", func(i int) string { return fmt.Sprintf("%sk%d", prefix, i) }},
		{"random", func(int) string { return fmt.Sprintf("%016x", rng.Uint64()) }},
		{"descending", func(i int) string { return ycsb.Key(n - i) }},
	}
	bound := 1 + int(math.Ceil(math.Log(n)/math.Log(fanout/2)))
	for _, f := range families {
		tr := newBTree()
		for i := 0; i < n; i++ {
			tr.Put([]byte(f.key(i)), nil)
		}
		h := height(tr.root)
		t.Logf("%s: height %d (bound %d)", f.name, h, bound)
		if h > bound {
			t.Errorf("%s: height %d > 1 + ⌈log_%d(n)⌉ = %d", f.name, h, fanout/2, bound)
		}
		if err := check(tr.root, tr.Len()); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
	}
}

// heldSnapshot is a captured view with the contents it must keep showing.
type heldSnapshot struct {
	snap     btreeSnapshot
	want     map[string]string
	updateNo int  // live-tree updates applied before the capture
	split    bool // captured by splitOff, not snapshot()
}

// check verifies the captured tree's invariants, then enumerates the
// snapshot the way the checkpoint writer does and compares it with the
// capture-time contents.
func (h heldSnapshot) check() error {
	if err := check(h.snap.root, h.snap.Len()); err != nil {
		return fmt.Errorf("snapshot@%d: %w", h.updateNo, err)
	}
	if h.snap.Len() != len(h.want) {
		return fmt.Errorf("snapshot@%d: Len = %d, want %d", h.updateNo, h.snap.Len(), len(h.want))
	}
	n, prev := 0, ""
	var err error
	h.snap.All(func(k string, v []byte) bool {
		switch want, ok := h.want[k]; {
		case n > 0 && k <= prev:
			err = fmt.Errorf("snapshot@%d: %q enumerated after %q", h.updateNo, k, prev)
		case !ok:
			err = fmt.Errorf("snapshot@%d: enumerates %q, absent at capture", h.updateNo, k)
		case want != string(v):
			err = fmt.Errorf("snapshot@%d: %q = %q, captured %q", h.updateNo, k, v, want)
		}
		n, prev = n+1, k
		return err == nil
	})
	if err == nil && n != len(h.want) {
		err = fmt.Errorf("snapshot@%d: enumerated %d entries, want %d", h.updateNo, n, len(h.want))
	}
	return err
}

// TestTreapSnapshotIsolation is the property the epoch-owned copy-on-write
// must keep: under a seeded random interleaving of Put, Delete, snapshot()
// and splitOff(), every captured view — the split-off halves included —
// keeps enumerating exactly its capture-time contents and keeps the tree
// invariants, however many in-place updates follow, while another
// goroutine reads the held views concurrently (under -race, an in-place
// write to a captured node or value is a reported data race). The live
// tree keeps its invariants throughout.
func TestTreapSnapshotIsolation(t *testing.T) {
	const (
		keys       = 1500
		updates    = 40000
		settle     = 10000 // later updates a view must survive to count
		maxHeld    = 48
		captureOne = 400 // one snapshot() per this many updates on average
		splitOne   = 2500
		checkOne   = 2000 // one check of the live tree per this many updates
	)
	rng := rand.New(rand.NewSource(0x5eed))
	key := func() string { return ycsb.Key(rng.Intn(keys)) }

	tr := newBTree()
	ref := make(map[string]string)
	copyRef := func(keep func(string) bool) map[string]string {
		out := make(map[string]string, len(ref))
		for k, v := range ref {
			if keep(k) {
				out[k] = v
			}
		}
		return out
	}

	var (
		mu   sync.Mutex
		held []heldSnapshot
	)
	hold := func(h heldSnapshot) {
		mu.Lock()
		if len(held) < maxHeld {
			held = append(held, h)
		}
		mu.Unlock()
	}
	stop := make(chan struct{})
	stopReader := sync.OnceFunc(func() { close(stop) })
	defer stopReader()
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var h heldSnapshot
			if len(held) > 0 {
				h = held[i%len(held)]
			}
			mu.Unlock()
			if err := h.check(); err != nil {
				readerErr <- err
				return
			}
		}
	}()

	for done := 0; done < updates; {
		switch roll := rng.Intn(captureOne * 10); {
		case roll < 10:
			hold(heldSnapshot{snap: tr.snapshot(), want: copyRef(func(string) bool { return true }), updateNo: done})
		case roll < 10+captureOne*10/splitOne:
			at := key()
			want := copyRef(func(k string) bool { return k >= at })
			hold(heldSnapshot{snap: tr.splitOff([]byte(at)), want: want, updateNo: done, split: true})
			for k := range want {
				delete(ref, k)
			}
		case roll%4 == 0:
			k := key()
			_, want := ref[k]
			if got := tr.Delete([]byte(k)); got != want {
				t.Fatalf("Delete(%q) = %v, reference says %v", k, got, want)
			}
			delete(ref, k)
			done++
		default:
			k, v := key(), fmt.Sprint(rng.Int63())
			_, want := ref[k]
			if got := tr.Put([]byte(k), []byte(v)); got != want {
				t.Fatalf("Put(%q) existed = %v, reference says %v", k, got, want)
			}
			ref[k] = v
			done++
			if done%checkOne == 0 {
				if err := check(tr.root, tr.Len()); err != nil {
					t.Fatalf("live tree after %d updates: %v", done, err)
				}
			}
		}
	}
	stopReader()
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}

	settled, settledSplits := 0, 0
	for _, h := range held {
		if err := h.check(); err != nil {
			t.Error(err)
		}
		if h.updateNo+settle <= updates {
			settled++
			if h.split && len(h.want) > 0 {
				settledSplits++
			}
		}
	}
	if settled < 10 || settledSplits < 2 {
		t.Errorf("of %d held views only %d (%d split-off halves) outlived %d updates", len(held), settled, settledSplits, settle)
	}
	live := heldSnapshot{snap: tr.snapshot(), want: ref, updateNo: updates}
	if err := live.check(); err != nil {
		t.Errorf("live tree: %v", err)
	}
}

// entries lists a state machine's database in key order.
func entries(sm *SM) []Entry {
	var out []Entry
	allNodes(sm.db.root, func(k string, v []byte) bool {
		out = append(out, Entry{Key: k, Value: bytes.Clone(v)})
		return true
	})
	return out
}

// TestRestoredTreeMatchesOrganic: a state machine that reached its state
// through inserts, overwrites, deletes and interleaved captures, and one
// restored from its snapshot, hold the same entries and serialize to the
// same bytes; the bulk-loaded tree keeps the invariants of a grown one.
func TestRestoredTreeMatchesOrganic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sm := NewSM()
	var captures [][]byte
	for i := 0; i < 5000; i++ {
		sm.Execute(1, randOp(rng, false).Encode())
		if i%500 == 250 {
			captures = append(captures, sm.Snapshot())
		}
	}
	snap := sm.Snapshot()
	restored := NewSM()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries(restored), entries(sm)) {
		t.Error("the restored database holds other entries than the organically grown one")
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Error("Restore(Snapshot()) does not serialize to the same bytes")
	}
	for name, db := range map[string]*btree{"organic": sm.db, "restored": restored.db} {
		if err := check(db.root, db.Len()); err != nil {
			t.Errorf("%s tree: %v", name, err)
		}
	}
	if len(captures) == 0 || bytes.Equal(captures[0], snap) {
		t.Error("interleaved captures missing or indistinguishable from the final state")
	}
}

// TestRestoredValueOverwriteKeepsNeighbours: restored values share one
// block, each capped at its own length. An update of the same length
// writes over the value's bytes in place, and neither that nor a longer or
// a shorter update reaches the values beside it.
func TestRestoredValueOverwriteKeepsNeighbours(t *testing.T) {
	src := NewSM()
	want := make(map[string]string)
	for i := range 100 {
		k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("value-%03d", i)
		src.Execute(1, Op{Kind: OpInsert, Key: k, Value: []byte(v)}.Encode())
		want[k] = v
	}
	sm := NewSM()
	if err := sm.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	allNodes(sm.db.root, func(k string, v []byte) bool {
		if cap(v) != len(v) {
			t.Fatalf("restored %s: cap %d > len %d", k, cap(v), len(v))
		}
		return true
	})
	before, _ := sm.db.Get([]byte("key050"))
	for _, v := range []string{"VALUE-050", "a longer value than before", "short"} {
		sm.Execute(1, Op{Kind: OpUpdate, Key: "key050", Value: []byte(v)}.Encode())
		want["key050"] = v
		if v == "VALUE-050" {
			if after, _ := sm.db.Get([]byte("key050")); &after[0] != &before[0] {
				t.Error("an update of the same length did not overwrite the restored bytes in place")
			}
		}
		got := entries(sm)
		if len(got) != len(want) {
			t.Fatalf("after updating key050 to %q: %d entries, want %d", v, len(got), len(want))
		}
		for _, e := range got {
			if string(e.Value) != want[e.Key] {
				t.Fatalf("after updating key050 to %q: %s = %q, want %q", v, e.Key, e.Value, want[e.Key])
			}
		}
	}
}

// encodePairs writes a snapshot's count header and the pairs as given, in
// whatever order.
func encodePairs(pairs ...string) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(pairs)/2))
	for i := 0; i < len(pairs); i += 2 {
		buf = appendEntry(buf, pairs[i], []byte(pairs[i+1]))
	}
	return buf
}

// TestRestoreRejectsUnorderedKeys: the bulk load trusts the key order it
// is handed, so Restore refuses a snapshot whose keys are out of order or
// repeated — in the database and in a stashed range alike — and leaves the
// state machine as it was.
func TestRestoreRejectsUnorderedKeys(t *testing.T) {
	stash := func(pairs []byte) []byte {
		buf := append(encodePairs("a", "1"), 1)
		buf = appendString(buf, "")
		buf = appendString(buf, "m")
		buf = binary.LittleEndian.AppendUint32(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, 9)
		buf = appendString(buf, "m")
		buf = appendString(buf, "")
		return append(buf, pairs...)
	}
	sm := NewSM()
	if err := sm.Restore(stash(encodePairs("m", "1", "n", "2"))); err != nil {
		t.Fatalf("well-formed snapshot: %v", err)
	}
	before := sm.Snapshot()
	for name, snap := range map[string][]byte{
		"out of order":          encodePairs("a", "1", "c", "2", "b", "3"),
		"duplicate":             encodePairs("a", "1", "b", "2", "b", "3"),
		"duplicate empty key":   encodePairs("", "1", "", "2"),
		"stash out of order":    stash(encodePairs("n", "1", "m", "2")),
		"stash duplicate":       stash(encodePairs("m", "1", "m", "2")),
		"count beyond the data": binary.LittleEndian.AppendUint64(nil, math.MaxUint64),
	} {
		if err := sm.Restore(snap); !errors.Is(err, recovery.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want %v", name, err, recovery.ErrCorrupt)
		}
	}
	if !bytes.Equal(sm.Snapshot(), before) {
		t.Error("a refused snapshot changed the state machine")
	}
}

// restoreAllocBudget is what Restore may allocate for 2 000 entries of
// 1 KB: the bulk load takes a node per full leaf, the few inner nodes, one
// string for all keys and one block for all values (≈ 70). Restoring
// entry by entry took three per entry, 6 001.
const restoreAllocBudget = 100

func TestRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	src := NewSM()
	value := make([]byte, 1024)
	for i := range 2000 {
		src.Execute(1, Op{Kind: OpInsert, Key: ycsb.Key(i), Value: value}.Encode())
	}
	snap := src.Snapshot()
	sm := NewSM()
	got := testing.AllocsPerRun(10, func() {
		if err := sm.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Restore of 2 000 entries: %.0f allocs", got)
	if got > restoreAllocBudget {
		t.Errorf("Restore of 2 000 entries: %.0f allocs, budget %d", got, restoreAllocBudget)
	}
}

// FuzzStoreRestore: arbitrary bytes either fail to restore, or restore
// into a state machine whose trees — the database and every stashed range
// — keep the tree invariants, and whose snapshot, sized exactly, restores
// into one that serializes to the very same bytes.
func FuzzStoreRestore(f *testing.F) {
	golden, _ := hex.DecodeString(goldenSnapshot)
	f.Add(golden)
	f.Add(NewSM().Snapshot())
	split := NewSM()
	split.SetOwnedRange("", "")
	for i := range 80 {
		split.Execute(1, Op{Kind: OpInsert, Key: fmt.Sprintf("k%03d", i), Value: []byte{byte(i)}}.Encode())
	}
	split.Execute(1, Op{Kind: OpSplit, Key: "k050", Value: SplitSpec{ID: 3, NewGroup: 2}.Encode()}.Encode())
	f.Add(split.Snapshot())
	f.Add(encodePairs("b", "1", "a", "2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sm := NewSM()
		if sm.Restore(data) != nil {
			return
		}
		if err := check(sm.db.root, sm.db.Len()); err != nil {
			t.Fatalf("restored tree: %v", err)
		}
		for _, out := range sm.stash {
			if err := check(out.snap.root, out.snap.Len()); err != nil {
				t.Fatalf("restored stash %d: %v", out.id, err)
			}
		}
		snap := sm.Snapshot()
		if len(snap) != cap(snap) {
			t.Fatalf("Snapshot: len %d, cap %d", len(snap), cap(snap))
		}
		again := NewSM()
		if err := again.Restore(snap); err != nil {
			t.Fatalf("Restore(Snapshot()) = %v", err)
		}
		if got := again.Snapshot(); !bytes.Equal(got, snap) {
			t.Fatalf("Snapshot after a round trip\n %x, want\n %x", got, snap)
		}
	})
}

// TestBTreePutAllocs pins the copy-on-write cost while a capture is held:
// nothing for an overwrite of a value the live tree owns; after a capture,
// one copy per node on the key's path and the new value's bytes, once; and
// nothing for a delete that misses.
func TestBTreePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	tr := newBTree()
	for i := 0; i < 10000; i++ {
		tr.Put([]byte(ycsb.Key(i)), nil)
	}
	key, value := []byte(ycsb.Key(4321)), []byte("v")
	tr.Put(key, value)
	if got := testing.AllocsPerRun(1000, func() { tr.Put(key, value) }); got != 0 {
		t.Errorf("overwrite of an owned value: %.1f allocs, want 0", got)
	}
	h := height(tr.root)
	got := testing.AllocsPerRun(100, func() {
		tr.snapshot()
		tr.Put(key, value)
	})
	t.Logf("first Put after snapshot(): %.0f allocs, height %d", got, h)
	if got > float64(h+1) {
		t.Errorf("first Put after snapshot(): %.1f allocs, want ≤ height %d + 1", got, h)
	}
	if got := testing.AllocsPerRun(1000, func() { tr.Put(key, value) }); got != 0 {
		t.Errorf("second Put after snapshot(): %.1f allocs, want 0", got)
	}
	missing := []byte(ycsb.Key(20000))
	if got := testing.AllocsPerRun(100, func() {
		tr.snapshot()
		tr.Delete(missing)
	}); got != 0 {
		t.Errorf("Delete of a missing key after snapshot(): %.1f allocs, want 0", got)
	}
}

// executeBatchAllocBudget is the apply path's allocation budget per
// YCSB-A operation (1 KB values, 3 333 records — one partition of the
// benchmark's store-ycsb-a); measured 0.01. A read's reply is written from
// the tree's value into bytes cut from a 64 KB block, one block per ≈ 60
// reads; an update overwrites the value's bytes in place, since no
// checkpoint captured them; the operation is applied from the delivered
// bytes (no key, no Op), a bare status is one shared encoding, and the
// result slice is the state machine's own from batch to batch. An
// exactly-sized reply of its own per read cost 0.5; copying every updated
// value, 1.0; decoding every operation into an Op and building a Result to
// encode, 3.0; a tree that copies the path on every update, 40.
const executeBatchAllocBudget = 0.05

func TestExecuteBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	const records, batch = 3333, 512
	sm := NewSM()
	value := make([]byte, 1000)
	for i := 0; i < records; i++ {
		sm.Execute(1, Op{Kind: OpInsert, Key: ycsb.Key(i), Value: value}.Encode())
	}
	factory, err := ycsb.NewFactory(ycsb.Config{Workload: ycsb.WorkloadA, Records: records, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := factory.Generator(1)
	ops := make([][]byte, batch)
	for i := range ops {
		switch op := gen.Next(); op.Type {
		case ycsb.OpRead:
			ops[i] = Op{Kind: OpRead, Key: op.Key}.Encode()
		default:
			ops[i] = Op{Kind: OpUpdate, Key: op.Key, Value: op.Value}.Encode()
		}
	}
	sm.ExecuteBatch(nil, ops)
	perOp := testing.AllocsPerRun(20, func() { sm.ExecuteBatch(nil, ops) }) / batch
	t.Logf("%.2f allocs per YCSB-A op", perOp)
	if perOp > executeBatchAllocBudget {
		t.Errorf("ExecuteBatch: %.2f allocs per op, budget %.2f", perOp, executeBatchAllocBudget)
	}
}
