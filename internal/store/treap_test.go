package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"amcast/internal/ycsb"
)

func TestTreapBasic(t *testing.T) {
	tr := newTreap()
	if _, ok := tr.Get([]byte("a")); ok {
		t.Error("empty treap returned a value")
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
	if tr.Len() != 0 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
}

func TestTreapOrderedIteration(t *testing.T) {
	tr := newTreap()
	keys := []string{"melon", "apple", "zebra", "kiwi", "banana"}
	for _, k := range keys {
		tr.Put([]byte(k), []byte(k))
	}
	var got []string
	tr.All(func(k string, _ []byte) bool {
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
	tr := newTreap()
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
	// Early stop.
	count := 0
	tr.Range([]byte("key000"), []byte("key099"), func(string, []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop iterated %d", count)
	}
	// Empty range.
	got = nil
	tr.Range([]byte("zzz"), []byte("zzzz"), func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
}

// TestTreapMatchesMap is a property test: after any sequence of puts and
// deletes, the treap agrees with a reference map and iterates sorted.
func TestTreapMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		tr := newTreap()
		ref := make(map[string]byte)
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range opsRaw {
			key := fmt.Sprintf("k%02d", raw%50)
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
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || got[0] != v {
				return false
			}
		}
		var keys []string
		tr.All(func(k string, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		return sort.StringsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTreapLarge(t *testing.T) {
	tr := newTreap()
	const n = 10000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Put([]byte(fmt.Sprintf("key%08d", i)), []byte("v"))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if _, ok := tr.Get([]byte(fmt.Sprintf("key%08d", i))); !ok {
			t.Fatalf("missing key %d", i)
		}
	}
}

// TestTreapSnapshotImmutableUnderMutation: a captured snapshot must keep
// serving the exact capture-point state while the live tree is overwritten,
// shrunk and regrown (the copy-on-write property the non-blocking
// checkpoint pipeline rests on).
func TestTreapSnapshotImmutableUnderMutation(t *testing.T) {
	tr := newTreap()
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

// TestSMCaptureConcurrentWithWrites drives SM.CaptureSnapshot/Serialize
// from a background goroutine while the state machine keeps executing —
// the race detector guards the COW invariants, and every serialized
// snapshot must be a decodable, internally consistent database image.
func TestSMCaptureConcurrentWithWrites(t *testing.T) {
	sm := NewSM()
	for i := 0; i < 200; i++ {
		op := Op{Kind: OpInsert, Key: fmt.Sprintf("k%04d", i), Value: []byte("init")}
		sm.Execute(1, op.Encode())
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := sm.CaptureSnapshot()
			buf := snap.Serialize()
			probe := NewSM()
			if err := probe.Restore(buf); err != nil {
				done <- fmt.Errorf("snapshot %d undecodable: %w", n, err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			op := Op{Kind: OpUpdate, Key: fmt.Sprintf("k%04d", i), Value: []byte(fmt.Sprintf("r%d", round))}
			sm.Execute(1, op.Encode())
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// depths returns the deepest node's depth and the mean depth (root = 0).
func depths(root *treapNode) (max int, mean float64) {
	var sum, count int
	var walk func(n *treapNode, d int)
	walk = func(n *treapNode, d int) {
		if n == nil {
			return
		}
		if d > max {
			max = d
		}
		sum += d
		count++
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(root, 0)
	if count == 0 {
		return 0, 0
	}
	return max, float64(sum) / float64(count)
}

// TestTreapBalanced pins the tree's shape for the key families services
// actually use. Priorities are a hash of the key, so a hash that does not
// carry a key's trailing digits into its high bits degenerates the treap
// for sequential keys (raw FNV-1a: max depth 223 at 10 000 YCSB keys).
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
	}
	log2n := math.Log2(n)
	for _, f := range families {
		tr := newTreap()
		for i := 0; i < n; i++ {
			tr.Put([]byte(f.key(i)), nil)
		}
		max, mean := depths(tr.root)
		t.Logf("%s: max depth %d, mean %.1f (log2 n = %.1f)", f.name, max, mean, log2n)
		if float64(max) > 4*log2n {
			t.Errorf("%s: max depth %d > 4·log2(n) = %.0f", f.name, max, 4*log2n)
		}
		if mean > 2*log2n {
			t.Errorf("%s: mean depth %.1f > 2·log2(n) = %.1f", f.name, mean, 2*log2n)
		}
	}
}

// heldSnapshot is a captured view with the contents it must keep showing.
type heldSnapshot struct {
	snap     treapSnapshot
	want     map[string]string
	updateNo int  // live-tree updates applied before the capture
	split    bool // captured by splitOff, not snapshot()
}

// check enumerates the snapshot the way the checkpoint writer does and
// compares it with the capture-time contents.
func (h heldSnapshot) check() error {
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
// keeps enumerating exactly its capture-time contents, however many
// in-place updates follow, while another goroutine reads the held views
// concurrently (under -race, an in-place write to a captured node is a
// reported data race).
func TestTreapSnapshotIsolation(t *testing.T) {
	const (
		keys       = 1500
		updates    = 40000
		settle     = 10000 // later updates a view must survive to count
		maxHeld    = 48
		captureOne = 400 // one snapshot() per this many updates on average
		splitOne   = 2500
	)
	rng := rand.New(rand.NewSource(0x5eed))
	key := func() string { return ycsb.Key(rng.Intn(keys)) }

	tr := newTreap()
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
	if subCount(tr.root) != tr.Len() {
		t.Errorf("root subtree count %d != Len %d", subCount(tr.root), tr.Len())
	}
}

// sameShape reports whether two trees hold the same keys at the same
// positions.
func sameShape(a, b *treapNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.key == b.key && a.sub == b.sub && sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

// TestRestoredTreeMatchesOrganic: a state machine that reached its state
// through inserts, overwrites, deletes and interleaved captures, and one
// restored from its snapshot, serialize to the same bytes and hold the
// same tree — the shape is a function of the key set, not of the history.
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
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Error("Restore(Snapshot()) does not serialize to the same bytes")
	}
	if !sameShape(sm.db.root, restored.db.root) {
		t.Error("restored tree is shaped differently from the organically grown one")
	}
	if len(captures) == 0 || bytes.Equal(captures[0], snap) {
		t.Error("interleaved captures missing or indistinguishable from the final state")
	}
}

// pathLen counts the nodes from the root to key, inclusive.
func pathLen(tr *treap, key string) int {
	d := 0
	for n := tr.root; n != nil; {
		d++
		switch c := strings.Compare(key, n.key); {
		case c == 0:
			return d
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return d
}

// TestTreapPutAllocs pins the copy-on-write cost: nothing while no
// snapshot was captured since the path was last written, at most the path
// once after a capture.
func TestTreapPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	tr := newTreap()
	for i := 0; i < 10000; i++ {
		tr.Put([]byte(ycsb.Key(i)), nil)
	}
	key, value := []byte(ycsb.Key(4321)), []byte("v")
	if got := testing.AllocsPerRun(1000, func() { tr.Put(key, value) }); got != 0 {
		t.Errorf("Put on an owned path: %.1f allocs, want 0", got)
	}
	path := pathLen(tr, string(key))
	got := testing.AllocsPerRun(100, func() {
		tr.snapshot()
		tr.Put(key, value)
	})
	if got > float64(path) {
		t.Errorf("first Put after snapshot(): %.1f allocs, path is %d nodes", got, path)
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
// benchmark's store-ycsb-a); measured 1.0. An update pays the copy of the
// value the tree keeps, a read its exactly-sized reply, written from the
// tree node; the operation is applied from the delivered bytes (no key, no
// Op), a bare status is one shared encoding, and the result slice is the
// state machine's own from batch to batch. Decoding every operation into an
// Op and building a Result to encode cost 3.0; a tree that copies the path
// on every update, 40.
const executeBatchAllocBudget = 1.5

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
		t.Errorf("ExecuteBatch: %.2f allocs per op, budget %.1f", perOp, executeBatchAllocBudget)
	}
}
