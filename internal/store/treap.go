// Package store implements MRP-Store (Section 6.1): a partitioned,
// replicated key-value store with sequential consistency built on
// Multi-Ring Paxos state-machine replication.
//
// Keys are strings, values arbitrary byte arrays. The database is divided
// into partitions, each responsible for a subset of the key space (hash-
// or range-partitioned; the schema is published through the coordination
// service as in Section 7.2). Each partition is replicated with
// state-machine replication over its own multicast group; replicas may
// additionally subscribe to a global group so multi-partition operations
// (scans) are ordered with respect to all other operations.
package store

// treap is a randomized balanced binary search tree used as the in-memory
// sorted database at every replica (the paper stores entries "in an
// in-memory tree"). Expected O(log n) insert/delete/lookup and in-order
// range iteration for scans.
//
// Copy-on-write is epoch-owned: the tree and every node carry an epoch,
// and a node whose epoch equals the tree's is reachable from the live
// root only, so updates mutate it in place. snapshot() and splitOff()
// hand the current root to a reader and bump the tree's epoch — O(1) —
// which turns every existing node into shared, read-only structure; the
// next update that touches such a node copies it into the new epoch
// first. A node is therefore copied at most once per captured snapshot,
// not once per update, and a captured snapshot never changes — the
// foundation of the replica's non-blocking checkpoint pipeline, where
// serialization runs on a background goroutine while new commands keep
// executing against the live tree. The live tree itself is not safe for
// concurrent use (SM.mu guards it).
type treap struct {
	root  *treapNode
	size  int
	epoch uint64
}

// treapNode is immutable once its epoch is older than its tree's (some
// snapshot may hold it); own() copies it into the current epoch first.
type treapNode struct {
	key         string
	value       []byte
	priority    int64
	sub         int // subtree entry count (this node + both children)
	epoch       uint64
	left, right *treapNode
}

// subCount is nil-safe subtree size.
func subCount(n *treapNode) int {
	if n == nil {
		return 0
	}
	return n.sub
}

// fix recomputes an owned node's subtree count from its children.
func (n *treapNode) fix() { n.sub = 1 + subCount(n.left) + subCount(n.right) }

// own returns n if the live tree owns it exclusively (no snapshot captured
// since it was created or last copied), else a copy in the current epoch.
// The result may be mutated in place.
func (t *treap) own(n *treapNode) *treapNode {
	if n.epoch == t.epoch {
		return n
	}
	c := *n
	c.epoch = t.epoch
	return &c
}

// newTreap builds an empty tree.
func newTreap() *treap {
	return &treap{}
}

// priorityOf derives a node's heap priority from its key: FNV-1a, then
// the murmur3 64-bit finalizer. A seeded rand.Rand would also be
// deterministic per replica, but its stream position depends on operation
// *history* — a replica restored from a snapshot and one that applied the
// ops organically would hold differently shaped trees. Hashing the key
// makes the shape a pure function of the key set, and keeps any random
// source out of the apply path entirely. The finalizer is what makes the
// shape balanced: raw FNV-1a barely carries a key's trailing bytes into
// its high bits, so sequential and zero-padded keys ("user%019d") would
// get priorities ordered almost like the keys — a tree 149 deep at 3 333
// entries instead of 27.
func priorityOf(key []byte) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int64(h >> 1) // keep priorities non-negative
}

// Len reports the number of entries.
func (t *treap) Len() int { return t.size }

// snapshot captures the current version of the tree in O(1). The returned
// view is immutable: bumping the epoch disowns every captured node, so
// later Put/Delete calls copy before they write.
func (t *treap) snapshot() treapSnapshot {
	t.epoch++
	return treapSnapshot{root: t.root, size: t.size}
}

// treapSnapshot is a point-in-time immutable view of a treap, safe to read
// from any goroutine concurrently with writes to the live tree.
type treapSnapshot struct {
	root *treapNode
	size int
}

// Len reports the number of entries in the captured version.
func (s treapSnapshot) Len() int { return s.size }

// All calls fn for every captured entry in ascending key order.
func (s treapSnapshot) All(fn func(key string, value []byte) bool) {
	allNodes(s.root, fn)
}

// Get returns the value stored under key in the captured version. Safe
// from any goroutine: the captured nodes are immutable.
func (s treapSnapshot) Get(key []byte) ([]byte, bool) { return find(s.root, key) }

// Range calls fn for every captured entry with lo <= key <= hi in
// ascending key order; fn returning false stops the iteration.
func (s treapSnapshot) Range(lo, hi []byte, fn func(key string, value []byte) bool) {
	rangeNodes(s.root, lo, hi, fn)
}

// Get returns the value stored under key.
func (t *treap) Get(key []byte) ([]byte, bool) { return find(t.root, key) }

// compareKey orders a key read in place against a key the tree owns.
// Lookups, updates and deletes take their key as bytes — a view of the
// delivered operation — and only the insert of a new key copies it;
// string(a) inside a comparison does not.
func compareKey(a []byte, b string) int {
	switch {
	case string(a) == b:
		return 0
	case string(a) < b:
		return -1
	}
	return 1
}

func find(n *treapNode, key []byte) ([]byte, bool) {
	for n != nil {
		switch c := compareKey(key, n.key); {
		case c == 0:
			return n.value, true
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil, false
}

// Put inserts or replaces the value under key, reporting whether the key
// already existed. The tree keeps value but not key: a new node gets a copy
// of it, an overwrite keeps the node's own.
func (t *treap) Put(key, value []byte) bool {
	var existed bool
	t.root, existed = t.put(t.root, key, value)
	if !existed {
		t.size++
	}
	return existed
}

func (t *treap) put(n *treapNode, key, value []byte) (*treapNode, bool) {
	if n == nil {
		return &treapNode{key: string(key), value: value, priority: priorityOf(key), sub: 1, epoch: t.epoch}, false
	}
	n = t.own(n)
	var existed bool
	switch c := compareKey(key, n.key); {
	case c == 0:
		n.value = value
		return n, true
	case c < 0:
		if n.left, existed = t.put(n.left, key, value); existed {
			return n, true // an overwrite changes neither counts nor shape
		}
		n.fix()
		if n.left.priority > n.priority {
			n = rotateRight(n)
		}
	default:
		if n.right, existed = t.put(n.right, key, value); existed {
			return n, true
		}
		n.fix()
		if n.right.priority > n.priority {
			n = rotateLeft(n)
		}
	}
	return n, false
}

// Delete removes key, reporting whether it existed.
func (t *treap) Delete(key []byte) bool {
	var existed bool
	t.root, existed = t.del(t.root, key)
	if existed {
		t.size--
	}
	return existed
}

// del descends before it owns anything, so a miss copies nothing.
func (t *treap) del(n *treapNode, key []byte) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	switch c := compareKey(key, n.key); {
	case c < 0:
		nl, existed := t.del(n.left, key)
		if !existed {
			return n, false
		}
		n = t.own(n)
		n.left = nl
	case c > 0:
		nr, existed := t.del(n.right, key)
		if !existed {
			return n, false
		}
		n = t.own(n)
		n.right = nr
	default:
		return t.merge(n.left, n.right), true
	}
	n.fix()
	return n, true
}

// merge joins two treaps where every key in a precedes every key in b,
// owning the spine it descends so captured subtrees stay immutable.
func (t *treap) merge(a, b *treapNode) *treapNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.priority > b.priority:
		a = t.own(a)
		a.right = t.merge(a.right, b)
		a.fix()
		return a
	default:
		b = t.own(b)
		b.left = t.merge(a, b.left)
		b.fix()
		return b
	}
}

// rotateRight and rotateLeft rebalance owned path nodes: put() only
// rotates when the rotated child was just returned by its own recursive
// call, which owns everything it returns, so mutating both nodes in
// place is safe.
func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

// splitOff removes every entry with key >= at from the tree and returns
// them as an immutable snapshot, touching only the O(log n) expected nodes
// on the split path — every other subtree goes whole to one half, so
// concurrently captured snapshots keep observing the pre-split database.
// This is what makes a live partition split's delivery stall independent
// of how many keys move: the delivery goroutine only pays the path, while
// serializing the outgoing half happens later, off the hot path. The
// live tree can no longer reach the outgoing half, so the epoch bump is
// not what protects it; it keeps the invariant checkable — every node a
// captured view holds is older than the tree's epoch.
func (t *treap) splitOff(at []byte) treapSnapshot {
	left, right := t.splitNodes(t.root, at)
	t.root = left
	t.size = subCount(left)
	t.epoch++
	return treapSnapshot{root: right, size: subCount(right)}
}

func (t *treap) splitNodes(n *treapNode, at []byte) (l, r *treapNode) {
	if n == nil {
		return nil, nil
	}
	n = t.own(n)
	if compareKey(at, n.key) > 0 {
		n.right, r = t.splitNodes(n.right, at)
		n.fix()
		return n, r
	}
	l, n.left = t.splitNodes(n.left, at)
	n.fix()
	return l, n
}

// Range calls fn for every entry with lo <= key <= hi in ascending key
// order; fn returning false stops the iteration.
func (t *treap) Range(lo, hi []byte, fn func(key string, value []byte) bool) {
	rangeNodes(t.root, lo, hi, fn)
}

func rangeNodes(n *treapNode, lo, hi []byte, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	aboveLo, belowHi := compareKey(lo, n.key) <= 0, compareKey(hi, n.key) >= 0
	if aboveLo && !rangeNodes(n.left, lo, hi, fn) {
		return false
	}
	if aboveLo && belowHi && !fn(n.key, n.value) {
		return false
	}
	return !belowHi || rangeNodes(n.right, lo, hi, fn)
}

// All calls fn for every entry in ascending key order.
func (t *treap) All(fn func(key string, value []byte) bool) {
	allNodes(t.root, fn)
}

func allNodes(n *treapNode, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	if !allNodes(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return allNodes(n.right, fn)
}
