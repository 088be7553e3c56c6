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
//
// Every replica keeps its partition in an in-memory copy-on-write B+tree
// (btree): capturing a checkpoint is an epoch bump, and while the capture
// is unreleased the first write to what it holds copies one leaf and its
// few ancestors. Once the capture is serialized, writes land in place
// again, and a value's bytes are overwritten whenever they fit.
package store

// fanout is the most entries a leaf holds and the most children an inner
// node has. A leaf of 32 entries is one ≈ 2 KB allocation, copied whole
// the first time a write reaches it after a capture; with leaves about
// half full after splits, 2 000 keys take ≈ 130 nodes, against the 2 000
// of a binary tree.
const fanout = 32

// btree is the in-memory sorted database at every replica (the paper
// stores entries "in an in-memory tree"): a B+tree whose leaves hold the
// entries in key order, all at the same depth, and whose inner nodes route
// by separator keys. Lookups, inserts and deletes are O(log n); scans walk
// the leaves in order. Deletes do not rebalance: an emptied node is
// dropped, and a root left with one child gives way to it.
//
// Copy-on-write is epoch-owned: the tree, every node and every stored
// value carry an epoch. snapshot() and splitOff() hand the current root to
// a reader and bump the tree's epoch — O(1). A snapshot also raises the
// tree's floor to the new epoch: every node and value below the floor may
// be held by a captured view, so it is shared, read-only structure, and the
// next update that reaches it copies it into the current epoch first.
// Whatever is at or above the floor is reachable from the live root only,
// and updates mutate it in place. A node is therefore copied at most once
// per held snapshot, not once per update, and a held snapshot never
// changes — the foundation of the replica's non-blocking checkpoint
// pipeline, where serialization runs on a background goroutine while new
// commands keep executing against the live tree.
//
// The floor only rises here. Its owner lowers it once the views it handed
// out can no longer be read: SM sets it to 1 + the newest epoch a capture
// not yet serialized holds, or to 0 when there is none (SM.prune), so the
// structure a released capture shared is written in place again.
//
// A value's bytes are the tree's own: Put copies what it is given, over
// the old bytes when they are at or above the floor and large enough.
// That is safe because no held view reaches them, and every reader of the
// live tree copies what it reads before the next write (SM.mu guards the
// tree, which is not safe for concurrent use).
type btree struct {
	root  *node // nil when the tree is empty
	size  int
	epoch uint64
	floor uint64 // nodes and values of an epoch below it are shared
}

// node is a leaf or an inner node. It is immutable while its epoch is
// below its tree's floor (some snapshot may hold it); own() copies it into
// the current epoch first. Slots at and past n are zero, so a node never keeps
// a removed key, value or child alive.
type node struct {
	epoch uint64
	leaf  bool
	n     int // used slots
	sub   int // entries in this subtree
	// keys are a leaf's entry keys in ascending order. In an inner node,
	// keys[i] (i ≥ 1) separates its children: every key under kids[i-1]
	// is less than keys[i], every key under kids[i] at least keys[i];
	// keys[0] is empty.
	keys [fanout]string
	vals [fanout]stored // a leaf's values
	kids [fanout]*node  // an inner node's children
}

// stored is an entry's value bytes and the epoch they were allocated in.
type stored struct {
	b     []byte
	epoch uint64
}

// count is a nil-safe subtree size.
func (n *node) count() int {
	if n == nil {
		return 0
	}
	return n.sub
}

// recount recomputes n's subtree size from its slots.
func (n *node) recount() {
	if n.leaf {
		n.sub = n.n
		return
	}
	n.sub = 0
	for _, c := range n.kids[:n.n] {
		n.sub += c.sub
	}
}

// search returns the first slot of a leaf whose key is not less than key,
// and whether that key equals it.
func (n *node) search(key []byte) (int, bool) {
	lo, hi := 0, n.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.keys[m] < string(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < n.n && n.keys[lo] == string(key)
}

// child returns the slot of the inner node's child whose range holds key.
// Lookups, updates and deletes take their key as bytes — a view of the
// delivered operation — and only the insert of a new key copies it;
// string(key) inside a comparison does not.
func (n *node) child(key []byte) int {
	lo, hi := 1, n.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.keys[m] <= string(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// insertAt opens slot i of n, which has room, and fills it.
func (n *node) insertAt(i int, key string, v stored, kid *node) {
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.vals[i+1:n.n+1], n.vals[i:n.n])
	copy(n.kids[i+1:n.n+1], n.kids[i:n.n])
	n.keys[i], n.vals[i], n.kids[i] = key, v, kid
	n.n++
}

// removeAt closes slot i of n.
func (n *node) removeAt(i int) {
	copy(n.keys[i:n.n], n.keys[i+1:n.n])
	copy(n.vals[i:n.n], n.vals[i+1:n.n])
	copy(n.kids[i:n.n], n.kids[i+1:n.n])
	n.n--
	n.keys[n.n], n.vals[n.n], n.kids[n.n] = "", stored{}, nil
	if !n.leaf {
		n.keys[0] = ""
	}
}

// moveTail appends slots [j, n.n) of n to dst and clears them in n.
func (n *node) moveTail(j int, dst *node) {
	copy(dst.keys[dst.n:], n.keys[j:n.n])
	copy(dst.vals[dst.n:], n.vals[j:n.n])
	copy(dst.kids[dst.n:], n.kids[j:n.n])
	clear(n.keys[j:n.n])
	clear(n.vals[j:n.n])
	clear(n.kids[j:n.n])
	dst.n += n.n - j
	n.n = j
}

// collapse strips root nodes that have a single child.
func collapse(n *node) *node {
	for n != nil && !n.leaf && n.n == 1 {
		n = n.kids[0]
	}
	return n
}

// own returns n if the live tree owns it exclusively (it is at or above
// the floor: no held snapshot reaches it), else a copy in the current
// epoch. The result may be mutated in place.
func (t *btree) own(n *node) *node {
	if n.epoch >= t.floor {
		return n
	}
	c := *n
	c.epoch = t.epoch
	return &c
}

// assign copies b into v: over v's own bytes when they are at or above the
// floor and fit, else into bytes allocated in the current epoch.
func (t *btree) assign(v *stored, b []byte) {
	if v.epoch >= t.floor && cap(v.b) >= len(b) {
		v.b = append(v.b[:0], b...)
		return
	}
	*v = stored{append([]byte(nil), b...), t.epoch}
}

// newBTree builds an empty tree.
func newBTree() *btree {
	return &btree{}
}

// Len reports the number of entries.
func (t *btree) Len() int { return t.size }

// snapshot captures the current version of the tree in O(1). The returned
// view is immutable for as long as the floor stays above the epoch it was
// taken in: bumping the epoch and raising the floor to it disowns every
// captured node and value, so later Put/Delete calls copy before they
// write.
func (t *btree) snapshot() btreeSnapshot {
	t.epoch++
	t.floor = t.epoch
	return btreeSnapshot{root: t.root, size: t.size}
}

// btreeSnapshot is a point-in-time immutable view of a btree, safe to read
// from any goroutine concurrently with writes to the live tree for as long
// as the tree's floor stays above the epoch it was taken in.
type btreeSnapshot struct {
	root *node
	size int
}

// Len reports the number of entries in the captured version.
func (s btreeSnapshot) Len() int { return s.size }

// All calls fn for every captured entry in ascending key order.
func (s btreeSnapshot) All(fn func(key string, value []byte) bool) {
	allNodes(s.root, fn)
}

// Get returns the value stored under key. The bytes are the tree's: the
// next Put may overwrite them.
func (t *btree) Get(key []byte) ([]byte, bool) {
	n := t.root
	if n == nil {
		return nil, false
	}
	for !n.leaf {
		n = n.kids[n.child(key)]
	}
	if i, ok := n.search(key); ok {
		return n.vals[i].b, true
	}
	return nil, false
}

// Put stores a copy of value under key, reporting whether the key already
// existed. Neither key nor value is kept: a new entry gets a copy of the
// key, and the value's bytes are copied as assign describes.
func (t *btree) Put(key, value []byte) bool {
	if t.root == nil {
		t.root = &node{epoch: t.epoch, leaf: true}
	}
	t.root = t.own(t.root)
	right, sep, existed := t.put(t.root, key, value)
	if right != nil {
		root := &node{epoch: t.epoch, n: 2, sub: t.root.sub + right.sub}
		root.kids[0], root.kids[1], root.keys[1] = t.root, right, sep
		t.root = root
	}
	if !existed {
		t.size++
	}
	return existed
}

// put writes key into the subtree of n, which the live tree owns, owning
// every node on the way down. When n overflows it returns its new right
// sibling and the separator between them.
func (t *btree) put(n *node, key, b []byte) (right *node, sep string, existed bool) {
	if n.leaf {
		i, found := n.search(key)
		if found {
			t.assign(&n.vals[i], b)
			return nil, "", true
		}
		n.sub++
		right, sep = t.add(n, i, string(key), stored{append([]byte(nil), b...), t.epoch}, nil)
		return right, sep, false
	}
	i := n.child(key)
	c := t.own(n.kids[i])
	n.kids[i] = c
	if right, sep, existed = t.put(c, key, b); existed {
		return nil, "", true // an overwrite changes neither counts nor shape
	}
	n.sub++
	if right == nil {
		return nil, "", false
	}
	right, sep = t.add(n, i+1, sep, stored{}, right)
	return right, sep, false
}

// add fills slot i of the owned node n, whose count already includes the
// new slot's entries. A full node first moves its upper half to a new
// right sibling, which add returns with the separator in front of it.
func (t *btree) add(n *node, i int, key string, v stored, kid *node) (*node, string) {
	if n.n < fanout {
		n.insertAt(i, key, v, kid)
		return nil, ""
	}
	r := &node{epoch: t.epoch, leaf: n.leaf}
	n.moveTail(fanout/2, r)
	if i <= n.n {
		n.insertAt(i, key, v, kid)
	} else {
		r.insertAt(i-n.n, key, v, kid)
	}
	r.recount()
	n.sub -= r.sub
	sep := r.keys[0]
	if !r.leaf {
		r.keys[0] = ""
	}
	return r, sep
}

// Delete removes key, reporting whether it existed.
func (t *btree) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	root, existed := t.del(t.root, key)
	if !existed {
		return false
	}
	t.root = collapse(root)
	t.size--
	return true
}

// del removes key from the subtree of n and returns the subtree's new
// root, nil once it is empty. It descends before it owns anything, so a
// miss copies nothing.
func (t *btree) del(n *node, key []byte) (*node, bool) {
	var i int
	if n.leaf {
		var found bool
		if i, found = n.search(key); !found {
			return n, false
		}
	} else {
		i = n.child(key)
		c, existed := t.del(n.kids[i], key)
		if !existed {
			return n, false
		}
		if c != nil {
			n = t.own(n)
			n.kids[i] = c
			n.sub--
			return n, true
		}
	}
	if n.n == 1 {
		return nil, true
	}
	n = t.own(n)
	n.removeAt(i)
	n.sub--
	return n, true
}

// splitOff removes every entry with key >= at from the tree and returns
// them as an immutable snapshot, touching only the nodes on the split
// path — every other subtree goes whole to one half, so concurrently
// captured snapshots keep observing the pre-split database. This is what
// makes a live partition split's delivery stall independent of how many
// keys move: the delivery goroutine only pays the path, while serializing
// the outgoing half happens later, off the hot path. The live tree can no
// longer reach the outgoing half, so it does not raise the floor: nothing
// protects the stash but that. The epoch bump keeps the invariant
// checkable — every node a captured view holds is older than the tree's
// epoch.
func (t *btree) splitOff(at []byte) btreeSnapshot {
	var l, r *node
	if t.root != nil {
		l, r = t.splitNode(t.root, at)
	}
	t.root, t.size = collapse(l), l.count()
	t.epoch++
	return btreeSnapshot{root: collapse(r), size: r.count()}
}

// splitNode divides the subtree of n into the entries below at and those
// at or above it. An empty side is nil, and then the other side is n
// itself, untouched; otherwise both sides' nodes on the path to at are
// new or owned.
func (t *btree) splitNode(n *node, at []byte) (l, r *node) {
	if n.leaf {
		i, _ := n.search(at)
		switch i {
		case 0:
			return nil, n
		case n.n:
			return n, nil
		}
		l, r = t.own(n), &node{epoch: t.epoch, leaf: true}
		l.moveTail(i, r)
	} else {
		i := n.child(at)
		cl, cr := t.splitNode(n.kids[i], at)
		switch {
		case cl == nil && i == 0:
			return nil, n
		case cr == nil && i == n.n-1:
			return n, nil
		}
		l, r = t.own(n), &node{epoch: t.epoch}
		j := i // the first slot that moves right
		if cl != nil {
			l.kids[i], j = cl, i+1
			if cr != nil {
				r.kids[0], r.n = cr, 1
			}
		}
		l.moveTail(j, r)
		r.keys[0] = ""
	}
	l.recount()
	r.recount()
	return l, r
}

// bulkLoad builds a tree of count entries, which next yields in strictly
// ascending key order, bottom-up: full leaves, then full inner levels
// above them. The tree owns the values next hands it, in its first epoch.
func bulkLoad(count int, next func() (string, []byte)) *btree {
	t := &btree{size: count}
	if count == 0 {
		return t
	}
	level := make([]*node, 0, (count+fanout-1)/fanout)
	for count > 0 {
		l := &node{leaf: true, n: min(count, fanout)}
		for i := range l.n {
			l.keys[i], l.vals[i].b = next()
		}
		l.sub = l.n
		level = append(level, l)
		count -= l.n
	}
	for len(level) > 1 {
		up := level[:0] // each parent overwrites children already read
		for i := 0; i < len(level); i += fanout {
			p := &node{n: min(fanout, len(level)-i)}
			copy(p.kids[:], level[i:i+p.n])
			for j, c := range p.kids[:p.n] {
				if j > 0 {
					p.keys[j] = minKey(c)
				}
				p.sub += c.sub
			}
			up = append(up, p)
		}
		level = up
	}
	t.root = level[0]
	return t
}

// minKey returns the least key in the subtree of n.
func minKey(n *node) string {
	for !n.leaf {
		n = n.kids[0]
	}
	return n.keys[0]
}

// Range calls fn for every entry with lo <= key <= hi in ascending key
// order; fn returning false stops the iteration.
func (t *btree) Range(lo, hi []byte, fn func(key string, value []byte) bool) {
	rangeNodes(t.root, lo, hi, fn)
}

// rangeNodes reports false once fn stopped the iteration or a key passed
// hi.
func rangeNodes(n *node, lo, hi []byte, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		i, _ := n.search(lo)
		for ; i < n.n; i++ {
			if n.keys[i] > string(hi) || !fn(n.keys[i], n.vals[i].b) {
				return false
			}
		}
		return true
	}
	for i := n.child(lo); i < n.n; i++ {
		if i > 0 && n.keys[i] > string(hi) || !rangeNodes(n.kids[i], lo, hi, fn) {
			return false
		}
	}
	return true
}

func allNodes(n *node, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		for i := range n.n {
			if !fn(n.keys[i], n.vals[i].b) {
				return false
			}
		}
		return true
	}
	for _, c := range n.kids[:n.n] {
		if !allNodes(c, fn) {
			return false
		}
	}
	return true
}
