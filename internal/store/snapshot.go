package store

import (
	"encoding/binary"
	"slices"
	"strings"

	"amcast/internal/recovery"
	"amcast/internal/smr"
)

// SnapshotLen reports the entry count of a serialized SM snapshot
// (the count header), without decoding the entries.
func SnapshotLen(snap []byte) int {
	if len(snap) < 8 {
		return 0
	}
	return int(binary.LittleEndian.Uint64(snap[:8]))
}

// dbSnapshot adapts a captured tree version to smr.StateSnapshot. It
// carries the owned-range bounds captured with the data, so a restored
// replica enforces the post-split ownership its checkpoint was taken
// under, not whatever an out-of-date schema would suggest — and any
// in-flight outgoing split ranges: between a split marker and the
// controller's release, the moved keys exist ONLY in the stash, so a
// checkpoint that recorded the shrunken bounds without the stash would
// make a crash before the transfer completes lose the range permanently.
//
// A capture of the live tree carries its hold; a view of a stash, which
// the live tree cannot reach, carries none.
type dbSnapshot struct {
	db      btreeSnapshot
	hold    *hold
	bounded bool
	lo, hi  string
	stash   []outgoingRange // oldest first, as SM.stash
}

// Serialize encodes the captured database: count(8) then length-prefixed
// pairs in key order, then (when ownership is enforced) a bounds trailer
// and the in-flight outgoing stash, oldest first — the order a restored
// replica's retention cap needs, so identical states serialize to
// identical (checksummable) bytes. Runs off the delivery path (the
// captured version is immutable until released), so serialization cost
// no longer stalls delivery.
//
// Its last step releases the capture's hold: from the next Execute or
// ExecuteBatch on, the live tree writes in place what the capture shared.
// A capture is therefore serialized once; a second Serialize panics rather
// than encode bytes the live tree may have overwritten since.
//
//lint:deterministic
func (d dbSnapshot) Serialize() []byte {
	if d.hold != nil && d.hold.released.Load() {
		panic("store: Serialize called twice on one capture; the live tree may have overwritten what it shared")
	}
	// Measure everything first, so the buffer is allocated once at its
	// final size: a checkpoint of 1 KB values would otherwise regrow it
	// about seven times.
	size := treeLen(d.db)
	if d.bounded {
		size += 1 + 2 + len(d.lo) + 2 + len(d.hi) + 4
		for _, out := range d.stash {
			size += 8 + 2 + len(out.lo) + 2 + len(out.hi) + treeLen(out.snap)
		}
	}
	buf := appendTree(make([]byte, 0, size), d.db)
	if d.bounded {
		buf = append(buf, 1)
		buf = appendString(buf, d.lo)
		buf = appendString(buf, d.hi)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.stash)))
		for _, out := range d.stash {
			buf = binary.LittleEndian.AppendUint64(buf, out.id)
			buf = appendString(buf, out.lo)
			buf = appendString(buf, out.hi)
			buf = appendTree(buf, out.snap)
		}
	}
	if d.hold != nil {
		d.hold.released.Store(true)
	}
	return buf
}

// treeLen is the number of bytes appendTree writes for s.
func treeLen(s btreeSnapshot) int {
	n := 8
	s.All(func(k string, v []byte) bool {
		n += 2 + len(k) + 4 + len(v)
		return true
	})
	return n
}

// appendTree writes s's entry count, then its length-prefixed pairs in key
// order.
func appendTree(buf []byte, s btreeSnapshot) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	s.All(func(k string, v []byte) bool {
		buf = appendEntry(buf, k, v)
		return true
	})
	return buf
}

// CaptureSnapshot captures the current database version in O(1) — the
// capture bumps the tree's epoch and holds it, so the returned view shares
// structure with the live tree but does not change until it is serialized:
// until then the live tree copies a captured node or value below its floor
// before its first write to it. The outgoing stash rides along as a copy
// of the list (its snapshots are immutable too).
func (s *SM) CaptureSnapshot() smr.StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holds) > 0 {
		s.prune() // keeps the list to the captures still unserialized
	}
	h := &hold{epoch: s.db.epoch}
	s.holds = append(s.holds, h)
	return dbSnapshot{db: s.db.snapshot(), hold: h, bounded: s.bounded, lo: s.lo, hi: s.hi, stash: slices.Clone(s.stash)}
}

// Snapshot serializes the database: count(8) then length-prefixed pairs in
// key order (plus the bounds trailer when ownership is enforced).
func (s *SM) Snapshot() []byte {
	return s.CaptureSnapshot().Serialize()
}

// Restore replaces the database with a snapshot. A bounds trailer (written
// by post-split checkpoints and range transfers) restores ownership
// enforcement; its absence keeps whatever bounds were configured.
func (s *SM) Restore(snap []byte) error {
	if len(snap) < 8 {
		return recovery.ErrCorrupt
	}
	db, snap, ok := restoreTree(snap[8:], binary.LittleEndian.Uint64(snap))
	if !ok {
		return recovery.ErrCorrupt
	}
	bounded := false
	var lo, hi string
	var stash []outgoingRange
	if len(snap) > 0 && snap[0] == 1 {
		if lo, hi, snap, ok = readBounds(snap[1:]); !ok {
			return recovery.ErrCorrupt
		}
		bounded = true
		// In-flight outgoing stash (absent in pre-reconfig snapshots),
		// oldest first: rebuild each captured range so a restarted replica
		// can still serve — or retry — the transfer of keys that exist
		// nowhere else, and retains the same two as a replica that never
		// restarted.
		if len(snap) >= 4 {
			nOut := int(binary.LittleEndian.Uint32(snap[:4]))
			snap = snap[4:]
			for j := 0; j < nOut; j++ {
				if len(snap) < 8 {
					return recovery.ErrCorrupt
				}
				out := outgoingRange{id: binary.LittleEndian.Uint64(snap[:8])}
				if out.lo, out.hi, snap, ok = readBounds(snap[8:]); !ok || len(snap) < 8 {
					return recovery.ErrCorrupt
				}
				var rdb *btree
				if rdb, snap, ok = restoreTree(snap[8:], binary.LittleEndian.Uint64(snap)); !ok {
					return recovery.ErrCorrupt
				}
				out.snap = rdb.snapshot()
				stash = append(stash, out)
			}
		}
	}
	s.mu.Lock()
	s.db = db
	// The replaced tree is never written again: captures of it may still
	// be serialized, but they hold nothing of the new one.
	clear(s.holds)
	s.holds = s.holds[:0]
	if bounded {
		s.bounded, s.lo, s.hi = true, lo, hi
		s.stash = stash
	}
	s.mu.Unlock()
	return nil
}

// restoreTree bulk-loads the n key-value pairs at the head of snap, which
// must be in strictly ascending key order, into a tree. n comes from the
// snapshot and is not trusted: nothing is sized from it. A first pass
// checks and measures the pairs; then all keys are copied into one string
// and all values into one block, each value capped at its own length, so a
// restore costs one allocation per node and a few more, not three per
// entry.
func restoreTree(snap []byte, n uint64) (db *btree, rest []byte, ok bool) {
	count, keyBytes, valBytes := 0, 0, 0
	var prev []byte
	for rest = snap; n > 0; n-- {
		k, v, r, ok := readEntry(rest)
		if !ok || count > 0 && string(k) <= string(prev) {
			return nil, nil, false
		}
		count, keyBytes, valBytes, prev, rest = count+1, keyBytes+len(k), valBytes+len(v), k, r
	}
	var keys strings.Builder
	keys.Grow(keyBytes)
	for p, i := snap, 0; i < count; i++ {
		k, _, r, _ := readEntry(p)
		keys.Write(k)
		p = r
	}
	all, block, p := keys.String(), make([]byte, 0, valBytes), snap
	db = bulkLoad(count, func() (string, []byte) {
		k, v, r, _ := readEntry(p)
		key := all[:len(k)]
		block = append(block, v...)
		all, p = all[len(k):], r
		return key, block[len(block)-len(v) : len(block) : len(block)]
	})
	return db, rest, true
}

// readBounds reads a serialized range's two bounds.
func readBounds(snap []byte) (lo, hi string, rest []byte, ok bool) {
	l, rest, ok := readString(snap)
	if !ok {
		return "", "", nil, false
	}
	h, rest, ok := readString(rest)
	return string(l), string(h), rest, ok
}
