package core

import (
	"encoding/binary"

	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// Cursor captures the deterministic merge's round-robin position so a
// recovered replica resumes delivery at exactly the point its checkpoint
// was taken — even mid-turn. Together with the delivered-instance vector
// (recovery.Vector), it fully identifies a point in the merged sequence:
// two learners with equal (vector, cursor) will deliver identical suffixes.
type Cursor struct {
	// Groups lists the subscription in ascending order (sanity check on
	// restore).
	Groups []transport.RingID
	// Credits are surplus instances consumed beyond past turn quotas
	// (skip ranges can overshoot a turn), indexed like Groups.
	Credits []uint64
	// Next is the index of the group whose turn is in progress or next.
	Next int
	// Remaining is how many instances the in-progress turn still has to
	// consume; zero means the turn has not started.
	Remaining uint64
	// Epoch counts subscription changes: it starts at 0 when a node first
	// subscribes and increments every time the merge applies a
	// Resubscribe at a marker. A checkpoint therefore records not just
	// where in the merged stream it was taken but under which group set,
	// and recovery restores the post-reconfiguration subscription instead
	// of rejecting it as a mismatch.
	Epoch uint64
}

// Clone deep-copies the cursor.
func (c Cursor) Clone() Cursor {
	return Cursor{
		Groups:    append([]transport.RingID(nil), c.Groups...),
		Credits:   append([]uint64(nil), c.Credits...),
		Next:      c.Next,
		Remaining: c.Remaining,
		Epoch:     c.Epoch,
	}
}

// Encode serializes the cursor for inclusion in a checkpoint.
func (c Cursor) Encode() []byte {
	buf := make([]byte, 0, 4+len(c.Groups)*12+20)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(c.Groups)))
	buf = append(buf, tmp[:4]...)
	for i, g := range c.Groups {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(g))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:8], c.Credits[i])
		buf = append(buf, tmp[:8]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(c.Next))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], c.Remaining)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:8], c.Epoch)
	buf = append(buf, tmp[:8]...)
	return buf
}

// DecodeCursor parses Encode output. Cursors encoded before the epoch
// field existed (12 trailing bytes instead of 20) decode with Epoch 0.
func DecodeCursor(buf []byte) (Cursor, error) {
	if len(buf) < 4 {
		return Cursor{}, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < n*12+12 {
		return Cursor{}, recovery.ErrCorrupt
	}
	c := Cursor{
		Groups:  make([]transport.RingID, n),
		Credits: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		c.Groups[i] = transport.RingID(binary.LittleEndian.Uint32(buf[:4]))
		c.Credits[i] = binary.LittleEndian.Uint64(buf[4:12])
		buf = buf[12:]
	}
	c.Next = int(binary.LittleEndian.Uint32(buf[:4]))
	c.Remaining = binary.LittleEndian.Uint64(buf[4:12])
	if len(buf) >= 20 {
		c.Epoch = binary.LittleEndian.Uint64(buf[12:20])
	}
	return c, nil
}
