package smr

import (
	"encoding/binary"
	"sort"

	"amcast/internal/core"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// cmdKey identifies a client command for duplicate detection within one
// execution run.
type cmdKey struct {
	client transport.ProcessID
	seq    uint64
}

// Checkpoint state layout: cursorLen(4) || cursor || dedupLen(4) || dedup ||
// snapshot. The cursor rides inside the checkpoint so recovery resumes the
// deterministic merge at the exact position; dedup state rides along so
// duplicate suppression survives restarts.
//
//lint:deterministic
func encodeStateParts(cur core.Cursor, dedup []byte, snap []byte) []byte {
	cb := cur.Encode()
	buf := make([]byte, 0, 8+len(cb)+len(dedup)+len(snap))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(cb)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, cb...)
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(dedup)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, dedup...)
	return append(buf, snap...)
}

func decodeStateParts(state []byte) (core.Cursor, []byte, []byte, error) {
	if len(state) < 4 {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(state[:4]))
	state = state[4:]
	if len(state) < n+4 {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	cur, err := core.DecodeCursor(state[:n])
	if err != nil {
		return core.Cursor{}, nil, nil, err
	}
	state = state[n:]
	dn := int(binary.LittleEndian.Uint32(state[:4]))
	state = state[4:]
	if len(state) < dn {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	return cur, state[:dn], state[dn:], nil
}

func decodeStateCursor(state []byte) (core.Cursor, error) {
	cur, _, _, err := decodeStateParts(state)
	return cur, err
}

// clientWindow tracks which of one client's command sequence numbers were
// already executed. Commands from a single client can arrive out of order
// across groups (different rings interleave), so a plain high-water mark is
// not enough: floor covers the contiguous executed prefix, and executed
// seqs above it sit in a fixed ring of slots indexed by seq — array reads
// on the execution hot path where a map would pay a hash and probe per
// command. Seqs evicted by a slot collision while still above the floor
// (pathologically sparse clients) spill into an overflow map so duplicate
// detection never silently forgets an executed command.
type clientWindow struct {
	floor    uint64
	seqs     []uint64 // seq held by each slot (0 = empty), indexed seq & mask
	resp     [][]byte // cached response per slot, for duplicate re-replies
	overflow map[uint64][]byte
}

// Ring sizing (powers of two): windows double on slot collision up to
// windowSlotsMax, beyond which collisions spill to the overflow map. The
// floor also bounds cached-response retention — a floor-covered slot is
// overwritten (without growing) once a newer congruent seq lands — so the
// minimum is sized to keep re-replies for lost acks answering with the
// real response for at least the last windowSlotsMin commands per client.
const (
	windowSlotsMin = 512
	windowSlotsMax = 8192
)

func newClientWindow(floor uint64) *clientWindow {
	return &clientWindow{
		floor: floor,
		seqs:  make([]uint64, windowSlotsMin),
		resp:  make([][]byte, windowSlotsMin),
	}
}

// grow doubles the ring. Seqs present are distinct modulo the old size, so
// they stay collision-free modulo the doubled size.
func (w *clientWindow) grow() {
	n := uint64(len(w.seqs)) * 2
	seqs := make([]uint64, n)
	resp := make([][]byte, n)
	for j, s := range w.seqs {
		if s != 0 {
			seqs[s&(n-1)] = s
			resp[s&(n-1)] = w.resp[j]
		}
	}
	w.seqs, w.resp = seqs, resp
}

// check reports whether seq was executed; if it was, the cached response
// (possibly nil if evicted) is returned.
func (w *clientWindow) check(seq uint64) (dup bool, resp []byte) {
	i := seq & uint64(len(w.seqs)-1)
	if w.seqs[i] == seq {
		return true, w.resp[i]
	}
	if seq <= w.floor {
		return true, w.overflow[seq]
	}
	if len(w.overflow) > 0 {
		if r, ok := w.overflow[seq]; ok {
			return true, r
		}
	}
	return false, nil
}

// record marks seq executed with its response and advances the floor over
// any now-contiguous prefix.
func (w *clientWindow) record(seq uint64, resp []byte) {
	i := seq & uint64(len(w.seqs)-1)
	for w.seqs[i] != 0 && w.seqs[i] > w.floor && w.seqs[i] != seq {
		if len(w.seqs) < windowSlotsMax {
			w.grow()
			i = seq & uint64(len(w.seqs)-1)
			continue
		}
		// Ring at capacity: spill the collision victim so the
		// duplicate check still finds it.
		if w.overflow == nil {
			w.overflow = make(map[uint64][]byte)
		}
		w.overflow[w.seqs[i]] = w.resp[i]
		break
	}
	w.seqs[i], w.resp[i] = seq, resp
	mask := uint64(len(w.seqs) - 1)
	for {
		next := (w.floor + 1) & mask
		if w.seqs[next] == w.floor+1 {
			w.floor++
			continue
		}
		if len(w.overflow) > 0 {
			if _, ok := w.overflow[w.floor+1]; ok {
				delete(w.overflow, w.floor+1)
				w.floor++
				continue
			}
		}
		break
	}
	if len(w.overflow) > 1024 {
		// Rare: shed a pathological overflow's floor-covered entries.
		for s := range w.overflow {
			if s <= w.floor {
				delete(w.overflow, s)
			}
		}
	}
}

// encodeDedup serializes the duplicate-suppression floors in ascending
// client-id order, so identical dedup states encode to identical
// (checksummable) bytes regardless of map iteration order.
//
//lint:deterministic
func encodeDedup(dedup map[transport.ProcessID]*clientWindow) []byte {
	ids := make([]transport.ProcessID, 0, len(dedup))
	for c := range dedup {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 4, 4+12*len(ids))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ids)))
	var tmp [8]byte
	for _, c := range ids {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(c))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:8], dedup[c].floor)
		buf = append(buf, tmp[:8]...)
	}
	return buf
}

// decodeDedup parses encodeDedup output. Truncated or oversized input
// returns ErrCorrupt instead of a silently partial table — a damaged dedup
// table restored into a replica would re-execute commands it already
// executed.
func decodeDedup(buf []byte) (map[transport.ProcessID]*clientWindow, error) {
	if len(buf) < 4 {
		return nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) != 12*n {
		return nil, recovery.ErrCorrupt
	}
	out := make(map[transport.ProcessID]*clientWindow, n)
	for i := 0; i < n; i++ {
		c := transport.ProcessID(binary.LittleEndian.Uint32(buf[:4]))
		out[c] = newClientWindow(binary.LittleEndian.Uint64(buf[4:12]))
		buf = buf[12:]
	}
	return out, nil
}
