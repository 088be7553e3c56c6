package ring

import (
	"encoding/binary"
	"sort"

	"amcast/internal/transport"
)

// Acceptor log records frame the vote an acceptor casts for an instance:
//
//	ballot(4) || EncodeBatch([{instance, value}])
//
// The instance is redundant with the log key but keeps records
// self-describing for offline inspection and WAL replay.

// acceptRecordSize is the exact encoded size of a vote record, so the hot
// path can encode into a pre-sized pooled buffer.
func acceptRecordSize(v transport.Value) int {
	return 4 + 4 + 8 + 8 + 1 + 4 + 4 + len(v.Data)
}

// appendAccept appends the durable record for a vote to buf (exactly
// acceptRecordSize bytes). The single-entry batch is encoded in place:
// votes carry the full proposal payload (32 KB packed instances), and an
// intermediate EncodeBatch buffer would double the copy on every
// acceptor's hot path.
//
//lint:deterministic
func appendAccept(buf []byte, ballot uint32, instance uint64, v transport.Value) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], ballot)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], 1) // batch length
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], instance)
	buf = append(buf, tmp[:8]...)
	return transport.AppendValue(buf, v)
}

// decodeAccept parses a record written by appendAccept. The value aliases
// rec; reading its one entry in place keeps every log read allocation-free.
func decodeAccept(rec []byte) (ballot uint32, instance uint64, v transport.Value, err error) {
	if len(rec) < 4+transport.BatchHeaderSize || binary.LittleEndian.Uint32(rec[4:]) != 1 {
		return 0, 0, transport.Value{}, transport.ErrShortMessage
	}
	it := transport.IterBatch(rec[4:])
	iv, ok := it.Next()
	if !ok {
		return 0, 0, transport.Value{}, it.Err()
	}
	return binary.LittleEndian.Uint32(rec[:4]), iv.Instance, iv.Value, nil
}

// A Phase 1B report rides the circulating Phase 1A payload as one batch
// with an entry per vote: the instance, and as the value's Data the vote's
// log record as stored, so each vote carries the ballot it was cast at.

// reportedVote is one vote decoded from a Phase 1B report.
type reportedVote struct {
	ballot   uint32
	instance uint64
	value    transport.Value
}

// decodeReport returns the votes a Phase 1A payload reports, sorted by
// instance and, within an instance, highest ballot first. Entries that do
// not decode are dropped.
func decodeReport(payload []byte) []reportedVote {
	var votes []reportedVote
	for it := transport.IterBatch(payload); ; {
		iv, ok := it.Next()
		if !ok {
			break
		}
		if ballot, inst, v, err := decodeAccept(iv.Value.Data); err == nil && inst == iv.Instance {
			votes = append(votes, reportedVote{ballot: ballot, instance: inst, value: v})
		}
	}
	sort.Slice(votes, func(i, j int) bool {
		if votes[i].instance != votes[j].instance {
			return votes[i].instance < votes[j].instance
		}
		return votes[i].ballot > votes[j].ballot
	})
	return votes
}

// promiseInstance is the reserved log key for the acceptor's highest
// promised ballot (persisted so a recovering acceptor does not betray its
// promises). Consensus instances start at 1, so key 0 is free.
const promiseInstance = 0

// encodePromise stores a promised ballot.
//
//lint:deterministic
func encodePromise(ballot uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], ballot)
	return buf[:]
}

// decodePromise reads a promised ballot.
func decodePromise(rec []byte) uint32 {
	if len(rec) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(rec[:4])
}
