package store

import (
	"encoding/binary"

	"amcast/internal/transport"
)

// OpKind enumerates MRP-Store operations (Table 1).
type OpKind uint8

const (
	// OpRead returns the value of an entry.
	OpRead OpKind = iota + 1
	// OpScan returns all entries within a key range.
	OpScan
	// OpUpdate replaces an existing entry's value.
	OpUpdate
	// OpInsert adds a new entry.
	OpInsert
	// OpDelete removes an entry.
	OpDelete
	// OpBatch applies a sequence of sub-operations (client-side batching
	// of small commands, Section 7.2).
	OpBatch
	// OpSplit is the partition-split marker (online reconfiguration):
	// delivered through the old partition's group, it marks the exact
	// point in the merged stream where keys >= Key stop being owned by
	// this partition. Replicas split their tree in O(log n), stash the
	// outgoing half for the controller's range transfer (scale-out
	// splits), and shrink their owned range. Value carries an encoded
	// SplitSpec.
	OpSplit
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpScan:
		return "scan"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpBatch:
		return "batch"
	case OpSplit:
		return "split"
	default:
		return "unknown"
	}
}

// Op is one MRP-Store operation.
type Op struct {
	Kind  OpKind
	Key   string
	KeyHi string // scan upper bound
	Value []byte
	Batch []Op // OpBatch sub-operations
}

// Status codes in responses.
type Status uint8

const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates a missing key (read/update/delete).
	StatusNotFound
	// StatusExists indicates an insert over an existing key.
	StatusExists
	// StatusBadRequest indicates an undecodable operation.
	StatusBadRequest
	// StatusWrongPartition indicates the executing replica no longer owns
	// the key — its partition's range shrank in a split after the client
	// loaded its schema. Clients refresh the schema and retry against the
	// new owner.
	StatusWrongPartition
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusExists:
		return "exists"
	case StatusBadRequest:
		return "bad-request"
	case StatusWrongPartition:
		return "wrong-partition"
	default:
		return "unknown"
	}
}

// SplitSpec parameterizes an OpSplit marker. It rides in the op's Value.
type SplitSpec struct {
	// ID tags the split; the stashed outgoing range and the controller's
	// range-transfer RPCs are keyed by it.
	ID uint64
	// NewGroup is the ring that takes over keys >= the op's Key.
	NewGroup transport.RingID
	// InPlace marks a split where the same replicas host the new ring
	// (they resubscribe instead of moving data): ownership and state stay
	// untouched, only the marker's position in the merged stream matters.
	InPlace bool
}

// Encode serializes a split spec.
func (s SplitSpec) Encode() []byte {
	buf := make([]byte, 13)
	binary.LittleEndian.PutUint64(buf[:8], s.ID)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(s.NewGroup))
	if s.InPlace {
		buf[12] = 1
	}
	return buf
}

// DecodeSplitSpec parses Encode output.
func DecodeSplitSpec(buf []byte) (SplitSpec, error) {
	if len(buf) < 13 {
		return SplitSpec{}, transport.ErrShortMessage
	}
	return SplitSpec{
		ID:       binary.LittleEndian.Uint64(buf[:8]),
		NewGroup: transport.RingID(binary.LittleEndian.Uint32(buf[8:12])),
		InPlace:  buf[12] == 1,
	}, nil
}

// Entry is one key-value pair in a response.
type Entry struct {
	Key   string
	Value []byte
}

// Result is a response to one operation.
type Result struct {
	Status  Status
	Entries []Entry
	Results []Result // OpBatch sub-results
}

// appendString writes a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, bool) {
	if len(buf) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	if len(buf) < n {
		return "", nil, false
	}
	return string(buf[:n]), buf[n:], true
}

func appendBytes(buf, b []byte) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b)))
	buf = append(buf, tmp[:]...)
	return append(buf, b...)
}

func readBytes(buf []byte) ([]byte, []byte, bool) {
	if len(buf) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < n {
		return nil, nil, false
	}
	return buf[:n], buf[n:], true
}

// Encode serializes an operation.
func (o Op) Encode() []byte {
	return o.appendTo(nil)
}

func (o Op) appendTo(buf []byte) []byte {
	buf = append(buf, byte(o.Kind))
	buf = appendString(buf, o.Key)
	buf = appendString(buf, o.KeyHi)
	buf = appendBytes(buf, o.Value)
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(o.Batch)))
	buf = append(buf, tmp[:]...)
	for _, sub := range o.Batch {
		buf = sub.appendTo(buf)
	}
	return buf
}

// DecodeOp parses an encoded operation.
func DecodeOp(buf []byte) (Op, error) {
	op, _, err := decodeOp(buf)
	return op, err
}

func decodeOp(buf []byte) (Op, []byte, error) {
	var o Op
	if len(buf) < 1 {
		return o, nil, transport.ErrShortMessage
	}
	o.Kind = OpKind(buf[0])
	buf = buf[1:]
	var ok bool
	if o.Key, buf, ok = readString(buf); !ok {
		return o, nil, transport.ErrShortMessage
	}
	if o.KeyHi, buf, ok = readString(buf); !ok {
		return o, nil, transport.ErrShortMessage
	}
	var v []byte
	if v, buf, ok = readBytes(buf); !ok {
		return o, nil, transport.ErrShortMessage
	}
	if len(v) > 0 {
		// Alias rather than copy: the state machine copies values it
		// retains (treap puts), so the delivery hot path need not pay a
		// defensive copy per operation.
		o.Value = v
	}
	if len(buf) < 2 {
		return o, nil, transport.ErrShortMessage
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	for i := 0; i < n; i++ {
		var sub Op
		var err error
		if sub, buf, err = decodeOp(buf); err != nil {
			return o, nil, err
		}
		o.Batch = append(o.Batch, sub)
	}
	return o, buf, nil
}

// statusEnc caches the encodings of entry-less results: the write hot path
// (update/insert/delete) returns one per command, and encoding it fresh
// would allocate inside the executor's critical section.
var statusEnc [StatusWrongPartition + 1][]byte

func init() {
	for s := StatusOK; s <= StatusWrongPartition; s++ {
		statusEnc[s] = Result{Status: s}.Encode()
	}
}

// encodeResult serializes a result, reusing the cached encoding for
// status-only results. The returned slice must be treated as read-only.
func encodeResult(r Result) []byte {
	if len(r.Entries) == 0 && len(r.Results) == 0 && r.Status >= StatusOK && r.Status <= StatusWrongPartition {
		return statusEnc[r.Status]
	}
	return r.Encode()
}

// Encode serializes a result into one exactly-sized buffer: a read reply
// carries the whole value, and growing into it would copy it several times.
func (r Result) Encode() []byte {
	return r.appendTo(make([]byte, 0, r.encodedLen()))
}

// encodedLen is the number of bytes appendTo writes.
func (r Result) encodedLen() int {
	n := 1 + 4 + 4
	for _, e := range r.Entries {
		n += 2 + len(e.Key) + 4 + len(e.Value)
	}
	for _, sub := range r.Results {
		n += sub.encodedLen()
	}
	return n
}

func (r Result) appendTo(buf []byte) []byte {
	buf = append(buf, byte(r.Status))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(r.Entries)))
	buf = append(buf, tmp[:]...)
	for _, e := range r.Entries {
		buf = appendString(buf, e.Key)
		buf = appendBytes(buf, e.Value)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(r.Results)))
	buf = append(buf, tmp[:]...)
	for _, sub := range r.Results {
		buf = sub.appendTo(buf)
	}
	return buf
}

// DecodeResult parses an encoded result.
func DecodeResult(buf []byte) (Result, error) {
	r, _, err := decodeResult(buf)
	return r, err
}

func decodeResult(buf []byte) (Result, []byte, error) {
	var r Result
	if len(buf) < 5 {
		return r, nil, transport.ErrShortMessage
	}
	r.Status = Status(buf[0])
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	buf = buf[5:]
	for i := 0; i < n; i++ {
		var e Entry
		var ok bool
		if e.Key, buf, ok = readString(buf); !ok {
			return r, nil, transport.ErrShortMessage
		}
		var v []byte
		if v, buf, ok = readBytes(buf); !ok {
			return r, nil, transport.ErrShortMessage
		}
		if len(v) > 0 {
			e.Value = append([]byte(nil), v...)
		}
		r.Entries = append(r.Entries, e)
	}
	if len(buf) < 4 {
		return r, nil, transport.ErrShortMessage
	}
	m := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	for i := 0; i < m; i++ {
		var sub Result
		var err error
		if sub, buf, err = decodeResult(buf); err != nil {
			return r, nil, err
		}
		r.Results = append(r.Results, sub)
	}
	return r, buf, nil
}
