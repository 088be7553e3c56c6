package store

import (
	"encoding/binary"
	"errors"
	"slices"

	"amcast/internal/bufpool"
	"amcast/internal/smr"
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

// bytestring is either form a key takes: a string the tree or a caller
// owns, or a view of encoded bytes.
type bytestring interface{ ~string | ~[]byte }

// maxKeyLen and maxBatchLen are what the two-byte length prefixes of the
// operation encoding can express.
const (
	maxKeyLen   = 1<<16 - 1
	maxBatchLen = 1<<16 - 1
)

// appendString writes a key behind its two-byte length.
func appendString[S bytestring](buf []byte, s S) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readString reads what appendString wrote, in place.
func readString(buf []byte) (s, rest []byte, ok bool) {
	if len(buf) < 2 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if len(buf)-2 < n {
		return nil, nil, false
	}
	return buf[2 : 2+n], buf[2+n:], true
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readBytes(buf []byte) (b, rest []byte, ok bool) {
	if len(buf) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf)-4 < n {
		return nil, nil, false
	}
	return buf[4 : 4+n], buf[4+n:], true
}

// Encode serializes an operation into one buffer sized once. Keys longer
// than maxKeyLen and batches longer than maxBatchLen do not fit the
// encoding; Client rejects them (ErrKeyTooLong, ErrBatchTooLarge) before
// anything is encoded.
func (o Op) Encode() []byte {
	return o.appendTo(make([]byte, 0, o.encodedLen()))
}

// Request is the operation as an smr client encodes it: straight into the
// command it sends, with no buffer of its own.
func (o Op) Request() smr.Op {
	return smr.Op{Len: o.encodedLen(), Append: o.appendTo}
}

// encodedLen is the number of bytes appendTo writes.
func (o Op) encodedLen() int {
	n := 1 + 2 + len(o.Key) + 2 + len(o.KeyHi) + 4 + len(o.Value) + 2
	for i := range o.Batch {
		n += o.Batch[i].encodedLen()
	}
	return n
}

func (o Op) appendTo(buf []byte) []byte {
	buf = append(buf, byte(o.Kind))
	buf = appendString(buf, o.Key)
	buf = appendString(buf, o.KeyHi)
	buf = appendBytes(buf, o.Value)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Batch)))
	for i := range o.Batch {
		buf = o.Batch[i].appendTo(buf)
	}
	return buf
}

// opView is one operation read in place: Key, KeyHi and Value alias the
// encoded bytes, which belong to whoever delivered them. Nothing that
// outlives the call may keep a view; string(v.Key) and append copy.
type opView struct {
	Kind       OpKind
	Key, KeyHi []byte
	Value      []byte
	n          int // sub-operations, encoded right behind this one
}

// parseOp is the one operation parser. It reads the operation at the head
// of buf and returns what follows: first v's own v.n sub-operations (read
// each with parseOp again, or step over them with skipOps), then whatever
// came after the operation.
func parseOp(buf []byte) (v opView, rest []byte, ok bool) {
	if len(buf) < 1 {
		return v, nil, false
	}
	v.Kind = OpKind(buf[0])
	if v.Key, rest, ok = readString(buf[1:]); !ok {
		return v, nil, false
	}
	if v.KeyHi, rest, ok = readString(rest); !ok {
		return v, nil, false
	}
	if v.Value, rest, ok = readBytes(rest); !ok || len(rest) < 2 {
		return v, nil, false
	}
	v.n = int(binary.LittleEndian.Uint16(rest))
	return v, rest[2:], true
}

// skipOps steps over n encoded operations and all their sub-operations,
// which follow each in preorder.
func skipOps(buf []byte, n int) (rest []byte, ok bool) {
	for ; n > 0; n-- {
		v, rest, ok := parseOp(buf)
		if !ok {
			return nil, false
		}
		buf, n = rest, n+v.n
	}
	return buf, true
}

// parseRequest reads one whole encoded operation: parseOp, with every
// sub-operation checked, so that an operation is refused before any part
// of it is applied. Bytes behind the operation are ignored.
func parseRequest(raw []byte) (v opView, subs []byte, ok bool) {
	if v, subs, ok = parseOp(raw); ok {
		_, ok = skipOps(subs, v.n)
	}
	return v, subs, ok
}

// DecodeOp parses an encoded operation into an Op of its own, except that
// Value still aliases buf: a state machine copies the values it keeps.
func DecodeOp(buf []byte) (Op, error) {
	op, _, err := decodeOp(buf)
	return op, err
}

func decodeOp(buf []byte) (Op, []byte, error) {
	v, rest, ok := parseOp(buf)
	if !ok {
		return Op{}, nil, transport.ErrShortMessage
	}
	o := Op{Kind: v.Kind, Key: string(v.Key), KeyHi: string(v.KeyHi)}
	if len(v.Value) > 0 {
		o.Value = v.Value
	}
	for i := 0; i < v.n; i++ {
		var sub Op
		var err error
		if sub, rest, err = decodeOp(rest); err != nil {
			return o, nil, err
		}
		o.Batch = append(o.Batch, sub)
	}
	return o, rest, nil
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

// appendStatus appends an entry-less result to dst. A nil dst — the result
// is the whole reply — gets the cached encoding itself, which is shared and
// read-only.
func appendStatus(dst []byte, st Status) []byte {
	if dst == nil {
		return statusEnc[st]
	}
	return append(dst, statusEnc[st]...)
}

// appendEntry appends one key-value pair of a result.
func appendEntry[K bytestring](dst []byte, key K, value []byte) []byte {
	return appendBytes(appendString(dst, key), value)
}

// appendReadResult is the one place a read's reply is written: StatusOK and
// the entry, from the tree's value straight into dst, which is grown once
// to the exact size. A nil dst — the reply is the whole result — gets bytes
// of the reply's own, cut from the state machine's reply block: the
// duplicate window and the transport may keep a reply for as long as they
// like, and a block is never rewritten. Callers hold s.mu.
func (s *SM) appendReadResult(dst, key, value []byte) []byte {
	n := 1 + 4 + 2 + len(key) + 4 + len(value) + 4
	if dst == nil {
		dst = bufpool.Cut(&s.replies, replySlab, n)[:0]
	} else {
		dst = slices.Grow(dst, n)
	}
	dst = append(dst, byte(StatusOK), 1, 0, 0, 0)
	dst = appendEntry(dst, key, value)
	return append(dst, 0, 0, 0, 0)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Entries)))
	for _, e := range r.Entries {
		buf = appendEntry(buf, e.Key, e.Value)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Results)))
	for _, sub := range r.Results {
		buf = sub.appendTo(buf)
	}
	return buf
}

// readEntry reads one key-value pair of a result in place.
func readEntry(buf []byte) (key, value, rest []byte, ok bool) {
	if key, rest, ok = readString(buf); ok {
		value, rest, ok = readBytes(rest)
	}
	return key, value, rest, ok
}

// DecodeResult parses an encoded result into a Result of its own: keys and
// values are copies.
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
		k, v, rest, ok := readEntry(buf)
		if !ok {
			return r, nil, transport.ErrShortMessage
		}
		e := Entry{Key: string(k)}
		if len(v) > 0 {
			e.Value = append([]byte(nil), v...)
		}
		r.Entries, buf = append(r.Entries, e), rest
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

// reply is the result of a single-key operation read in place, for the
// client: the status and, where the result carries an entry, its value.
// Value is a view of the response — capped, so appending to it cannot
// reach the bytes behind it — which the caller owns.
type reply struct {
	Status Status
	Found  bool
	Value  []byte
}

var errReplyShape = errors.New("store: response is not a single-key result")

// parseReply reads what a replica answers a single-key operation with — a
// status, at most one entry, no sub-results, nothing behind them — without
// building a Result. What it accepts DecodeResult reads the same.
func parseReply(buf []byte) (r reply, err error) {
	if len(buf) < 5 {
		return reply{}, transport.ErrShortMessage
	}
	r.Status = Status(buf[0])
	n, rest := binary.LittleEndian.Uint32(buf[1:]), buf[5:]
	if n == 1 {
		_, v, after, ok := readEntry(rest)
		if !ok {
			return reply{}, transport.ErrShortMessage
		}
		r.Found, r.Value, rest = true, v[:len(v):len(v)], after
	}
	if n > 1 || len(rest) != 4 || binary.LittleEndian.Uint32(rest) != 0 {
		return reply{}, errReplyShape
	}
	return r, nil
}
