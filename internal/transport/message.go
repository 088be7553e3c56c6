// Package transport provides the message types and the process-to-process
// communication substrate used by every protocol in this repository.
//
// Two interchangeable implementations are provided:
//
//   - Network: an in-process transport whose links are shaped by a
//     netem.Topology (latency, jitter, bandwidth). All simulation tests and
//     benchmark figures run on it.
//   - TCPNode: a real TCP transport with length-prefixed binary frames, used
//     by the cmd/ executables for multi-process deployments.
//
// Both deliver messages FIFO per sender-receiver pair and drop (rather than
// block on) messages addressed to crashed processes, matching the system
// model in Section 2 of the paper: crash-recovery failures, no Byzantine
// behaviour, fair-lossy links made reliable by retransmission above.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"amcast/internal/bufpool"
	"amcast/internal/trace"
)

// ProcessID identifies a process in the system (Π = {p1, p2, ...}).
type ProcessID uint32

// RingID identifies a Ring Paxos ring. Each multicast group maps 1:1 to a
// ring, so RingID doubles as the group identifier γ.
type RingID uint32

// Kind enumerates protocol message types.
type Kind uint8

// Message kinds. Kinds beginning with Kind2 belong to Ring Paxos consensus;
// the rest support recovery, services and client traffic.
const (
	// KindProposal carries a client value along the ring toward the
	// coordinator (Ring Paxos proposal forwarding).
	KindProposal Kind = iota + 1
	// KindPhase1A reserves a window of consensus instances (pre-executed
	// Phase 1); circulates the ring accumulating promises.
	KindPhase1A
	_ // 3: was Phase1B; Phase 1 promises ride the circulating Phase1A
	// KindPhase2 is the combined Phase 2A/2B message: the coordinator's
	// proposal plus the votes accumulated so far.
	KindPhase2
	// KindDecision announces a decided instance; circulates one full loop.
	KindDecision
	// KindRetransmitReq asks an acceptor for decided values in an
	// instance range (replica recovery catch-up).
	KindRetransmitReq
	// KindRetransmitResp returns a batch of decided (instance, value)
	// pairs.
	KindRetransmitResp
	// KindSafeReq asks a replica for its highest checkpointed instance
	// for a group (trim protocol, quorum Q_T).
	KindSafeReq
	// KindSafeResp carries the replica's answer k[x]p.
	KindSafeResp
	// KindTrim instructs acceptors to discard instances <= Instance.
	KindTrim
	// KindCommand is a client request to a replicated service.
	KindCommand
	// KindResponse is a replica's reply to a client.
	KindResponse
	// KindCheckpointReq asks partition peers for their newest checkpoint
	// identifier (recovery quorum Q_R).
	KindCheckpointReq
	// KindCheckpointResp returns a checkpoint tuple identifier.
	KindCheckpointResp
	// KindSnapshotReq asks a peer replica for the full checkpoint bytes.
	KindSnapshotReq
	// KindSnapshotChunk carries one chunk of a streamed checkpoint:
	// Instance is the byte offset, Votes the chunk index, Count the chunk
	// count, Value.ID the total encoded size and Ballot the CRC of the
	// whole encoding. Replaces the former monolithic snapshot response,
	// which could not carry states larger than a single frame.
	KindSnapshotChunk
	// KindReconfigPrepare arms an epoch transition at a replica before
	// the reconfiguration marker is multicast: Instance carries the
	// marker value id, Payload the new group set.
	KindReconfigPrepare
	// KindReconfigAck confirms (Instance 0) or rejects (Instance 1, error
	// text in Payload) a reconfiguration prepare.
	KindReconfigAck
	// KindRangeReq asks a replica for the outgoing key range captured by
	// a partition-split marker; Instance carries the split id.
	KindRangeReq
	// KindRangeChunk streams the captured range back with the same
	// chunked framing as KindSnapshotChunk (offset/index/count/size/CRC).
	KindRangeChunk
	_ // 21: was FlowFeedback
	// KindOverloaded is a coordinator's admission-control reply to a
	// proposal it refused because its queue is full: Value.ID echoes the
	// refused proposal's value id, Instance carries the suggested
	// retry-after in milliseconds, Count the queue depth. Clients back
	// off (bounded, jittered) instead of retrying blindly.
	KindOverloaded
	// KindLocalRead is a client's direct read request to one replica
	// (no multicast round). The payload carries the read mode, the
	// client's read-index requirement (or staleness bound) and the
	// inner service operation; Seq matches request to response.
	KindLocalRead
	// KindLocalReadResp is the replica's reply to a KindLocalRead:
	// a status byte followed by the service result. Instance carries
	// the replica's applied high-water mark for the addressed group so
	// clients advance their observed read index on every reply.
	KindLocalReadResp
	// KindHeartbeat is a failure-detector liveness beacon. It carries no
	// payload beyond the envelope: the arrival time at the receiver is
	// the signal (φ-accrual inter-arrival estimation in coord.Detector).
	KindHeartbeat
	// KindSkipRequest carries a learner's skip-on-stall request to a
	// ring's coordinator (rate leveling): the deterministic merge holds a
	// value of another ring that it cannot deliver before this ring has
	// decided through Instance, an absolute instance of this ring.
	KindSkipRequest
)

var kindNames = map[Kind]string{
	KindProposal:        "Proposal",
	KindPhase1A:         "Phase1A",
	KindPhase2:          "Phase2",
	KindDecision:        "Decision",
	KindRetransmitReq:   "RetransmitReq",
	KindRetransmitResp:  "RetransmitResp",
	KindSafeReq:         "SafeReq",
	KindSafeResp:        "SafeResp",
	KindTrim:            "Trim",
	KindCommand:         "Command",
	KindResponse:        "Response",
	KindCheckpointReq:   "CheckpointReq",
	KindCheckpointResp:  "CheckpointResp",
	KindSnapshotReq:     "SnapshotReq",
	KindSnapshotChunk:   "SnapshotChunk",
	KindReconfigPrepare: "ReconfigPrepare",
	KindReconfigAck:     "ReconfigAck",
	KindRangeReq:        "RangeReq",
	KindRangeChunk:      "RangeChunk",
	KindOverloaded:      "Overloaded",
	KindLocalRead:       "LocalRead",
	KindLocalReadResp:   "LocalReadResp",
	KindHeartbeat:       "Heartbeat",
	KindSkipRequest:     "SkipRequest",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a proposed or decided consensus value. Skip values decide Count
// consecutive null instances (rate leveling, Section 4); they advance the
// deterministic merge without delivering anything to the application.
type Value struct {
	// ID uniquely identifies a proposal: high 32 bits are the proposer's
	// ProcessID, low 32 bits a proposer-local sequence number.
	ID uint64
	// Skip marks a null value used to skip instances.
	Skip bool
	// Batched marks a value whose Data packs several proposals into one
	// consensus instance (message packing, Section 4); Data is then an
	// EncodeBatch payload whose entries carry the original values.
	Batched bool
	// Count is the number of consecutive instances this value decides
	// (1 for normal values, >=1 for skip ranges).
	Count uint32
	// Data is the application payload (opaque to the protocol).
	Data []byte
	// Buf, when non-nil, is the pooled refcounted buffer backing Data.
	// It never rides the wire (encoders ignore it) and is only set on
	// pooled paths: the ring interns a TCP-delivered payload once into a
	// pooled buffer and every downstream holder (flight table, learned
	// map, staged forward, delivery batch) takes its own reference.
	// Holders that copy a Value for retention must Retain; whoever
	// drops the last copy Releases. Code that stores Data beyond the
	// current call without touching Buf must heap-detach it first.
	Buf *bufpool.Buf
}

// value flag bits in the encoded flags byte.
const (
	valueFlagSkip    = 1 << 0
	valueFlagBatched = 1 << 1
)

func (v Value) flags() byte {
	var f byte
	if v.Skip {
		f |= valueFlagSkip
	}
	if v.Batched {
		f |= valueFlagBatched
	}
	return f
}

// Span returns the number of instances the value decides (at least 1).
func (v Value) Span() uint64 {
	if v.Count <= 1 {
		return 1
	}
	return uint64(v.Count)
}

// MakeValueID composes a proposal identifier from a proposer and a local
// sequence number.
func MakeValueID(p ProcessID, seq uint32) uint64 {
	return uint64(p)<<32 | uint64(seq)
}

// TraceRef binds a trace context to one value id carried by a message.
// A message whose Value packs several proposals (message packing) may
// carry one ref per sampled inner value.
type TraceRef struct {
	ValueID uint64
	Ctx     trace.Context
}

// Message is the single wire envelope for all protocols. Field meaning
// depends on Kind; unused fields are zero and cost little on the wire.
type Message struct {
	Kind     Kind
	From     ProcessID // original sender
	To       ProcessID // destination (set by the transport on send)
	Ring     RingID    // ring / multicast group
	Ballot   uint32    // Paxos ballot (Phase 1/2)
	Instance uint64    // consensus instance (or range start)
	Votes    uint32    // accumulated Phase 2B votes
	Count    uint32    // window size (Phase1), batch counts, etc.
	Seq      uint64    // request id for client/recovery RPC matching
	Value    Value     // consensus value
	Payload  []byte    // auxiliary bytes (snapshots, batches)
	// Traces carries sampled trace contexts for the value ids on this
	// message. It rides the wire as an OPTIONAL trailing header after
	// Payload: decoders that predate it ignore trailing bytes, and this
	// decoder skips unknown optional header types, so mixed-version
	// rings interoperate (forward and backward compatible).
	Traces []TraceRef
	// Block, when non-nil, is the pooled TCP read block whose storage
	// Value.Data and Payload alias. The reference it represents is owned
	// by the message: the consumer that drains the message releases it
	// once it no longer reads the aliased slices (the ring releases a
	// burst's blocks after the burst's staged work is flushed). Never
	// set on in-process transports, never encoded.
	Block *bufpool.Buf
}

// ReleaseRefs drops the pooled-buffer references carried by m (read
// block and interned value buffer), if any. Nil-safe on both; called
// wherever a message is dropped instead of handed to its consumer so
// pooled storage is not leaked.
func (m *Message) ReleaseRefs() {
	m.Block.Release()
	m.Block = nil
	m.Value.Buf.Release()
	m.Value.Buf = nil
}

// RetainRefs takes one additional reference on each pooled buffer m
// carries, nil-safe. The in-process transport calls it per delivered
// copy of a message: a pooled payload crosses process boundaries as a
// slice alias rather than an encoded wire copy there, so each in-flight
// copy must pin the buffer until its consumer releases it — otherwise
// the sender's shutdown could recycle bytes a receiver is still reading.
func (m *Message) RetainRefs() {
	m.Block.Retain()
	m.Value.Buf.Retain()
}

// DetachAlias copies m's wire-aliasing byte fields (Value.Data,
// Payload) onto the GC heap and clears Value.Buf, so the message stays
// valid after the read block it was decoded from is recycled. Used for
// message kinds outside the pooled steady-state path, whose holders
// may retain the bytes indefinitely.
func (m *Message) DetachAlias() {
	if len(m.Value.Data) > 0 {
		m.Value.Data = append([]byte(nil), m.Value.Data...)
	}
	m.Value.Buf = nil
	if len(m.Payload) > 0 {
		m.Payload = append([]byte(nil), m.Payload...)
	}
}

const msgFixedHeader = 1 + 4 + 4 + 4 + 4 + 8 + 4 + 4 + 8 // through Seq

// Optional trailing headers: after Payload a message may carry a
// sequence of (type byte, uint16 length, body) extensions. Unknown
// types are skipped; malformed trailing bytes are ignored (they are
// indistinguishable from a pre-extension peer's padding).
const (
	extTypeTrace    = 0x01
	extHeaderSize   = 1 + 2                // type + length
	traceRefSize    = 8 + 8 + 8 + 1        // value id, trace id, span id, flags
	maxTraceRefsEnc = 65535 / traceRefSize // uint16 length cap per header
)

// encodedTraceCount caps the refs that fit one optional header. In
// practice a message carries a handful; the cap only guards the uint16.
func (m *Message) encodedTraceCount() int {
	n := len(m.Traces)
	if n > maxTraceRefsEnc {
		n = maxTraceRefsEnc
	}
	return n
}

// EncodedSize returns the exact encoding length of m.
func (m *Message) EncodedSize() int {
	n := msgFixedHeader + 8 + 1 + 4 + 4 + len(m.Value.Data) + 4 + len(m.Payload)
	if tc := m.encodedTraceCount(); tc > 0 {
		n += extHeaderSize + tc*traceRefSize
	}
	return n
}

// AppendEncode appends the binary encoding of m to buf and returns the
// extended slice. The format is fixed-width little-endian; no reflection.
//
//lint:deterministic
func (m *Message) AppendEncode(buf []byte) []byte {
	var tmp [8]byte
	buf = append(buf, byte(m.Kind))
	binary.LittleEndian.PutUint32(tmp[:4], uint32(m.From))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(m.To))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(m.Ring))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], m.Ballot)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], m.Instance)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], m.Votes)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], m.Count)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], m.Seq)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:8], m.Value.ID)
	buf = append(buf, tmp[:8]...)
	buf = append(buf, m.Value.flags())
	binary.LittleEndian.PutUint32(tmp[:4], m.Value.Count)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(m.Value.Data)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, m.Value.Data...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(m.Payload)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, m.Payload...)
	if tc := m.encodedTraceCount(); tc > 0 {
		buf = append(buf, extTypeTrace)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(tc*traceRefSize))
		buf = append(buf, tmp[:2]...)
		for _, tr := range m.Traces[:tc] {
			binary.LittleEndian.PutUint64(tmp[:8], tr.ValueID)
			buf = append(buf, tmp[:8]...)
			binary.LittleEndian.PutUint64(tmp[:8], tr.Ctx.TraceID)
			buf = append(buf, tmp[:8]...)
			binary.LittleEndian.PutUint64(tmp[:8], tr.Ctx.SpanID)
			buf = append(buf, tmp[:8]...)
			buf = append(buf, tr.Ctx.Flags)
		}
	}
	return buf
}

// ErrShortMessage reports a truncated or corrupt encoding.
var ErrShortMessage = errors.New("transport: short or corrupt message encoding")

// DecodeMessage parses a message encoded by AppendEncode. The returned message
// aliases buf's storage for Value.Data and Payload.
func DecodeMessage(buf []byte) (Message, error) {
	var m Message
	if len(buf) < msgFixedHeader {
		return m, ErrShortMessage
	}
	m.Kind = Kind(buf[0])
	m.From = ProcessID(binary.LittleEndian.Uint32(buf[1:5]))
	m.To = ProcessID(binary.LittleEndian.Uint32(buf[5:9]))
	m.Ring = RingID(binary.LittleEndian.Uint32(buf[9:13]))
	m.Ballot = binary.LittleEndian.Uint32(buf[13:17])
	m.Instance = binary.LittleEndian.Uint64(buf[17:25])
	m.Votes = binary.LittleEndian.Uint32(buf[25:29])
	m.Count = binary.LittleEndian.Uint32(buf[29:33])
	m.Seq = binary.LittleEndian.Uint64(buf[33:41])
	rest := buf[41:]
	if len(rest) < 8+1+4+4 {
		return m, ErrShortMessage
	}
	m.Value.ID = binary.LittleEndian.Uint64(rest[:8])
	m.Value.Skip = rest[8]&valueFlagSkip != 0
	m.Value.Batched = rest[8]&valueFlagBatched != 0
	m.Value.Count = binary.LittleEndian.Uint32(rest[9:13])
	dataLen := int(binary.LittleEndian.Uint32(rest[13:17]))
	rest = rest[17:]
	if len(rest) < dataLen+4 {
		return m, ErrShortMessage
	}
	if dataLen > 0 {
		m.Value.Data = rest[:dataLen]
	}
	rest = rest[dataLen:]
	payLen := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < payLen {
		return m, ErrShortMessage
	}
	if payLen > 0 {
		m.Payload = rest[:payLen]
	}
	rest = rest[payLen:]
	// Optional trailing headers. Unknown types are skipped (forward
	// compatibility: a newer peer's extension must not reject an
	// otherwise valid frame) and malformed trailers are ignored rather
	// than rejected — old decoders never looked past Payload at all.
	for len(rest) >= extHeaderSize {
		typ := rest[0]
		bodyLen := int(binary.LittleEndian.Uint16(rest[1:3]))
		if len(rest) < extHeaderSize+bodyLen {
			break // truncated trailer: ignore
		}
		body := rest[extHeaderSize : extHeaderSize+bodyLen]
		rest = rest[extHeaderSize+bodyLen:]
		if typ != extTypeTrace || bodyLen%traceRefSize != 0 {
			continue // unknown or malformed extension: skip it
		}
		for len(body) >= traceRefSize && len(m.Traces) < maxTraceRefsEnc {
			m.Traces = append(m.Traces, TraceRef{
				ValueID: binary.LittleEndian.Uint64(body[:8]),
				Ctx: trace.Context{
					TraceID: binary.LittleEndian.Uint64(body[8:16]),
					SpanID:  binary.LittleEndian.Uint64(body[16:24]),
					Flags:   body[24],
				},
			})
			body = body[traceRefSize:]
		}
	}
	return m, nil
}

// InstanceValue pairs a decided instance with its value; used in
// retransmission batches.
type InstanceValue struct {
	Instance uint64
	Value    Value
}

// AppendValue appends one batch entry's value encoding (the per-entry
// layout of EncodeBatch, after the instance) to buf.
//
//lint:deterministic
func AppendValue(buf []byte, v Value) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:8], v.ID)
	buf = append(buf, tmp[:8]...)
	buf = append(buf, v.flags())
	binary.LittleEndian.PutUint32(tmp[:4], v.Count)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(v.Data)))
	buf = append(buf, tmp[:4]...)
	return append(buf, v.Data...)
}

// Batch layout: a 4-byte entry count, then per entry the 8-byte instance
// followed by AppendValue's encoding (25 bytes of fixed fields + Data).
const (
	BatchHeaderSize    = 4
	batchEntryOverhead = 8 + 8 + 1 + 4 + 4
)

// BatchEntrySize returns the encoded size of one batch entry carrying v.
func BatchEntrySize(v Value) int { return batchEntryOverhead + len(v.Data) }

// EncodedBatchSize returns the exact size of EncodeBatch's output, so
// callers can encode into a pre-sized (possibly pooled) buffer via
// AppendBatch without a second copy.
func EncodedBatchSize(batch []InstanceValue) int {
	size := BatchHeaderSize
	for _, iv := range batch {
		size += BatchEntrySize(iv.Value)
	}
	return size
}

// AppendBatchHeader starts a batch of n entries in buf; the caller follows
// it with exactly n AppendBatchEntry calls. Together they are AppendBatch
// for callers that hold the entries somewhere other than a slice (the
// ring coordinator packs straight out of its proposal queue); the total
// is BatchHeaderSize plus each entry's BatchEntrySize.
//
//lint:deterministic
func AppendBatchHeader(buf []byte, n int) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(n))
	return append(buf, tmp[:]...)
}

// AppendBatchEntry appends one (instance, value) entry of a batch opened
// with AppendBatchHeader.
//
//lint:deterministic
func AppendBatchEntry(buf []byte, instance uint64, v Value) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], instance)
	buf = append(buf, tmp[:]...)
	return AppendValue(buf, v)
}

// AppendBatch appends the batch encoding to buf and returns the extended
// slice (EncodedBatchSize bytes are written).
//
//lint:deterministic
func AppendBatch(buf []byte, batch []InstanceValue) []byte {
	buf = AppendBatchHeader(buf, len(batch))
	for _, iv := range batch {
		buf = AppendBatchEntry(buf, iv.Instance, iv.Value)
	}
	return buf
}

// EncodeBatch encodes a retransmission batch into a payload.
//
//lint:deterministic
func EncodeBatch(batch []InstanceValue) []byte {
	return AppendBatch(make([]byte, 0, EncodedBatchSize(batch)), batch)
}

// BatchIter walks a payload produced by EncodeBatch entry by entry without
// materializing the batch slice and without a callback: the delivery hot
// path unpacks one message-packed instance per consensus decision, and a
// closure over the caller's state would cost a heap allocation per
// instance. Entries alias the payload's storage. The zero value is an
// exhausted iterator.
//
//	for it := transport.IterBatch(data); ; {
//		iv, ok := it.Next()
//		if !ok {
//			break
//		}
//		...
//	}
//	if err := it.Err(); err != nil { ... }
type BatchIter struct {
	buf  []byte
	left int
	err  error
}

// IterBatch starts iterating an EncodeBatch payload.
func IterBatch(buf []byte) BatchIter {
	if len(buf) < BatchHeaderSize {
		return BatchIter{err: ErrShortMessage}
	}
	return BatchIter{
		buf:  buf[BatchHeaderSize:],
		left: int(binary.LittleEndian.Uint32(buf[:BatchHeaderSize])),
	}
}

// Next returns the next entry, or false once the batch is exhausted or
// found truncated (Err tells which).
func (it *BatchIter) Next() (InstanceValue, bool) {
	var iv InstanceValue
	if it.left == 0 {
		return iv, false
	}
	buf := it.buf
	if len(buf) < batchEntryOverhead {
		it.left, it.err = 0, ErrShortMessage
		return iv, false
	}
	iv.Instance = binary.LittleEndian.Uint64(buf[:8])
	iv.Value.ID = binary.LittleEndian.Uint64(buf[8:16])
	iv.Value.Skip = buf[16]&valueFlagSkip != 0
	iv.Value.Batched = buf[16]&valueFlagBatched != 0
	iv.Value.Count = binary.LittleEndian.Uint32(buf[17:21])
	dataLen := int(binary.LittleEndian.Uint32(buf[21:25]))
	buf = buf[batchEntryOverhead:]
	if len(buf) < dataLen {
		it.left, it.err = 0, ErrShortMessage
		return InstanceValue{}, false
	}
	if dataLen > 0 {
		iv.Value.Data = buf[:dataLen]
	}
	it.buf = buf[dataLen:]
	it.left--
	return iv, true
}

// Err reports why iteration stopped early (nil after a complete walk).
func (it *BatchIter) Err() error { return it.err }

// DecodeBatch parses a payload produced by EncodeBatch.
func DecodeBatch(buf []byte) ([]InstanceValue, error) {
	it := IterBatch(buf)
	// The count header comes off the wire: cap the preallocation by the
	// entries the buffer could physically hold, or 4 corrupt bytes could
	// demand a ~200 GB make.
	n := it.left
	if max := len(it.buf) / batchEntryOverhead; n > max {
		n = max
	}
	batch := make([]InstanceValue, 0, n)
	for {
		iv, ok := it.Next()
		if !ok {
			break
		}
		batch = append(batch, iv)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return batch, nil
}
