// Package dlog implements dLog (Section 6.2): a distributed shared log
// where multiple concurrent writers append data to one or multiple logs
// atomically, built on Multi-Ring Paxos state-machine replication.
//
// Each log maps to a multicast group; append, read and trim commands are
// multicast to the log's group, and multi-append commands to a group all
// log servers subscribe to, so appends spanning logs are ordered against
// everything else. A server keeps every entry in memory until a trim drops
// it; entries are durable through the acceptors' write-ahead logs and the
// replica's checkpoints, not through a data disk of the server's own.
//
// A server applies an operation from the delivered bytes and copies an
// appended value once, into a block of entries it cuts forward and never
// rewrites. Replies are cut from a block in the same way, and the client
// reads them in place. This is safe only because the log is append-only:
// nothing written is ever changed.
package dlog

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/transport"
)

// LogID names one shared log. By convention a log's commands are multicast
// to the ring with the same numeric id.
type LogID uint32

// OpKind enumerates dLog operations (Table 2).
type OpKind uint8

const (
	// OpAppend appends a value to one log, returning its position.
	OpAppend OpKind = iota + 1
	// OpMultiAppend appends one value to several logs atomically.
	OpMultiAppend
	// OpRead returns the value at a position.
	OpRead
	// OpTrim discards log entries below a position.
	OpTrim
)

// Op is one dLog operation.
type Op struct {
	Kind  OpKind
	Log   LogID
	Pos   uint64
	Logs  []LogID // multi-append targets
	Value []byte
}

// Encode serializes the operation.
func (o Op) Encode() []byte {
	return o.appendTo(make([]byte, 0, o.encodedLen()))
}

// Request is the operation as an smr client encodes it: straight into the
// command it sends, with no buffer of its own.
func (o Op) Request() smr.Op {
	return smr.Op{Len: o.encodedLen(), Append: o.appendTo}
}

// encodedLen is the number of bytes appendTo writes.
func (o Op) encodedLen() int { return 1 + 4 + 8 + 2 + 4*len(o.Logs) + 4 + len(o.Value) }

func (o Op) appendTo(buf []byte) []byte {
	buf = append(buf, byte(o.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Log))
	buf = binary.LittleEndian.AppendUint64(buf, o.Pos)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Logs)))
	for _, l := range o.Logs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.Value)))
	return append(buf, o.Value...)
}

// opView is one operation read in place: logs and Value alias the encoded
// bytes, which belong to whoever delivered them. logs holds the
// multi-append targets, four bytes each.
type opView struct {
	Kind  OpKind
	Log   LogID
	Pos   uint64
	logs  []byte
	Value []byte
}

// logAt is the i-th multi-append target.
func (v opView) logAt(i int) LogID {
	return LogID(binary.LittleEndian.Uint32(v.logs[4*i:]))
}

// parseOp is the one operation parser: the state machine applies its view,
// and the tests materialise an Op over it.
func parseOp(buf []byte) (v opView, ok bool) {
	if len(buf) < 15 {
		return v, false
	}
	v.Kind = OpKind(buf[0])
	v.Log = LogID(binary.LittleEndian.Uint32(buf[1:5]))
	v.Pos = binary.LittleEndian.Uint64(buf[5:13])
	n := 4 * int(binary.LittleEndian.Uint16(buf[13:15]))
	buf = buf[15:]
	if len(buf) < n+4 {
		return v, false
	}
	v.logs, buf = buf[:n], buf[n:]
	vn := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < vn {
		return v, false
	}
	if vn > 0 {
		v.Value = buf[:vn:vn]
	}
	return v, true
}

// Status codes for results.
type Status uint8

const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates an out-of-range or trimmed position.
	StatusNotFound
	// StatusBadRequest indicates an undecodable operation.
	StatusBadRequest
)

// logPos is one log's position in a reply.
type logPos struct {
	log LogID
	pos uint64
}

// positions is what a replica answers with, in ascending log order — a
// replica builds its reply from this, not from a map it would have to sort
// again.
type positions []logPos

// with sets l's position, keeping the order; a log named twice keeps the
// later one.
func (ps positions) with(l LogID, pos uint64) positions {
	i := 0
	for i < len(ps) && ps[i].log < l {
		i++
	}
	if i < len(ps) && ps[i].log == l {
		ps[i].pos = pos
		return ps
	}
	return slices.Insert(ps, i, logPos{l, pos})
}

// resultLen is the number of bytes appendResult writes.
func resultLen(ps positions, value []byte) int {
	return 1 + 2 + 12*len(ps) + 4 + len(value)
}

// appendResult is the one place a result is written.
func appendResult(dst []byte, st Status, ps positions, value []byte) []byte {
	dst = append(dst, byte(st))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ps)))
	for _, p := range ps {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.log))
		dst = binary.LittleEndian.AppendUint64(dst, p.pos)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	return append(dst, value...)
}

// resultView is one result read in place: ps holds the positions, twelve
// bytes (log, position) each, and Value aliases the encoded bytes, capped
// at its own length.
type resultView struct {
	Status Status
	ps     []byte
	Value  []byte
}

// parseResult is the one result parser: the client reads its view, and
// the tests materialise a Result over it.
func parseResult(buf []byte) (r resultView, err error) {
	if len(buf) < 3 {
		return r, transport.ErrShortMessage
	}
	r.Status = Status(buf[0])
	n := 12 * int(binary.LittleEndian.Uint16(buf[1:3]))
	buf = buf[3:]
	if len(buf) < n+4 {
		return r, transport.ErrShortMessage
	}
	r.ps, buf = buf[:n], buf[n:]
	vn := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < vn {
		return r, transport.ErrShortMessage
	}
	if vn > 0 {
		r.Value = buf[:vn:vn]
	}
	return r, nil
}

// numPositions is the number of logs the result names.
func (r resultView) numPositions() int { return len(r.ps) / 12 }

// positionAt is the i-th log the result names and its position.
func (r resultView) positionAt(i int) (LogID, uint64) {
	p := r.ps[12*i:]
	return LogID(binary.LittleEndian.Uint32(p)), binary.LittleEndian.Uint64(p[4:])
}

// position is l's position, if the result names l.
func (r resultView) position(l LogID) (uint64, bool) {
	for i := 0; i < r.numPositions(); i++ {
		if pl, pos := r.positionAt(i); pl == l {
			return pos, true
		}
	}
	return 0, false
}

// logState is one hosted log's in-memory state.
type logState struct {
	base    uint64   // lowest retained position
	next    uint64   // next append position
	entries [][]byte // entries[i] holds position base+i
}

// SM is the dLog state machine for one server, hosting a set of logs. It
// implements smr.StateMachine.
type SM struct {
	mu     sync.Mutex
	hosted map[LogID]*logState

	// slab and replies are the unused rests of the blocks stored entries
	// and replies are cut from: one allocation per block, not one per
	// entry or reply. A block is only ever cut forward, so an entry or a
	// reply never changes once written, and whoever holds one (a capture,
	// a dedup window, the transport) may keep it as long as it likes. The
	// collector frees a block once nothing refers to any part of it.
	slab    []byte
	replies []byte
	// out is ExecuteBatch's result slice, reused from call to call.
	out [][]byte
}

// SMConfig configures a dLog state machine.
type SMConfig struct {
	// Hosted lists the logs this server replicates.
	Hosted []LogID
}

// NewSM builds a dLog state machine.
func NewSM(cfg SMConfig) *SM {
	sm := &SM{hosted: make(map[LogID]*logState, len(cfg.Hosted))}
	for _, l := range cfg.Hosted {
		sm.hosted[l] = &logState{}
	}
	return sm
}

var _ smr.StateMachine = (*SM)(nil)

// ExecuteBatch applies a run of encoded operations under one lock
// acquisition (batch-at-a-time delivery's entry point). The returned slice
// is reused by the next call; the replies in it are not.
//
//lint:deterministic
func (s *SM) ExecuteBatch(_ []transport.RingID, ops [][]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = s.out[:0]
	for _, raw := range ops {
		s.out = append(s.out, s.apply(raw))
	}
	return s.out
}

// Entries are cut from entrySlab blocks and replies from replySlab blocks
// (bufpool.Cut).
const (
	entrySlab = 64 << 10
	replySlab = 4 << 10
)

// result writes a reply into bytes of its own, cut from the reply block.
// Callers hold s.mu.
func (s *SM) result(st Status, ps positions, value []byte) []byte {
	return appendResult(bufpool.Cut(&s.replies, replySlab, resultLen(ps, value))[:0], st, ps, value)
}

// keep returns the stored copy of an appended value, cut from the entry
// slab and, like every entry, capped at its length. An empty value is kept
// as nil whatever the slab holds, so that every replica stores the same
// thing. Callers hold s.mu.
func (s *SM) keep(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	e := bufpool.Cut(&s.slab, entrySlab, len(v))
	copy(e, v)
	return e
}

// apply executes one encoded operation, read in place, and returns its
// encoded result.
func (s *SM) apply(raw []byte) []byte {
	op, ok := parseOp(raw)
	if !ok {
		return s.result(StatusBadRequest, nil, nil)
	}
	switch op.Kind {
	case OpAppend:
		ls, ok := s.hosted[op.Log]
		if !ok {
			return s.result(StatusNotFound, nil, nil)
		}
		return s.result(StatusOK, positions{{op.Log, s.append(ls, op.Value)}}, nil)
	case OpMultiAppend:
		// Apply to the subset of addressed logs hosted here; other
		// partitions' servers handle theirs (same global order). A command
		// names a few logs: their positions are ordered on the stack.
		var few [8]logPos
		ps := positions(few[:0])
		for i := 0; i < len(op.logs)/4; i++ {
			l := op.logAt(i)
			if ls, ok := s.hosted[l]; ok {
				ps = ps.with(l, s.append(ls, op.Value))
			}
		}
		if len(ps) == 0 {
			return s.result(StatusNotFound, nil, nil)
		}
		return s.result(StatusOK, ps, nil)
	case OpRead:
		ls, ok := s.hosted[op.Log]
		if !ok || op.Pos < ls.base || op.Pos >= ls.next {
			return s.result(StatusNotFound, nil, nil)
		}
		return s.result(StatusOK, nil, ls.entries[op.Pos-ls.base])
	case OpTrim:
		ls, ok := s.hosted[op.Log]
		if !ok {
			return s.result(StatusNotFound, nil, nil)
		}
		if op.Pos > ls.next {
			op.Pos = ls.next
		}
		if op.Pos > ls.base {
			// Drop the references too, so the collector can free
			// trimmed entries before the index array is regrown.
			k := op.Pos - ls.base
			clear(ls.entries[:k])
			ls.entries = ls.entries[k:]
			ls.base = op.Pos
		}
		return s.result(StatusOK, positions{{op.Log, ls.base}}, nil)
	default:
		return s.result(StatusBadRequest, nil, nil)
	}
}

// append stores one entry — the state machine's one copy of v, cut from
// the entry slab — and returns its position.
func (s *SM) append(ls *logState, v []byte) uint64 {
	ls.entries = append(ls.entries, s.keep(v))
	ls.next++
	return ls.next - 1
}

// LenOf reports retained entries of a log (instrumentation).
//
//lint:allow testonly TestDLogServersConverge (cluster) and TestSMAppendReadTrim count retained entries with it
func (s *SM) LenOf(l LogID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls, ok := s.hosted[l]; ok {
		return int(ls.next - ls.base)
	}
	return 0
}

// logSnapshot is one hosted log's captured view. The entries slice header
// array is copied at capture time, but the entry byte slices themselves
// are shared: an appended entry is never mutated afterwards (trim only
// drops references from the live state), so the capture stays a faithful
// point-in-time image while the live log keeps moving.
type logSnapshot struct {
	log     LogID
	base    uint64
	next    uint64
	entries [][]byte
}

// smSnapshot adapts a captured set of logs, in ascending log id, to
// smr.StateSnapshot.
type smSnapshot []logSnapshot

// CaptureSnapshot captures every hosted log with O(entries) pointer copies
// — no entry bytes are touched, so capture cost is independent of log data
// volume.
func (s *SM) CaptureSnapshot() smr.StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := make(smSnapshot, 0, len(s.hosted))
	for l, ls := range s.hosted {
		snap = append(snap, logSnapshot{log: l, base: ls.base, next: ls.next, entries: slices.Clone(ls.entries)})
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].log < snap[j].log })
	return snap
}

// Serialize encodes the captured logs in ascending log-id order, so
// identical states serialize to identical (checksummable) bytes.
func (sn smSnapshot) Serialize() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(sn)))
	for _, ls := range sn {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ls.log))
		buf = binary.LittleEndian.AppendUint64(buf, ls.base)
		buf = binary.LittleEndian.AppendUint64(buf, ls.next)
		for _, e := range ls.entries {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
			buf = append(buf, e...)
		}
	}
	return buf
}

// Restore replaces state with a snapshot. Entries are cut from the entry
// slab, as appends are. Nothing is sized from a count the snapshot claims:
// more logs or entries than its bytes can hold, a log whose next position
// lies below its base and a log named twice are all ErrCorrupt.
func (s *SM) Restore(snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(snap) < 4 {
		return recovery.ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(snap[:4])
	snap = snap[4:]
	if uint64(n) > uint64(len(snap)/20) {
		return recovery.ErrCorrupt
	}
	hosted := make(map[LogID]*logState)
	for ; n > 0; n-- {
		if len(snap) < 20 {
			return recovery.ErrCorrupt
		}
		l := LogID(binary.LittleEndian.Uint32(snap[:4]))
		ls := &logState{
			base: binary.LittleEndian.Uint64(snap[4:12]),
			next: binary.LittleEndian.Uint64(snap[12:20]),
		}
		snap = snap[20:]
		if ls.next < ls.base || ls.next-ls.base > uint64(len(snap)/4) || hosted[l] != nil {
			return recovery.ErrCorrupt
		}
		for pos := ls.base; pos < ls.next; pos++ {
			if len(snap) < 4 {
				return recovery.ErrCorrupt
			}
			vn := uint64(binary.LittleEndian.Uint32(snap[:4]))
			snap = snap[4:]
			if uint64(len(snap)) < vn {
				return recovery.ErrCorrupt
			}
			ls.entries = append(ls.entries, s.keep(snap[:vn]))
			snap = snap[vn:]
		}
		hosted[l] = ls
	}
	s.hosted = hosted
	return nil
}

// Client is the dLog client API (Table 2).
type Client struct {
	cl *smr.Client
	// Global is the group all log servers subscribe to, for
	// multi-append. Zero disables multi-append.
	Global transport.RingID
	// Timeout per operation.
	Timeout time.Duration
	// Partitions is the number of distinct partitions hosting logs;
	// MultiAppend waits for one response per involved partition. Zero
	// means one partition per log.
	Partitions int
}

// NewClient builds a dLog client.
func NewClient(cl *smr.Client, global transport.RingID) *Client {
	return &Client{cl: cl, Global: global, Timeout: 10 * time.Second}
}

// groupOf maps a log to its multicast group (1:1 by convention).
func groupOf(l LogID) transport.RingID { return transport.RingID(l) }

// Append appends v to log l and returns the assigned position, read from
// the reply in place.
func (c *Client) Append(l LogID, v []byte) (uint64, error) {
	op := Op{Kind: OpAppend, Log: l, Value: v}
	resp, err := c.cl.SubmitOne(groupOf(l), op.Request(), c.Timeout)
	if err != nil {
		return 0, err
	}
	res, err := parseResult(resp)
	if err != nil {
		return 0, err
	}
	if res.Status != StatusOK {
		return 0, fmt.Errorf("dlog: append to %d: status %d", l, res.Status)
	}
	pos, ok := res.position(l)
	if !ok {
		return 0, fmt.Errorf("dlog: append to %d: the reply names no position for it", l)
	}
	return pos, nil
}

// MultiAppend appends v to every log in logs atomically and returns the
// positions per log. Requires a global group and one response from every
// involved partition; it assumes each log lives on its own partition (use
// MultiAppendN when one server hosts several of the logs).
func (c *Client) MultiAppend(logs []LogID, v []byte) (map[LogID]uint64, error) {
	want := len(logs)
	if c.Partitions > 0 && c.Partitions < want {
		want = c.Partitions
	}
	return c.MultiAppendN(logs, v, want)
}

// MultiAppendN is MultiAppend with an explicit count of distinct partitions
// hosting the logs (responses are counted per partition).
func (c *Client) MultiAppendN(logs []LogID, v []byte, wantPartitions int) (map[LogID]uint64, error) {
	if c.Global == 0 {
		return nil, fmt.Errorf("dlog: multi-append requires a global group")
	}
	op := Op{Kind: OpMultiAppend, Logs: logs, Value: v}
	var buf [4][]byte // room for every reply of a multi-append up to four partitions
	resps, err := c.cl.Submit(buf[:0], []transport.RingID{c.Global}, op.Request(), nil, wantPartitions, c.Timeout)
	if err != nil {
		return nil, err
	}
	out := make(map[LogID]uint64, len(logs))
	for _, raw := range resps {
		res, err := parseResult(raw)
		if err != nil {
			return nil, err
		}
		if res.Status != StatusOK {
			continue
		}
		for i := 0; i < res.numPositions(); i++ {
			l, p := res.positionAt(i)
			out[l] = p
		}
	}
	if len(out) != len(logs) {
		return out, fmt.Errorf("dlog: multi-append reached %d/%d logs", len(out), len(logs))
	}
	return out, nil
}

// Read returns the value at position p in log l: a view of the client's
// own copy of the reply, capped at the value's length.
func (c *Client) Read(l LogID, p uint64) ([]byte, error) {
	op := Op{Kind: OpRead, Log: l, Pos: p}
	resp, err := c.cl.SubmitOne(groupOf(l), op.Request(), c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := parseResult(resp)
	if err != nil {
		return nil, err
	}
	if res.Status != StatusOK {
		return nil, fmt.Errorf("dlog: read %d@%d: status %d", l, p, res.Status)
	}
	return res.Value, nil
}

// Trim discards entries of log l below position p.
func (c *Client) Trim(l LogID, p uint64) error {
	op := Op{Kind: OpTrim, Log: l, Pos: p}
	resp, err := c.cl.SubmitOne(groupOf(l), op.Request(), c.Timeout)
	if err != nil {
		return err
	}
	res, err := parseResult(resp)
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("dlog: trim %d@%d: status %d", l, p, res.Status)
	}
	return nil
}
