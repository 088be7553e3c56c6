package dlog

import (
	"fmt"
	"sync"

	"amcast/internal/smr"
	"amcast/internal/transport"
)

// SM implements smr.ConflictExecutor: operations conflict on the log id
// they touch, so appends and reads against distinct logs execute in
// parallel. Trims are barriers — they move the shared disk-trim
// watermark, which spans every hosted log.
//
// Position determinism: runs within a segment are log-disjoint and trims
// are barriers, so a log's next-append position cannot move between the
// staging snapshot and the run's commit. The positions predicted while
// staging are therefore exactly the positions the commit assigns, and
// responses are byte-identical to sequential execution.
var _ smr.ConflictExecutor = (*SM)(nil)

// ConflictKeys reports the log ids raw touches, or barrier=true for
// trims and undecodable input.
func (s *SM) ConflictKeys(raw []byte, dst []uint64) ([]uint64, bool) {
	op, err := DecodeOp(raw)
	if err != nil {
		return dst, true
	}
	switch op.Kind {
	case OpAppend, OpRead:
		return append(dst, uint64(op.Log)), false
	case OpMultiAppend:
		for _, l := range op.Logs {
			dst = append(dst, uint64(l))
		}
		return dst, false
	default:
		return dst, true
	}
}

// stagedLog is one log's view within a staged run: a [base, snapNext)
// prefix served from live state (safe — no other run touches this log)
// plus this run's own staged appends at [snapNext, next).
type stagedLog struct {
	ls       *logState
	base     uint64
	snapNext uint64
	next     uint64
	staged   [][]byte
}

func (sl *stagedLog) stageAppend(v []byte) uint64 {
	pos := sl.next
	sl.next++
	sl.staged = append(sl.staged, v)
	return pos
}

// dlogStaged is one conflict-free run's staging state.
type dlogStaged struct {
	sm      *SM
	logs    map[LogID]*stagedLog
	appends []Op // append ops to replay, in run order, at commit
}

var dlogStagedPool = sync.Pool{
	New: func() any { return &dlogStaged{logs: make(map[LogID]*stagedLog)} },
}

// StageRun executes one conflict-free run, filling out positionally.
// Safe concurrently with other StageRun calls: each run reads only its
// own logs' state (plus the internally synchronized disk).
func (s *SM) StageRun(_ []transport.RingID, ops [][]byte, out [][]byte) any {
	st := dlogStagedPool.Get().(*dlogStaged)
	st.sm = s
	for i, raw := range ops {
		op, err := DecodeOp(raw)
		if err != nil {
			out[i] = encodeResult(StatusBadRequest, nil, nil)
			continue
		}
		out[i] = st.apply(op)
	}
	return st
}

// CommitRun replays the staged appends against live state. Called
// sequentially in run order on the apply goroutine; the replay assigns
// the same positions staging predicted (see the type comment).
func (s *SM) CommitRun(effects any) {
	st := effects.(*dlogStaged)
	s.mu.Lock()
	for _, op := range st.appends {
		switch op.Kind {
		case OpAppend:
			if ls, ok := s.hosted[op.Log]; ok {
				s.append(op.Log, ls, op.Value)
			}
		case OpMultiAppend:
			for _, l := range op.Logs {
				if ls, ok := s.hosted[l]; ok {
					s.append(l, ls, op.Value)
				}
			}
		}
	}
	s.mu.Unlock()
	st.release()
}

func (st *dlogStaged) release() {
	for i := range st.appends {
		st.appends[i] = Op{}
	}
	st.appends = st.appends[:0]
	clear(st.logs)
	st.sm = nil
	dlogStagedPool.Put(st)
}

// logOf resolves a hosted log, capturing its bounds under the lock on
// first touch. Trims are barriers, so the captured base cannot move
// while this run is staged.
func (st *dlogStaged) logOf(l LogID) (*stagedLog, bool) {
	if sl, ok := st.logs[l]; ok {
		return sl, true
	}
	s := st.sm
	s.mu.Lock()
	ls, ok := s.hosted[l]
	var base, next uint64
	if ok {
		base, next = ls.base, ls.next
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	sl := &stagedLog{ls: ls, base: base, snapNext: next, next: next}
	st.logs[l] = sl
	return sl, true
}

// apply mirrors SM.apply for the stageable kinds (ConflictKeys keeps
// trims out of staged runs). A staged value aliases the delivered
// operation until CommitRun, inside the same Apply call, stores its copy.
func (st *dlogStaged) apply(op Op) []byte {
	switch op.Kind {
	case OpAppend:
		sl, ok := st.logOf(op.Log)
		if !ok {
			return encodeResult(StatusNotFound, nil, nil)
		}
		pos := sl.stageAppend(op.Value)
		st.appends = append(st.appends, op)
		return encodeResult(StatusOK, positions{{op.Log, pos}}, nil)
	case OpMultiAppend:
		var few [8]logPos
		ps := positions(few[:0])
		for _, l := range op.Logs {
			if sl, ok := st.logOf(l); ok {
				ps = ps.with(l, sl.stageAppend(op.Value))
			}
		}
		if len(ps) == 0 {
			return encodeResult(StatusNotFound, nil, nil)
		}
		st.appends = append(st.appends, op)
		return encodeResult(StatusOK, ps, nil)
	case OpRead:
		sl, ok := st.logOf(op.Log)
		if !ok || op.Pos < sl.base || op.Pos >= sl.next {
			return encodeResult(StatusNotFound, nil, nil)
		}
		var v []byte
		if op.Pos >= sl.snapNext {
			v = sl.staged[op.Pos-sl.snapNext]
		} else {
			v = sl.ls.entries[op.Pos-sl.base]
			if v == nil && st.sm.disk != nil {
				if rec, ok := st.sm.disk.Get(diskKey(op.Log, op.Pos)); ok {
					v = rec
				}
			}
		}
		if v == nil {
			return encodeResult(StatusNotFound, nil, nil)
		}
		return encodeResult(StatusOK, nil, v)
	default:
		return encodeResult(StatusBadRequest, nil, nil)
	}
}

// Local reads: position reads need no multicast round.
var _ smr.LocalReader = (*SM)(nil)

// AppendLocalRead serves an OpRead against current state, appending the
// encoded result to dst. Called with the replica's apply gate held in
// read mode (a batch-boundary state).
func (s *SM) AppendLocalRead(dst []byte, _ transport.RingID, raw []byte) ([]byte, bool) {
	op, err := DecodeOp(raw)
	if err != nil || op.Kind != OpRead {
		return dst, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.apply(op)...), true
}

// ReadLocalAt reads position p of log l from one explicit server via the
// read-index path: the server answers once its applied state covers
// everything this client has observed, without a multicast round.
func (c *Client) ReadLocalAt(target transport.ProcessID, l LogID, p uint64) ([]byte, error) {
	op := Op{Kind: OpRead, Log: l, Pos: p}
	raw, err := c.cl.LocalRead(target, groupOf(l), op.Encode(), smr.ReadIndex, 0, c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(raw)
	if err != nil {
		return nil, err
	}
	if res.Status != StatusOK {
		return nil, fmt.Errorf("dlog: local read %d@%d: status %d", l, p, res.Status)
	}
	return res.Value, nil
}
