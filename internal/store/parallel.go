package store

import (
	"sync"

	"amcast/internal/smr"
	"amcast/internal/transport"
)

// SM implements smr.ConflictExecutor: point operations conflict on their
// key's hash token, range scans and splits are barriers. The staged-run
// machinery mirrors apply() exactly over an immutable treap snapshot
// plus a private write overlay, so parallel execution is byte-identical
// to sequential — responses, final tree contents, and checkpoints all
// serialize in key order, which erases the only divergence parallel
// commit order could introduce (treap priorities being consumed in a
// different key order).
var _ smr.ConflictExecutor = (*SM)(nil)

// keyToken hashes a key to a conflict token (FNV-1a). A collision
// between distinct keys merely merges their runs — conservative, never
// incorrect.
func keyToken(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// ConflictKeys reports op's conflict tokens, or barrier=true for
// operations that may touch arbitrary keys (scans, splits, undecodable
// input): those fall back to sequential execution against full state.
func (s *SM) ConflictKeys(raw []byte, dst []uint64) ([]uint64, bool) {
	op, err := DecodeOp(raw)
	if err != nil {
		return dst, true
	}
	return opTokens(op, dst)
}

func opTokens(op Op, dst []uint64) ([]uint64, bool) {
	switch op.Kind {
	case OpRead, OpUpdate, OpInsert, OpDelete:
		return append(dst, keyToken(op.Key)), false
	case OpBatch:
		var barrier bool
		for _, sub := range op.Batch {
			if dst, barrier = opTokens(sub, dst); barrier {
				return dst, true
			}
		}
		return dst, false
	default:
		// OpScan reads a key range, OpSplit rewrites ownership, and an
		// unknown kind is unknowable: all barriers.
		return dst, true
	}
}

// stagedWrite is one key's final staged mutation within a run.
type stagedWrite struct {
	key   string
	value []byte
	del   bool
}

// stagedRun is the staging state of one conflict-free run: reads see the
// captured base snapshot below the run's own writes (read-your-writes),
// writes accumulate as the per-key latest mutation for CommitRun.
type stagedRun struct {
	base    treapSnapshot
	bounded bool
	lo, hi  string

	writes  []stagedWrite
	overlay map[string]int // key → index into writes (latest wins)
}

var stagedRunPool = sync.Pool{
	New: func() any { return &stagedRun{overlay: make(map[string]int)} },
}

// StageRun executes one conflict-free run against a snapshot + overlay,
// filling out positionally. Safe concurrently with other StageRun calls
// and with CommitRun: the snapshot is immutable (captured under mu, which
// bumps the treap's epoch, so later commits copy what it holds before
// writing) and the overlay is private.
//
//lint:deterministic
func (s *SM) StageRun(_ []transport.RingID, ops [][]byte, out [][]byte) any {
	s.mu.Lock()
	st := stagedRunPool.Get().(*stagedRun)
	st.base = s.db.snapshot()
	st.bounded, st.lo, st.hi = s.bounded, s.lo, s.hi
	s.mu.Unlock()
	for i, raw := range ops {
		op, err := DecodeOp(raw)
		if err != nil {
			out[i] = encodeResult(Result{Status: StatusBadRequest})
			continue
		}
		out[i] = encodeResult(st.apply(op))
	}
	return st
}

// CommitRun applies a staged run's writes to the live tree. Called
// sequentially in run order; runs are key-disjoint, so the final tree
// contents cannot depend on the order anyway.
//
//lint:deterministic
func (s *SM) CommitRun(effects any) {
	st := effects.(*stagedRun)
	s.mu.Lock()
	for _, w := range st.writes {
		if w.del {
			s.db.Delete(w.key)
		} else {
			s.db.Put(w.key, w.value)
		}
	}
	s.mu.Unlock()
	st.release()
}

func (st *stagedRun) release() {
	for i := range st.writes {
		st.writes[i] = stagedWrite{}
	}
	st.writes = st.writes[:0]
	clear(st.overlay)
	st.base = treapSnapshot{}
	stagedRunPool.Put(st)
}

// owns mirrors SM.owns over the captured bounds (splits are barriers, so
// bounds cannot change mid-segment).
func (st *stagedRun) owns(key string) bool {
	if !st.bounded {
		return true
	}
	return key >= st.lo && (st.hi == "" || key < st.hi)
}

// get reads through the overlay first (read-your-writes), then the base.
func (st *stagedRun) get(key string) ([]byte, bool) {
	if i, ok := st.overlay[key]; ok {
		w := st.writes[i]
		if w.del {
			return nil, false
		}
		return w.value, true
	}
	return st.base.Get(key)
}

func (st *stagedRun) put(key string, value []byte) {
	if i, ok := st.overlay[key]; ok {
		st.writes[i] = stagedWrite{key: key, value: value}
		return
	}
	st.overlay[key] = len(st.writes)
	st.writes = append(st.writes, stagedWrite{key: key, value: value})
}

// del stages a delete, reporting whether the key existed. Deleting an
// absent key stages nothing (matching the live tree's no-op).
func (st *stagedRun) del(key string) bool {
	if i, ok := st.overlay[key]; ok {
		existed := !st.writes[i].del
		st.writes[i] = stagedWrite{key: key, del: true}
		return existed
	}
	if _, ok := st.base.Get(key); !ok {
		return false
	}
	st.overlay[key] = len(st.writes)
	st.writes = append(st.writes, stagedWrite{key: key, del: true})
	return true
}

// apply mirrors SM.apply for the stageable kinds; ConflictKeys keeps
// scans, splits and undecodable ops out of staged runs (barriers), so
// reaching default here means a ConflictKeys/StageRun mismatch.
func (st *stagedRun) apply(op Op) Result {
	switch op.Kind {
	case OpRead:
		if !st.owns(op.Key) {
			return Result{Status: StatusWrongPartition}
		}
		if v, ok := st.get(op.Key); ok {
			return Result{Status: StatusOK, Entries: []Entry{{Key: op.Key, Value: append([]byte(nil), v...)}}}
		}
		return Result{Status: StatusNotFound}
	case OpUpdate:
		if !st.owns(op.Key) {
			return Result{Status: StatusWrongPartition}
		}
		if _, ok := st.get(op.Key); !ok {
			return Result{Status: StatusNotFound}
		}
		st.put(op.Key, append([]byte(nil), op.Value...))
		return Result{Status: StatusOK}
	case OpInsert:
		if !st.owns(op.Key) {
			return Result{Status: StatusWrongPartition}
		}
		if _, ok := st.get(op.Key); ok {
			return Result{Status: StatusExists}
		}
		st.put(op.Key, append([]byte(nil), op.Value...))
		return Result{Status: StatusOK}
	case OpDelete:
		if !st.owns(op.Key) {
			return Result{Status: StatusWrongPartition}
		}
		if st.del(op.Key) {
			return Result{Status: StatusOK}
		}
		return Result{Status: StatusNotFound}
	case OpBatch:
		res := Result{Status: StatusOK}
		for _, sub := range op.Batch {
			res.Results = append(res.Results, st.apply(sub))
		}
		return res
	default:
		return Result{Status: StatusBadRequest}
	}
}
