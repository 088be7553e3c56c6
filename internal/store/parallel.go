package store

import (
	"sync"

	"amcast/internal/smr"
	"amcast/internal/transport"
)

// SM implements smr.ConflictExecutor: point operations conflict on their
// key's hash token, range scans and splits are barriers. A staged run
// executes through the same apply() as the live tree, against an immutable
// treap snapshot plus a private write overlay, so parallel execution is
// byte-identical to sequential — responses, final tree contents, and
// checkpoints all serialize in key order, which erases the only divergence
// parallel commit order could introduce (treap priorities being consumed
// in a different key order).
var _ smr.ConflictExecutor = (*SM)(nil)

// keyToken hashes a key to a conflict token (FNV-1a). A collision
// between distinct keys merely merges their runs — conservative, never
// incorrect.
func keyToken(k []byte) uint64 {
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
	v, subs, ok := parseRequest(raw)
	if !ok {
		return dst, true
	}
	dst, _, barrier := opTokens(v, subs, dst)
	return dst, barrier
}

// opTokens appends the tokens of v, whose sub-operations lie at the head of
// subs, and returns what follows them.
func opTokens(v opView, subs []byte, dst []uint64) (tokens []uint64, rest []byte, barrier bool) {
	switch v.Kind {
	case OpRead, OpUpdate, OpInsert, OpDelete:
		rest, _ = skipOps(subs, v.n)
		return append(dst, keyToken(v.Key)), rest, false
	case OpBatch:
		for i := 0; i < v.n && !barrier; i++ {
			sub, r, _ := parseOp(subs)
			dst, subs, barrier = opTokens(sub, r, dst)
		}
		return dst, subs, barrier
	default:
		// OpScan reads a key range, OpSplit rewrites ownership, and an
		// unknown kind is unknowable: all barriers.
		return dst, nil, true
	}
}

// stagedWrite is one key's final staged mutation within a run. key is the
// overlay's own copy.
type stagedWrite struct {
	key   string
	value []byte
	del   bool
}

// stagedRun is the staging state of one conflict-free run: reads see the
// captured base snapshot below the run's own writes (read-your-writes),
// writes accumulate as the per-key latest mutation for CommitRun. Splits
// are barriers, so the captured bounds cannot change mid-segment.
type stagedRun struct {
	base treapSnapshot
	keyRange

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
// writing) and the overlay is private. ConflictKeys keeps scans, splits
// and undecodable operations out of staged runs, so one that got here
// regardless answers StatusBadRequest.
//
//lint:deterministic
func (s *SM) StageRun(_ []transport.RingID, ops [][]byte, out [][]byte) any {
	s.mu.Lock()
	st := stagedRunPool.Get().(*stagedRun)
	st.base = s.db.snapshot()
	st.keyRange = s.keyRange
	s.mu.Unlock()
	for i, raw := range ops {
		out[i] = execute(st, raw)
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
			s.db.Delete([]byte(w.key))
		} else {
			s.db.Put([]byte(w.key), w.value)
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

// get reads through the overlay first (read-your-writes), then the base.
func (st *stagedRun) get(key []byte) ([]byte, bool) {
	if i, ok := st.overlay[string(key)]; ok {
		w := st.writes[i]
		return w.value, !w.del
	}
	return st.base.Get(key)
}

func (st *stagedRun) put(key, value []byte) { st.stage(key, value, false) }
func (st *stagedRun) del(key []byte)        { st.stage(key, nil, true) }

// stage records key's latest mutation, under a copy of key the first time.
func (st *stagedRun) stage(key, value []byte, del bool) {
	if i, ok := st.overlay[string(key)]; ok {
		st.writes[i].value, st.writes[i].del = value, del
		return
	}
	k := string(key)
	st.overlay[k] = len(st.writes)
	st.writes = append(st.writes, stagedWrite{key: k, value: value, del: del})
}
