package store

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/metrics"
	"amcast/internal/smr"
	"amcast/internal/transport"
)

// SM is the MRP-Store replicated state machine: a sorted in-memory
// database applying Table 1 operations. It implements smr.StateMachine;
// all methods are called from the replica's single delivery goroutine, but
// a mutex still guards the tree because benchmarks read sizes concurrently.
//
// When an owned key range is configured (range-partitioned schemas), the
// SM enforces ownership: operations on keys outside [lo, hi) return
// StatusWrongPartition instead of executing, so a replica whose partition
// shrank in a split never serves stale state to clients holding an
// out-of-date schema. OpSplit markers shrink the range online, split the
// tree in O(log n) and stash the outgoing half for the controller's
// range transfer.
type SM struct {
	mu sync.Mutex
	db *btree

	keyRange // the owned range

	out [][]byte // ExecuteBatch's results, reused from call to call
	// replies is the unused rest of the block read replies are cut from
	// (bufpool.Cut): one allocation per replySlab bytes of replies, not
	// one per read.
	replies []byte

	// holds are the captures not yet serialized, oldest first; the tree
	// shares with them whatever is below its floor (see prune).
	holds []*hold

	// stash holds the split-off key ranges until the reconfig controller
	// has streamed them to the new partition, oldest first. At most the
	// two newest are retained (current split + one predecessor), so a lost
	// post-commit release pins a range only until the next split instead
	// of forever — every retained stash rides in checkpoints, in this
	// order, until released. The newest split's entry is the one whose lo
	// is the owned hi: a retried marker re-keys it (see applySplit). No
	// two entries share an id (see stashOutgoing).
	stash []outgoingRange

	splitStall metrics.Gauge // longest OpSplit execution (ns)
}

// keyRange is an owned key range [lo, hi); hi == "" means unbounded above.
// bounded is false for hash-partitioned schemas (no ownership enforcement).
type keyRange struct {
	bounded bool
	lo, hi  string
}

// owns reports whether the range holds key.
func (r *keyRange) owns(key []byte) bool {
	return !r.bounded || string(key) >= r.lo && (r.hi == "" || string(key) < r.hi)
}

// hold is a capture's claim on the structure it shares with the live tree:
// nodes and values of epoch at most epoch, which the tree must not write
// in place until released is set.
type hold struct {
	epoch    uint64
	released atomic.Bool // set by Serialize as its last step
}

// prune drops the released holds and sets the tree's floor to 1 + the
// newest epoch a remaining one holds, or to 0 when none remains, so the
// live tree writes in place again what only released captures shared.
// Callers hold mu.
func (s *SM) prune() {
	live := s.holds[:0]
	for _, h := range s.holds {
		if !h.released.Load() {
			live = append(live, h)
		}
	}
	clear(s.holds[len(live):])
	s.holds = live
	s.db.floor = 0
	if len(live) > 0 {
		s.db.floor = live[len(live)-1].epoch + 1
	}
}

// outgoingRange is a captured, immutable key range awaiting transfer under
// the id of the split marker that last stashed it.
type outgoingRange struct {
	id     uint64
	snap   btreeSnapshot
	lo, hi string
}

// NewSM returns an empty database state machine.
func NewSM() *SM {
	return &SM{db: newBTree()}
}

// SetOwnedRange configures ownership enforcement: operations on keys
// outside [lo, hi) return StatusWrongPartition. Call before the replica
// starts executing; a restored snapshot that carries bounds overrides it.
func (s *SM) SetOwnedRange(lo, hi string) {
	s.mu.Lock()
	s.bounded, s.lo, s.hi = true, lo, hi
	s.mu.Unlock()
}

// OwnedRange reports the enforced range (ok=false when unbounded).
//
//lint:allow testonly TestLiveScaleOutSplit (reconfig) checks each partition's range after the split
func (s *SM) OwnedRange() (lo, hi string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lo, s.hi, s.bounded
}

// SplitStallMax reports the longest an OpSplit stalled execution — the
// split touches only the nodes on its path, so this stays microseconds no
// matter how many keys move.
//
//lint:allow testonly TestLiveScaleOutSplit (reconfig) bounds the split's stall with it
func (s *SM) SplitStallMax() time.Duration {
	return time.Duration(s.splitStall.Load())
}

// OutgoingRange serializes a stashed split-off range (with its bounds, so
// the receiving partition restores ownership along with the data). It
// runs off the delivery path: the stash is an immutable snapshot, which
// the live tree cannot reach, so the view holds nothing.
func (s *SM) OutgoingRange(id uint64) ([]byte, bool) {
	s.mu.Lock()
	i := s.stashed(id)
	var out outgoingRange
	if i >= 0 {
		out = s.stash[i]
	}
	s.mu.Unlock()
	if i < 0 {
		return nil, false
	}
	return dbSnapshot{db: out.snap, bounded: true, lo: out.lo, hi: out.hi}.Serialize(), true
}

// stashed returns the index of the stash entry with id, or -1. Callers
// hold mu.
func (s *SM) stashed(id uint64) int {
	for i := range s.stash {
		if s.stash[i].id == id {
			return i
		}
	}
	return -1
}

// stashOutgoing appends a captured range as the newest stash entry and
// enforces the retention cap. An entry already under its id goes first:
// a restarted controller mints its split ids again, and the controller's
// fetch and release of that id must reach the newest range. Callers hold
// mu.
func (s *SM) stashOutgoing(out outgoingRange) {
	if i := s.stashed(out.id); i >= 0 {
		s.stash = slices.Delete(s.stash, i, i+1)
	}
	s.stash = append(s.stash, out)
	if n := len(s.stash); n > 2 {
		s.stash = slices.Delete(s.stash, 0, n-2)
	}
}

// ReleaseOutgoing drops a stashed range once its transfer completed
// (including a retried split's — a committed split can no longer need it).
func (s *SM) ReleaseOutgoing(id uint64) {
	s.mu.Lock()
	if i := s.stashed(id); i >= 0 {
		s.stash = slices.Delete(s.stash, i, i+1)
	}
	s.mu.Unlock()
}

var _ smr.StateMachine = (*SM)(nil)

// Execute applies one encoded operation. Like ExecuteBatch, it first lets
// the tree write in place again what serialized captures shared.
//
//lint:deterministic
func (s *SM) Execute(_ transport.RingID, raw []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holds) > 0 {
		s.prune()
	}
	return s.execute(raw)
}

// ExecuteBatch applies a run of encoded operations under one lock
// acquisition (batch-at-a-time delivery's entry point). The returned slice
// is reused by the next call; the results in it are not.
//
//lint:deterministic
func (s *SM) ExecuteBatch(_ []transport.RingID, ops [][]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holds) > 0 {
		s.prune()
	}
	s.out = s.out[:0]
	for _, raw := range ops {
		s.out = append(s.out, s.execute(raw))
	}
	return s.out
}

// replySlab is the size of the blocks read replies are cut from: a quarter
// of it, the most one block takes, holds a YCSB read's 1 KB value.
const replySlab = 64 << 10

// execute applies the encoded operation raw and returns its encoded
// Result: a buffer of its own, or the shared encoding of a bare status.
// Callers hold mu.
func (s *SM) execute(raw []byte) []byte {
	v, subs, ok := parseRequest(raw)
	if !ok {
		return statusEnc[StatusBadRequest]
	}
	res, _ := s.apply(nil, v, subs)
	return res
}

// apply executes v, whose sub-operations lie at the head of subs and were
// checked by parseRequest, and appends the encoded Result to dst — the same
// bytes Result.Encode gives, written once, from the delivered operation and
// the tree. It returns what follows v's sub-operations.
func (s *SM) apply(dst []byte, v opView, subs []byte) (out, rest []byte) {
	if v.Kind == OpBatch {
		dst = slices.Grow(dst, (1+v.n)*len(statusEnc[StatusOK]))
		dst = append(dst, byte(StatusOK), 0, 0, 0, 0)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.n))
		for i := 0; i < v.n; i++ {
			sub, r, _ := parseOp(subs)
			dst, subs = s.apply(dst, sub, r)
		}
		return dst, subs
	}
	rest, _ = skipOps(subs, v.n) // only a batch executes what it carries
	switch v.Kind {
	case OpRead, OpUpdate, OpInsert, OpDelete:
		return s.applyPoint(dst, v), rest
	case OpScan:
		return s.scan(dst, v), rest
	case OpSplit:
		return appendStatus(dst, s.applySplit(v)), rest
	}
	return appendStatus(dst, StatusBadRequest), rest
}

// applyPoint executes a single-key operation. v.Key and v.Value are views
// of the delivered operation: the tree copies a key it inserts and the
// value it stores — over the bytes it already holds for the key when the
// live tree owns them, so an update repeated between two checkpoint
// captures allocates nothing.
func (s *SM) applyPoint(dst []byte, v opView) []byte {
	if !s.owns(v.Key) {
		return appendStatus(dst, StatusWrongPartition)
	}
	val, found := s.db.Get(v.Key)
	switch {
	case found && v.Kind == OpInsert:
		return appendStatus(dst, StatusExists)
	case !found && v.Kind != OpInsert:
		return appendStatus(dst, StatusNotFound)
	case v.Kind == OpRead:
		return s.appendReadResult(dst, v.Key, val)
	case v.Kind == OpDelete:
		s.db.Delete(v.Key)
	default: // an update of what is there, an insert of what is not
		s.db.Put(v.Key, v.Value)
	}
	return appendStatus(dst, StatusOK)
}

// scan appends the entries within [v.Key, v.KeyHi]. Scans clip to the owned
// range: covering partitions each return their share, and a partition that
// shrank in a split simply contributes fewer keys (the new owner serves the
// rest).
func (s *SM) scan(dst []byte, v opView) []byte {
	dst = append(dst, byte(StatusOK), 0, 0, 0, 0)
	count, n := len(dst)-4, 0
	s.db.Range(v.Key, v.KeyHi, func(k string, val []byte) bool {
		if s.owns([]byte(k)) {
			dst = appendEntry(dst, k, val)
			n++
		}
		return true
	})
	binary.LittleEndian.PutUint32(dst[count:], uint32(n))
	return append(dst, 0, 0, 0, 0)
}

// applySplit executes the partition-split marker. In-place splits (same
// replicas host the new ring) change no state — the marker only pins the
// epoch transition's position in the merged stream. Scale-out splits cut
// the tree at the split key along one root-to-leaf path, stash the outgoing
// half for the range transfer and shrink the owned range, so every
// operation on a moved key from here on returns StatusWrongPartition.
func (s *SM) applySplit(v opView) Status {
	spec, err := DecodeSplitSpec(v.Value)
	if err != nil {
		return StatusBadRequest
	}
	if spec.InPlace {
		return StatusOK
	}
	at := string(v.Key) // kept as the new bound: a copy, not a view
	if s.hi != "" && s.hi <= at {
		// Replayed or retried marker: the range at and above this key
		// already moved out of the live tree. If this is a RETRY of the
		// last split (same key, fresh id after a failed transfer), re-key
		// its stash — the one that starts at the owned bound — under the
		// new id so the controller's fetch can succeed: those keys exist
		// nowhere else, and the failed attempt's id would otherwise pin
		// them until the cap drops them. A true replay of an older marker,
		// or any marker once the last split's stash was released, stays a
		// no-op.
		if s.hi != at {
			return StatusOK
		}
		for i, out := range s.stash {
			if out.lo == at && out.id != spec.ID {
				out.id = spec.ID
				s.stash = slices.Delete(s.stash, i, i+1)
				s.stashOutgoing(out)
				break
			}
		}
		return StatusOK
	}
	start := time.Now() //lint:allow determinism split-stall telemetry only: the duration feeds a metrics gauge, never state or serialized bytes
	s.stashOutgoing(outgoingRange{id: spec.ID, snap: s.db.splitOff(v.Key), lo: at, hi: s.hi})
	s.bounded, s.hi = true, at
	s.splitStall.SetMax(int64(time.Since(start))) //lint:allow determinism split-stall telemetry only: the duration feeds a metrics gauge, never state or serialized bytes
	return StatusOK
}

// Len reports the number of entries (instrumentation).
func (s *SM) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Len()
}

var _ smr.LocalReader = (*SM)(nil)

// AppendLocalRead serves a read-only operation (OpRead or OpScan) against
// the current database, appending the encoded result to dst. Called with
// the replica's apply gate held in read mode, so it observes a
// batch-boundary state.
func (s *SM) AppendLocalRead(dst []byte, _ transport.RingID, raw []byte) ([]byte, bool) {
	v, subs, ok := parseRequest(raw)
	if !ok || (v.Kind != OpRead && v.Kind != OpScan) {
		return dst, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, _ = s.apply(dst, v, subs)
	return dst, true
}

// ReadLocal is AppendLocalRead into a buffer of the result's own.
func (s *SM) ReadLocal(group transport.RingID, raw []byte) ([]byte, bool) {
	return s.AppendLocalRead(nil, group, raw)
}
