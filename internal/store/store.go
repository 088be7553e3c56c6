package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/trace"
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

	// outgoing stashes split-off key ranges by split id until the
	// reconfig controller has streamed them to the new partition.
	// outgoingOrder tracks stash age: at most the two newest stashes are
	// retained (current split + one predecessor), so a lost post-commit
	// release pins a range only until the next split instead of forever
	// — every retained stash rides in checkpoints until released.
	outgoing      map[uint64]outgoingRange
	outgoingOrder []uint64
	// lastSplit remembers the most recent scale-out split so a RETRIED
	// split marker (fresh id, same key, after a failed transfer) can
	// re-stash the already-captured range instead of stranding it: the
	// keys left the live tree at the first marker and exist nowhere
	// else until a transfer completes. Invalidated by ReleaseOutgoing
	// once a transfer is durable (no retry can need it after commit).
	lastSplit struct {
		id    uint64
		key   string
		out   outgoingRange
		valid bool
	}

	migrated   metrics.Counter // keys split off for migration
	splitStall metrics.Gauge   // longest OpSplit execution (ns)
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

// outgoingRange is a captured, immutable key range awaiting transfer.
type outgoingRange struct {
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
func (s *SM) OwnedRange() (lo, hi string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lo, s.hi, s.bounded
}

// MigratedKeys reports how many keys OpSplit markers have split off for
// migration (instrumentation).
func (s *SM) MigratedKeys() uint64 { return s.migrated.Load() }

// SplitStallMax reports the longest an OpSplit stalled execution — the
// split touches only the nodes on its path, so this stays microseconds no
// matter how many keys move.
func (s *SM) SplitStallMax() time.Duration {
	return time.Duration(s.splitStall.Load())
}

// OutgoingRange serializes a stashed split-off range (with its bounds, so
// the receiving partition restores ownership along with the data). It
// runs off the delivery path: the stash is an immutable snapshot, which
// the live tree cannot reach, so the view holds nothing.
func (s *SM) OutgoingRange(id uint64) ([]byte, bool) {
	s.mu.Lock()
	out, ok := s.outgoing[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return dbSnapshot{db: out.snap, bounded: true, lo: out.lo, hi: out.hi}.Serialize(), true
}

// stashOutgoing records a captured range under id and enforces the
// retention cap. Callers hold mu.
func (s *SM) stashOutgoing(id uint64, out outgoingRange) {
	if s.outgoing == nil {
		s.outgoing = make(map[uint64]outgoingRange)
	}
	s.outgoing[id] = out
	s.outgoingOrder = append(s.outgoingOrder, id)
	for len(s.outgoingOrder) > 2 {
		old := s.outgoingOrder[0]
		s.outgoingOrder = s.outgoingOrder[1:]
		delete(s.outgoing, old)
	}
}

// dropOutgoing removes a stash entry. Callers hold mu.
func (s *SM) dropOutgoing(id uint64) {
	delete(s.outgoing, id)
	for i, x := range s.outgoingOrder {
		if x == id {
			s.outgoingOrder = append(s.outgoingOrder[:i], s.outgoingOrder[i+1:]...)
			break
		}
	}
}

// ReleaseOutgoing drops a stashed range once its transfer completed
// (including the retry stash — a committed split can no longer need it).
func (s *SM) ReleaseOutgoing(id uint64) {
	s.mu.Lock()
	s.dropOutgoing(id)
	if s.lastSplit.valid && s.lastSplit.id == id {
		s.lastSplit.valid = false
		s.lastSplit.out = outgoingRange{}
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
		// last split (same key, fresh id after a failed transfer),
		// re-stash the captured range under the new id so the
		// controller's fetch can succeed — those keys exist nowhere
		// else. A true replay of an older marker stays a no-op.
		if s.hi == at && s.lastSplit.valid && s.lastSplit.key == at && s.lastSplit.id != spec.ID {
			// Re-key the stash: the failed attempt's entry would
			// otherwise pin the captured range forever.
			s.dropOutgoing(s.lastSplit.id)
			s.stashOutgoing(spec.ID, s.lastSplit.out)
			s.lastSplit.id = spec.ID
		}
		return StatusOK
	}
	start := time.Now() //lint:allow determinism split-stall telemetry only: the duration feeds a metrics gauge, never state or serialized bytes
	oldHi := s.hi
	out := s.db.splitOff(v.Key)
	rng := outgoingRange{snap: out, lo: at, hi: oldHi}
	s.stashOutgoing(spec.ID, rng)
	s.lastSplit.id, s.lastSplit.key, s.lastSplit.out, s.lastSplit.valid = spec.ID, at, rng, true
	s.bounded, s.hi = true, at
	s.migrated.Add(uint64(out.Len()))
	s.splitStall.SetMax(int64(time.Since(start))) //lint:allow determinism split-stall telemetry only: the duration feeds a metrics gauge, never state or serialized bytes
	return StatusOK
}

// Len reports the number of entries (instrumentation).
func (s *SM) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Len()
}

// SnapshotLen reports the entry count of a serialized SM snapshot
// (the count header), without decoding the entries.
func SnapshotLen(snap []byte) int {
	if len(snap) < 8 {
		return 0
	}
	return int(binary.LittleEndian.Uint64(snap[:8]))
}

// dbSnapshot adapts a captured tree version to smr.StateSnapshot. It
// carries the owned-range bounds captured with the data, so a restored
// replica enforces the post-split ownership its checkpoint was taken
// under, not whatever an out-of-date schema would suggest — and any
// in-flight outgoing split ranges: between a split marker and the
// controller's release, the moved keys exist ONLY in the stash, so a
// checkpoint that recorded the shrunken bounds without the stash would
// make a crash before the transfer completes lose the range permanently.
//
// A capture of the live tree carries its hold; a view of a stash, which
// the live tree cannot reach, carries none.
type dbSnapshot struct {
	db       btreeSnapshot
	hold     *hold
	bounded  bool
	lo, hi   string
	outgoing map[uint64]outgoingRange
}

// Serialize encodes the captured database: count(8) then length-prefixed
// pairs in key order, then (when ownership is enforced) a bounds trailer
// and the in-flight outgoing stash. Runs off the delivery path (the
// captured version is immutable until released), so serialization cost
// no longer stalls delivery.
//
// Its last step releases the capture's hold: from the next Execute or
// ExecuteBatch on, the live tree writes in place what the capture shared.
// A capture is therefore serialized once; a second Serialize panics rather
// than encode bytes the live tree may have overwritten since.
//
//lint:deterministic
func (d dbSnapshot) Serialize() []byte {
	if d.hold != nil && d.hold.released.Load() {
		panic("store: Serialize called twice on one capture; the live tree may have overwritten what it shared")
	}
	// Measure everything first, so the buffer is allocated once at its
	// final size: a checkpoint of 1 KB values would otherwise regrow it
	// about seven times.
	size := treeLen(d.db)
	var ids []uint64
	if d.bounded {
		// Emit stashes in ascending id order: identical states must
		// serialize to identical (checksummable) bytes regardless of
		// map iteration order, as with the dedup table.
		ids = make([]uint64, 0, len(d.outgoing))
		for id := range d.outgoing {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		size += 1 + 2 + len(d.lo) + 2 + len(d.hi) + 4
		for _, id := range ids {
			out := d.outgoing[id]
			size += 8 + 2 + len(out.lo) + 2 + len(out.hi) + treeLen(out.snap)
		}
	}
	buf := appendTree(make([]byte, 0, size), d.db)
	if d.bounded {
		buf = append(buf, 1)
		buf = appendString(buf, d.lo)
		buf = appendString(buf, d.hi)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			out := d.outgoing[id]
			buf = binary.LittleEndian.AppendUint64(buf, id)
			buf = appendString(buf, out.lo)
			buf = appendString(buf, out.hi)
			buf = appendTree(buf, out.snap)
		}
	}
	if d.hold != nil {
		d.hold.released.Store(true)
	}
	return buf
}

// treeLen is the number of bytes appendTree writes for s.
func treeLen(s btreeSnapshot) int {
	n := 8
	s.All(func(k string, v []byte) bool {
		n += 2 + len(k) + 4 + len(v)
		return true
	})
	return n
}

// appendTree writes s's entry count, then its length-prefixed pairs in key
// order.
func appendTree(buf []byte, s btreeSnapshot) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	s.All(func(k string, v []byte) bool {
		buf = appendEntry(buf, k, v)
		return true
	})
	return buf
}

// CaptureSnapshot captures the current database version in O(1) — the
// capture bumps the tree's epoch and holds it, so the returned view shares
// structure with the live tree but does not change until it is serialized:
// until then the live tree copies a captured node or value below its floor
// before its first write to it. The outgoing stash rides along by
// reference (its snapshots are immutable too).
func (s *SM) CaptureSnapshot() smr.StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holds) > 0 {
		s.prune() // keeps the list to the captures still unserialized
	}
	h := &hold{epoch: s.db.epoch}
	s.holds = append(s.holds, h)
	d := dbSnapshot{db: s.db.snapshot(), hold: h, bounded: s.bounded, lo: s.lo, hi: s.hi}
	if len(s.outgoing) > 0 {
		d.outgoing = make(map[uint64]outgoingRange, len(s.outgoing))
		for id, out := range s.outgoing {
			d.outgoing[id] = out
		}
	}
	return d
}

// Snapshot serializes the database: count(8) then length-prefixed pairs in
// key order (plus the bounds trailer when ownership is enforced).
func (s *SM) Snapshot() []byte {
	return s.CaptureSnapshot().Serialize()
}

// Restore replaces the database with a snapshot. A bounds trailer (written
// by post-split checkpoints and range transfers) restores ownership
// enforcement; its absence keeps whatever bounds were configured.
func (s *SM) Restore(snap []byte) error {
	if len(snap) < 8 {
		return recovery.ErrCorrupt
	}
	db, snap, ok := restoreTree(snap[8:], binary.LittleEndian.Uint64(snap))
	if !ok {
		return recovery.ErrCorrupt
	}
	bounded := false
	var lo, hi string
	var outgoing map[uint64]outgoingRange
	if len(snap) > 0 && snap[0] == 1 {
		if lo, hi, snap, ok = readBounds(snap[1:]); !ok {
			return recovery.ErrCorrupt
		}
		bounded = true
		// In-flight outgoing stash (absent in pre-reconfig snapshots):
		// rebuild each captured range so a restarted replica can still
		// serve — or retry — the transfer of keys that exist nowhere
		// else.
		if len(snap) >= 4 {
			nOut := int(binary.LittleEndian.Uint32(snap[:4]))
			snap = snap[4:]
			for j := 0; j < nOut; j++ {
				if len(snap) < 8 {
					return recovery.ErrCorrupt
				}
				id := binary.LittleEndian.Uint64(snap[:8])
				var olo, ohi string
				if olo, ohi, snap, ok = readBounds(snap[8:]); !ok || len(snap) < 8 {
					return recovery.ErrCorrupt
				}
				var rdb *btree
				if rdb, snap, ok = restoreTree(snap[8:], binary.LittleEndian.Uint64(snap)); !ok {
					return recovery.ErrCorrupt
				}
				if outgoing == nil {
					outgoing = make(map[uint64]outgoingRange)
				}
				outgoing[id] = outgoingRange{snap: rdb.snapshot(), lo: olo, hi: ohi}
			}
		}
	}
	s.mu.Lock()
	s.db = db
	// The replaced tree is never written again: captures of it may still
	// be serialized, but they hold nothing of the new one.
	clear(s.holds)
	s.holds = s.holds[:0]
	if bounded {
		s.bounded, s.lo, s.hi = true, lo, hi
		s.outgoing = outgoing
		// Ascending split ids approximate stash age (ids are minted
		// monotonically per controller) for the retention cap.
		s.outgoingOrder = s.outgoingOrder[:0]
		for id := range outgoing {
			s.outgoingOrder = append(s.outgoingOrder, id)
		}
		sort.Slice(s.outgoingOrder, func(i, j int) bool { return s.outgoingOrder[i] < s.outgoingOrder[j] })
		s.lastSplit.valid = false
		// The stash whose low bound equals the restored owned hi is the
		// most recent split at the current boundary — re-arm the retry
		// path for it.
		for id, out := range outgoing {
			if out.lo == hi {
				s.lastSplit.id, s.lastSplit.key, s.lastSplit.out, s.lastSplit.valid = id, out.lo, out, true
				break
			}
		}
	}
	s.mu.Unlock()
	return nil
}

// restoreTree bulk-loads the n key-value pairs at the head of snap, which
// must be in strictly ascending key order, into a tree. n comes from the
// snapshot and is not trusted: nothing is sized from it. A first pass
// checks and measures the pairs; then all keys are copied into one string
// and all values into one block, each value capped at its own length, so a
// restore costs one allocation per node and a few more, not three per
// entry.
func restoreTree(snap []byte, n uint64) (db *btree, rest []byte, ok bool) {
	count, keyBytes, valBytes := 0, 0, 0
	var prev []byte
	for rest = snap; n > 0; n-- {
		k, v, r, ok := readEntry(rest)
		if !ok || count > 0 && string(k) <= string(prev) {
			return nil, nil, false
		}
		count, keyBytes, valBytes, prev, rest = count+1, keyBytes+len(k), valBytes+len(v), k, r
	}
	var keys strings.Builder
	keys.Grow(keyBytes)
	for p, i := snap, 0; i < count; i++ {
		k, _, r, _ := readEntry(p)
		keys.Write(k)
		p = r
	}
	all, block, p := keys.String(), make([]byte, 0, valBytes), snap
	db = bulkLoad(count, func() (string, []byte) {
		k, v, r, _ := readEntry(p)
		key := all[:len(k)]
		block = append(block, v...)
		all, p = all[len(k):], r
		return key, block[len(block)-len(v) : len(block) : len(block)]
	})
	return db, rest, true
}

// readBounds reads a serialized range's two bounds.
func readBounds(snap []byte) (lo, hi string, rest []byte, ok bool) {
	l, rest, ok := readString(snap)
	if !ok {
		return "", "", nil, false
	}
	h, rest, ok := readString(rest)
	return string(l), string(h), rest, ok
}

// ServerConfig configures one MRP-Store replica process.
type ServerConfig struct {
	// Self is the process id.
	Self transport.ProcessID
	// Partition is the partition ring this server replicates.
	Partition transport.RingID
	// Peers are the other replicas of the same partition.
	Peers []transport.ProcessID
	// Router/Coord wire the process into the deployment.
	Router *transport.Router
	Coord  *coord.Service
	// NewLog supplies acceptor logs (defaults to in-memory); an error
	// fails server startup.
	NewLog func(transport.RingID) (storage.Log, error)
	// Checkpoints persists checkpoints; defaults to an in-memory store.
	Checkpoints recovery.Store
	// CheckpointEvery commands between checkpoints (0 disables).
	CheckpointEvery int
	// Ring tunes the consensus rings.
	Ring core.RingOptions
	// M is the deterministic merge quota.
	M int
	// GlobalLambda overrides the rate-leveling λ on the global ring (0
	// keeps Ring.Lambda). A higher global λ keeps the deterministic
	// merge from waiting on the (mostly idle) global ring.
	GlobalLambda int
	// RecoveryTimeout bounds peer recovery; zero skips peer recovery.
	RecoveryTimeout time.Duration
	// Tracer, when set, records this process's spans for distributed
	// tracing (telemetry only).
	Tracer *trace.Recorder
}

// Server is one MRP-Store replica: it loads the schema, recovers, joins
// its partition ring (and the global ring if the schema has one) and
// serves.
type Server struct {
	sm      *SM
	replica *smr.Replica
	schema  Schema
}

// NewServer boots a replica per the published schema.
func NewServer(cfg ServerConfig) (*Server, error) {
	schema, err := LoadSchema(cfg.Coord)
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = recovery.NewMemStore()
	}
	groups := []transport.RingID{cfg.Partition}
	if schema.GlobalGroup != 0 {
		groups = append(groups, schema.GlobalGroup)
	}
	built, err := smr.BuildNode(smr.RecoveryOptions{
		Core: core.Config{
			Self:           cfg.Self,
			Router:         cfg.Router,
			Coord:          cfg.Coord,
			NewLog:         cfg.NewLog,
			M:              cfg.M,
			Ring:           cfg.Ring,
			Tracer:         cfg.Tracer,
			LambdaOverride: globalLambdaOverride(schema.GlobalGroup, cfg.GlobalLambda),
		},
		Store:   cfg.Checkpoints,
		Peers:   peersOrNil(cfg.RecoveryTimeout, cfg.Peers),
		Service: cfg.Router.Service(),
		Timeout: cfg.RecoveryTimeout,
	})
	if err != nil {
		return nil, err
	}
	sm := NewSM()
	// Range-partitioned schemas enforce ownership: configure the bounds
	// from the schema; a recovered checkpoint that carries (post-split)
	// bounds overrides them during restore.
	if lo, hi, ok := schema.RangeOf(cfg.Partition); ok {
		sm.SetOwnedRange(lo, hi)
	}
	tr := cfg.Router.Transport()
	rep, err := smr.NewReplica(smr.ReplicaConfig{
		Self:            cfg.Self,
		Partition:       cfg.Partition,
		Groups:          groups,
		Peers:           cfg.Peers,
		Node:            built.Node,
		Transport:       tr,
		Service:         cfg.Router.Service(),
		SM:              sm,
		Checkpoints:     cfg.Checkpoints,
		CheckpointEvery: cfg.CheckpointEvery,
		ServiceHook:     rangeTransferHook(sm, tr),
		Tracer:          cfg.Tracer,
	}, built.Checkpoint)
	if err != nil {
		built.Node.Stop()
		return nil, fmt.Errorf("store: start replica: %w", err)
	}
	return &Server{sm: sm, replica: rep, schema: schema}, nil
}

// rangeTransferHook serves the reconfig controller's split-range RPCs on
// the replica's service goroutine: KindRangeReq streams a stashed
// outgoing range back as CRC-verified KindRangeChunk frames (Count 1
// releases the stash instead, once the controller confirmed the
// transfer). Serialization runs here, off the delivery path — the stash
// is an immutable snapshot.
func rangeTransferHook(sm *SM, tr transport.Transport) func(transport.Message) bool {
	return func(m transport.Message) bool {
		if m.Kind != transport.KindRangeReq {
			return false
		}
		if m.Count == 1 {
			sm.ReleaseOutgoing(m.Instance)
			return true
		}
		if tr == nil {
			return true
		}
		enc, ok := sm.OutgoingRange(m.Instance)
		if !ok {
			// Stash unknown (e.g. this replica restarted since the
			// marker): stay silent, the controller's deadline moves it
			// to the next peer.
			return true
		}
		smr.SendChunked(tr, m.From, transport.KindRangeChunk, m.Seq, enc)
		return true
	}
}

// globalLambdaOverride builds the per-ring λ override map.
func globalLambdaOverride(global transport.RingID, lambda int) map[transport.RingID]int {
	if global == 0 || lambda == 0 {
		return nil
	}
	return map[transport.RingID]int{global: lambda}
}

func peersOrNil(timeout time.Duration, peers []transport.ProcessID) []transport.ProcessID {
	if timeout == 0 {
		return nil
	}
	return peers
}

// SM exposes the state machine (instrumentation).
func (s *Server) SM() *SM { return s.sm }

// Replica exposes the underlying replica (instrumentation).
func (s *Server) Replica() *smr.Replica { return s.replica }

// Stop halts the server.
func (s *Server) Stop() { s.replica.Stop() }

// Client is the MRP-Store client API (Table 1). It is safe for concurrent
// use; each call blocks until the required responses arrive.
//
// The client caches the partitioning schema and refreshes it online: when
// a replica answers StatusWrongPartition (the key moved in a split after
// this client loaded its schema), the client reloads the schema from the
// coordination service and retries against the new owner, so live
// reconfiguration is transparent to callers.
type Client struct {
	svc *coord.Service
	cl  *smr.Client
	// Timeout per operation (also bounds wrong-partition retries).
	Timeout time.Duration

	// watch carries schema-change notifications from the coordination
	// service; Schema drains it opportunistically so clients pick up
	// committed splits without waiting to hit a WrongPartition.
	watch   <-chan []byte
	unwatch func()

	// rr rotates local reads across a partition's replicas.
	rr atomic.Uint32

	mu     sync.RWMutex
	schema Schema
}

// NewClient builds a store client over an smr client and the published
// schema.
func NewClient(svc *coord.Service, cl *smr.Client) (*Client, error) {
	schema, err := LoadSchema(svc)
	if err != nil {
		return nil, err
	}
	watch, unwatch := svc.WatchMeta(SchemaMetaKey)
	return &Client{svc: svc, schema: schema, cl: cl, Timeout: 10 * time.Second, watch: watch, unwatch: unwatch}, nil
}

// Close unsubscribes the client's schema watcher. Optional; a client is
// otherwise stateless.
func (c *Client) Close() {
	if c.unwatch != nil {
		c.unwatch()
	}
}

// OverloadBackoffs reports how many times a coordinator shed one of this
// client's commands under admission control and the underlying smr
// client backed off (bounded, jittered) instead of retrying blindly.
// Transient overload never surfaces to callers — operations simply take
// a backoff longer; only sustained overload fails, with an error
// wrapping ring.ErrOverloaded.
func (c *Client) OverloadBackoffs() uint64 { return c.cl.OverloadBackoffs() }

// Schema returns the partitioning schema in use, first applying any
// pending schema-change notification (newer versions only — the cache
// never moves backwards).
func (c *Client) Schema() Schema {
	c.maybeRefresh()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schema
}

// maybeRefresh drains pending schema-change notifications and reloads
// the schema only when one arrived; it reports whether the cached
// version advanced. The steady state (no reconfiguration) costs one
// non-blocking channel poll.
func (c *Client) maybeRefresh() bool {
	signaled := false
	for {
		select {
		case <-c.watch:
			signaled = true
			continue
		default:
		}
		break
	}
	if !signaled {
		return false
	}
	return c.refreshSchema()
}

// refreshSchema reloads the schema from the coordination service,
// keeping the cache monotonic (a concurrent refresh may already have
// installed a newer version). It reports whether the cached version
// advanced.
func (c *Client) refreshSchema() bool {
	schema, err := LoadSchema(c.svc)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if schema.Version <= c.schema.Version {
		return false
	}
	c.schema = schema
	return true
}

// ErrKeyTooLong and ErrBatchTooLarge reject what the operation encoding's
// two-byte length prefixes cannot express, before anything is sent: encoded
// regardless, the prefix would wrap and a replica would read a different,
// shorter key or batch out of the same bytes.
var (
	ErrKeyTooLong    = errors.New("store: key longer than 65535 bytes")
	ErrBatchTooLarge = errors.New("store: batch of more than 65535 operations")
)

// check reports whether o fits the encoding.
func (o Op) check() error {
	switch {
	case len(o.Key) > maxKeyLen || len(o.KeyHi) > maxKeyLen:
		return fmt.Errorf("store: %s: %w", o.Kind, ErrKeyTooLong)
	case len(o.Batch) > maxBatchLen:
		return ErrBatchTooLarge
	}
	for i := range o.Batch {
		if err := o.Batch[i].check(); err != nil {
			return err
		}
	}
	return nil
}

// Read returns the value of entry k, if existent. The value is the
// caller's: a view of the client's one copy of the response.
func (c *Client) Read(k string) ([]byte, bool, error) {
	return decodeRead(c.single(Op{Kind: OpRead, Key: k}))
}

// Insert adds tuple (k, v) to the database.
func (c *Client) Insert(k string, v []byte) error {
	return c.write(Op{Kind: OpInsert, Key: k, Value: v})
}

// Update replaces entry k with value v, if existent.
func (c *Client) Update(k string, v []byte) error {
	return c.write(Op{Kind: OpUpdate, Key: k, Value: v})
}

// Delete removes entry k from the database.
func (c *Client) Delete(k string) error {
	return c.write(Op{Kind: OpDelete, Key: k})
}

// write runs a single-key operation that answers with a bare status.
func (c *Client) write(op Op) error {
	res, err := c.single(op)
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("store: %s %q: %s", op.Kind, op.Key, res.Status)
	}
	return nil
}

// single routes a single-key operation to the owning partition. On
// StatusWrongPartition — the partition shrank in a split after this
// client loaded its schema — it refreshes the schema and retries against
// the new owner until the deadline; during the short window between a
// split marker and the schema flip it polls for the new version.
func (c *Client) single(op Op) (reply, error) {
	if err := op.check(); err != nil {
		return reply{}, err
	}
	deadline := time.Now().Add(c.Timeout)
	for {
		resp, err := c.cl.SubmitOne(c.Schema().PartitionOf(op.Key), op.Request(), c.Timeout)
		if err != nil {
			return reply{}, err
		}
		res, err := parseReply(resp)
		if err != nil || res.Status != StatusWrongPartition {
			return res, err
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("store: %s %q: no owning partition found before deadline: %s", op.Kind, op.Key, res.Status)
		}
		if !c.refreshSchema() {
			// The split marker executed but the new schema is not
			// published yet; wait out the flip.
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// Scan returns all entries within range k..k'. It is multicast to the
// global group when one exists (totally ordered with everything) or to
// every covering partition group otherwise. If the schema version
// advances while the scan is in flight (a split committed), the scan is
// retried under the new schema: partitions clip scans to their owned
// range, so a scan fanned out under a stale schema could miss the keys
// that moved.
//
// Known window: between a split marker executing and the new schema
// publishing (the transfer/boot phase of Controller.Split, typically
// well under a second), a scan crossing the split key observes only the
// shrunken old partition — the moved keys are reported by neither side
// yet. Single-key operations fail loudly (StatusWrongPartition) in the
// same window; scans cannot distinguish "clipped because another
// partition serves the rest" from "clipped because a split is in
// flight" until the new schema exists to retry against.
func (c *Client) Scan(k, kHi string) ([]Entry, error) {
	op := Op{Kind: OpScan, Key: k, KeyHi: kHi}
	if err := op.check(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.Timeout)
	var buf [4][]byte // room for the replies of up to four partitions
	for {
		schema := c.Schema()
		targets := schema.GroupsForScan(k, kHi)
		groups := targets
		if schema.GlobalGroup != 0 {
			groups = []transport.RingID{schema.GlobalGroup}
		}
		resps, err := c.cl.Submit(buf[:0], groups, op.Request(), targets, len(targets), c.Timeout)
		if err != nil {
			return nil, err
		}
		var all []Entry
		for _, raw := range resps {
			res, err := DecodeResult(raw)
			if err != nil {
				return nil, err
			}
			if res.Status != StatusOK {
				return nil, fmt.Errorf("store: scan failed: %s", res.Status)
			}
			all = append(all, res.Entries...)
		}
		// Retry when the schema advanced past the version this fan-out
		// used — comparing versions (not maybeRefresh's advanced-the-
		// cache signal) so a concurrent caller's refresh doesn't mask
		// the change from us.
		c.maybeRefresh()
		if c.Schema().Version > schema.Version && !time.Now().After(deadline) {
			continue // a split committed mid-scan; re-run under the new schema
		}
		sortEntries(all)
		return all, nil
	}
}

// Batch applies several single-partition operations grouped per partition
// (client-side batching, Section 7.2). All ops in one call must belong to
// the same partition; the helper BatchByPartition groups them.
func (c *Client) Batch(group transport.RingID, ops []Op) ([]Result, error) {
	op := Op{Kind: OpBatch, Batch: ops}
	if err := op.check(); err != nil {
		return nil, err
	}
	resp, err := c.cl.SubmitOne(group, op.Request(), c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(resp)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// BatchByPartition groups operations by owning partition.
func (c *Client) BatchByPartition(ops []Op) map[transport.RingID][]Op {
	schema := c.Schema()
	out := make(map[transport.RingID][]Op)
	for _, op := range ops {
		g := schema.PartitionOf(op.Key)
		out[g] = append(out[g], op)
	}
	return out
}

func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
}
