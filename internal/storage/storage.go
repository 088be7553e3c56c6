// Package storage provides the stable-storage substrates used by acceptors
// (vote logs) and replicas (checkpoints).
//
// Three layers are provided:
//
//   - Log: the acceptor log contract — durable Put/Get of per-instance
//     records plus prefix Trim (Section 5.1: acceptors log Phase 1B/2B
//     responses before replying, and trim coordinated with checkpoints).
//   - MemLog: volatile slot-buffer implementation, mirroring the paper's
//     in-memory acceptors (pre-allocated buffers of 15000 slots × 32 KB).
//   - FileWAL: a real, file-backed segmented write-ahead log with
//     synchronous and asynchronous modes and segment-granular trimming
//     (the Berkeley DB substitute).
//
// Disk timing for the simulation benchmarks lives in disk.go: a calibrated
// latency model for HDD/SSD × sync/async, wrapped around any Log.
package storage

import (
	"errors"
	"sync"

	"amcast/internal/bufpool"
)

// Record pairs a consensus instance with its durable record, for batched
// log appends.
type Record struct {
	Instance uint64
	Data     []byte
}

// Log is the acceptor stable-storage contract. Implementations must be
// safe for concurrent use.
type Log interface {
	// Put durably stores the record for a consensus instance. For
	// synchronous implementations Put returns after the record is
	// persisted; asynchronous ones may buffer.
	Put(instance uint64, record []byte) error
	// PutBatch durably stores several records with a single
	// stable-storage round trip (group commit): synchronous
	// implementations pay one write barrier for the whole batch instead
	// of one per record. Either every record is as durable as a Put
	// would have made it, or an error is returned and the caller must
	// assume none are.
	PutBatch(recs []Record) error
	// Get returns the record stored for an instance, or ok=false if the
	// instance was never stored or has been trimmed.
	Get(instance uint64) (record []byte, ok bool)
	// Trim discards all records with instance <= upTo, except instance
	// 0: that key is reserved for caller metadata (an acceptor's
	// promised ballot) and is pinned across trims. Implementations may
	// retain more than required but never less.
	Trim(upTo uint64) error
	// FirstRetained returns the lowest instance that is guaranteed still
	// retrievable (0 if nothing was trimmed yet).
	FirstRetained() uint64
	// Last returns an instance no retained record exceeds: the highest
	// one stored (0 if none). Together with FirstRetained it bounds a
	// scan of the retained records.
	Last() uint64
	// Sync flushes any buffered records to stable storage.
	Sync() error
	// Close releases resources, flushing buffered data first.
	Close() error
}

// ErrLogClosed is returned by operations on a closed log.
var ErrLogClosed = errors.New("storage: log closed")

// metaInstance is the reserved metadata key exempt from trimming (the
// acceptor promise record; consensus instances start at 1).
const metaInstance = 0

// MemLog is an in-memory Log. It mirrors the paper's in-memory acceptor
// buffers: bounded retention is the caller's job via Trim. The zero value
// is ready to use.
type MemLog struct {
	mu      sync.RWMutex
	records map[uint64][]byte
	trimmed uint64
	last    uint64
	closed  bool
	// slab is the unused rest of the block record copies are cut from:
	// one allocation per slabSize of records, not one each. The collector
	// frees a block once its last record is trimmed.
	slab []byte
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog {
	return &MemLog{records: make(map[uint64][]byte)}
}

var _ Log = (*MemLog)(nil)

// Put stores a copy of record for instance.
func (l *MemLog) Put(instance uint64, record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.records == nil {
		l.records = make(map[uint64][]byte)
	}
	if instance != metaInstance && instance <= l.trimmed && l.trimmed > 0 {
		return nil // already trimmed; ignore stale writes
	}
	l.store(instance, record)
	return nil
}

// Records are cut from blocks of slabSize bytes (bufpool.Cut).
const slabSize = 64 << 10

// store copies record into the map under l.mu.
func (l *MemLog) store(instance uint64, record []byte) {
	l.last = max(l.last, instance)
	r := bufpool.Cut(&l.slab, slabSize, len(record))
	copy(r, record)
	l.records[instance] = r
}

// PutBatch stores copies of all records under one lock acquisition.
func (l *MemLog) PutBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if l.records == nil {
		l.records = make(map[uint64][]byte)
	}
	for _, r := range recs {
		if r.Instance != metaInstance && r.Instance <= l.trimmed && l.trimmed > 0 {
			continue
		}
		l.store(r.Instance, r.Data)
	}
	return nil
}

// Get returns the stored copy of the record for instance.
func (l *MemLog) Get(instance uint64) ([]byte, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, ok := l.records[instance]
	return rec, ok
}

// Trim discards records for instances <= upTo.
func (l *MemLog) Trim(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if upTo <= l.trimmed {
		return nil
	}
	for inst := range l.records {
		if inst != metaInstance && inst <= upTo {
			delete(l.records, inst)
		}
	}
	l.trimmed = upTo
	return nil
}

// FirstRetained returns the lowest guaranteed-retrievable instance.
func (l *MemLog) FirstRetained() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.trimmed == 0 {
		return 0
	}
	return l.trimmed + 1
}

// Last returns the highest instance ever stored.
func (l *MemLog) Last() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.last
}

// Len reports the number of retained records.
func (l *MemLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.records)
}

// Sync is a no-op for the in-memory log.
func (l *MemLog) Sync() error { return nil }

// Close marks the log closed.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
