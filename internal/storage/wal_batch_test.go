package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFileWALPutBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()

	openSyncs := w.Fsyncs()
	var recs []Record
	for i := uint64(1); i <= 64; i++ {
		recs = append(recs, Record{Instance: i, Data: []byte(fmt.Sprintf("vote-%d", i))})
	}
	if err := w.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	// Group commit: the whole batch shares one write barrier.
	if got := w.Fsyncs() - openSyncs; got != 1 {
		t.Errorf("batch of 64 issued %d fsyncs, want 1", got)
	}
	for i := uint64(1); i <= 64; i++ {
		rec, ok := w.Get(i)
		if !ok || string(rec) != fmt.Sprintf("vote-%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, rec, ok)
		}
	}
	if b, items, max := w.batchGauge.Snapshot(); b != 1 || items != 64 || max != 64 {
		t.Errorf("batch gauge = (%d, %d, %d), want (1, 64, 64)", b, items, max)
	}
}

func TestFileWALPutBatchSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := uint64(1); i <= 100; i++ {
		recs = append(recs, Record{Instance: i, Data: []byte(fmt.Sprintf("r%03d", i))})
	}
	if err := w.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: committed batches are already flushed+fsynced.
	w2, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	for i := uint64(1); i <= 100; i++ {
		rec, ok := w2.Get(i)
		if !ok || string(rec) != fmt.Sprintf("r%03d", i) {
			t.Fatalf("after reopen Get(%d) = %q, %v", i, rec, ok)
		}
	}
}

func TestFileWALGetReadsBackFromDisk(t *testing.T) {
	// The index holds locations only, not bytes: every Get is a pread.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	payload := func(i uint64) []byte {
		return bytes.Repeat([]byte{byte(i)}, 100)
	}
	for i := uint64(1); i <= 50; i++ {
		if err := w.Put(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The returned slice is the caller's: scribbling on it must not
	// change what the next Get reads.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(1); i <= 50; i++ {
			rec, ok := w.Get(i)
			if !ok || !bytes.Equal(rec, payload(i)) {
				t.Fatalf("pass %d Get(%d): ok=%v", pass, i, ok)
			}
			for j := range rec {
				rec[j] = 0xff
			}
		}
	}
}

func TestFileWALGetAcrossSegments(t *testing.T) {
	// Records spread over several rolled segments must all pread back.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut, MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	for i := uint64(1); i <= 40; i++ {
		if err := w.Put(i, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if segmentCount(w) < 3 {
		t.Fatalf("expected several segments, got %d", segmentCount(w))
	}
	for i := uint64(1); i <= 40; i++ {
		rec, ok := w.Get(i)
		if !ok || !bytes.Equal(rec, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("Get(%d) across segments failed: ok=%v", i, ok)
		}
		rec[0] = ^rec[0]
		if again, _ := w.Get(i); again[0] != byte(i) {
			t.Fatalf("Get(%d) aliased the caller's slice: %d", i, again[0])
		}
	}
}

func TestFileWALGetUnflushedAsyncRecord(t *testing.T) {
	// In async mode a record can still sit in the write buffer; Get must
	// flush before pread rather than return torn data.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncPeriodic, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	if err := w.Put(7, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	rec, ok := w.Get(7)
	if !ok || string(rec) != "buffered" {
		t.Fatalf("Get(7) = %q, %v", rec, ok)
	}
	copy(rec, "XXXXXXXX")
	if rec, ok := w.Get(7); !ok || string(rec) != "buffered" {
		t.Fatalf("second Get(7) = %q, %v", rec, ok)
	}
}

func TestFileWALPutBatchAllocs(t *testing.T) {
	// The acceptor's group commit is on every vote's path: framing and
	// indexing a batch that overwrites indexed instances allocates
	// nothing once the write buffer and index exist.
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{Mode: SyncPeriodic, FlushInterval: time.Hour, MaxSegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	recs := make([]Record, 16)
	for i := range recs {
		recs[i] = Record{Instance: uint64(i + 1), Data: bytes.Repeat([]byte{byte(i)}, 1024)}
	}
	if err := w.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PutBatch of 16 x 1 KB allocates %.1f per call, want 0", allocs)
	}
}

func TestFileWALPutBatchRespectsTrim(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	if err := w.Put(10, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := w.Trim(10); err != nil {
		t.Fatal(err)
	}
	if err := w.PutBatch([]Record{
		{Instance: 5, Data: []byte("stale")},
		{Instance: 11, Data: []byte("fresh")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get(5); ok {
		t.Error("trimmed instance re-appeared via PutBatch")
	}
	if rec, ok := w.Get(11); !ok || string(rec) != "fresh" {
		t.Errorf("Get(11) = %q, %v", rec, ok)
	}
}

func TestFileWALPromiseRewriteNotStale(t *testing.T) {
	// Rewriting a key (the promise record) must always serve the newest
	// record.
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	for ballot := 1; ballot <= 5; ballot++ {
		if err := w.Put(0, []byte{byte(ballot)}); err != nil {
			t.Fatal(err)
		}
		rec, ok := w.Get(0)
		if !ok || rec[0] != byte(ballot) {
			t.Fatalf("ballot %d: Get(0) = %v, %v", ballot, rec, ok)
		}
	}
}

func TestMemLogPutBatch(t *testing.T) {
	l := NewMemLog()
	src := []byte("mutate-me")
	if err := l.PutBatch([]Record{{Instance: 1, Data: src}, {Instance: 2, Data: []byte("two")}}); err != nil {
		t.Fatal(err)
	}
	src[0] = 'X' // PutBatch must copy
	if rec, _ := l.Get(1); string(rec) != "mutate-me" {
		t.Errorf("record aliased caller buffer: %q", rec)
	}
	if rec, ok := l.Get(2); !ok || string(rec) != "two" {
		t.Errorf("Get(2) = %q, %v", rec, ok)
	}
}

func TestSimDiskPutBatchSingleBarrier(t *testing.T) {
	// One batch of n records must cost ~one write barrier, not n.
	spec := DiskSpec{WriteLatency: 20 * time.Millisecond, Throughput: 1 << 30, MaxBacklog: time.Second}
	d := NewSimDisk(NewMemLog(), spec, true, 1)
	var recs []Record
	for i := uint64(1); i <= 10; i++ {
		recs = append(recs, Record{Instance: i, Data: []byte("x")})
	}
	start := time.Now()
	if err := d.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("batch of 10 took %v; per-record barriers would be ~200ms", elapsed)
	}
	if rec, ok := d.Get(5); !ok || string(rec) != "x" {
		t.Errorf("Get(5) = %q, %v", rec, ok)
	}
}

func TestFileWALPromiseSurvivesTrim(t *testing.T) {
	// The reserved metadata record (instance 0, the acceptor promise) is
	// pinned across trims: its segment survives, the index entry stays,
	// and later rewrites are never skipped as "already trimmed".
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if err := w.Put(i, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Trim(40); err != nil {
		t.Fatal(err)
	}
	if rec, ok := w.Get(0); !ok || rec[0] != 7 {
		t.Fatalf("promise lost after trim: %v, %v", rec, ok)
	}
	// Rewrites after trim must still persist.
	if err := w.Put(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := w.Get(0); !ok || rec[0] != 9 {
		t.Fatalf("promise rewrite after trim lost: %v, %v", rec, ok)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// And survive a restart: recovery reads the promise back.
	w2, err := OpenWAL(dir, WALOptions{Mode: SyncEveryPut, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if rec, ok := w2.Get(0); !ok || rec[0] != 9 {
		t.Fatalf("promise lost across reopen after trim: %v, %v", rec, ok)
	}
}

func TestMemLogPromiseSurvivesTrim(t *testing.T) {
	l := NewMemLog()
	if err := l.Put(0, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(5, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := l.Trim(10); err != nil {
		t.Fatal(err)
	}
	if rec, ok := l.Get(0); !ok || rec[0] != 3 {
		t.Fatalf("promise lost after trim: %v, %v", rec, ok)
	}
	if err := l.PutBatch([]Record{{Instance: 0, Data: []byte{4}}}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := l.Get(0); !ok || rec[0] != 4 {
		t.Fatalf("promise rewrite after trim lost: %v, %v", rec, ok)
	}
	if _, ok := l.Get(5); ok {
		t.Error("trimmed instance survived")
	}
}

// TestFileWALFlushRacesEverything: the periodic flush fsyncs outside the
// WAL's lock, so writers, readers, trims and segment rolls run while a
// 1 ms flush loop syncs, and Close arrives in the middle of all of them.
// No operation fails before Close, nothing deadlocks, every record read
// back is the one written, and the loop keeps issuing fsyncs.
func TestFileWALFlushRacesEverything(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Mode: SyncPeriodic, FlushInterval: time.Millisecond, MaxSegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, perBatch = 2, 300, 4
	var (
		next    atomic.Uint64 // instances handed out so far
		closed  atomic.Bool
		wg      sync.WaitGroup
		errs    = make(chan error, 16)
		readers = make(chan struct{})
	)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	record := func(inst uint64) []byte {
		b := make([]byte, 300)
		binary.LittleEndian.PutUint64(b, inst)
		return b
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				last := next.Add(perBatch)
				recs := make([]Record, 0, perBatch)
				for inst := last - perBatch + 1; inst <= last; inst++ {
					recs = append(recs, Record{Instance: inst, Data: record(inst)})
				}
				if err := w.PutBatch(recs); err != nil {
					fail(fmt.Errorf("PutBatch: %w", err))
					return
				}
			}
		}()
	}
	var side sync.WaitGroup
	side.Add(2)
	go func() { // reader
		defer side.Done()
		for inst := uint64(1); ; inst++ {
			select {
			case <-readers:
				return
			default:
			}
			if top := next.Load(); inst > top {
				inst = max(top/2, 1)
			}
			if got, ok := w.Get(inst); ok && binary.LittleEndian.Uint64(got) != inst {
				fail(fmt.Errorf("Get(%d) read the record of instance %d", inst, binary.LittleEndian.Uint64(got)))
			}
		}
	}()
	go func() { // trimmer
		defer side.Done()
		for {
			select {
			case <-readers:
				return
			case <-time.After(time.Millisecond):
			}
			if err := w.Trim(next.Load() / 2); err != nil && !(closed.Load() && errors.Is(err, ErrLogClosed)) {
				fail(fmt.Errorf("Trim: %w", err))
			}
		}
	}()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("writers deadlocked against the flush loop")
	}
	before := w.Fsyncs()
	for deadline := time.Now().Add(5 * time.Second); w.Fsyncs() < before+3; {
		if time.Now().After(deadline) {
			t.Fatalf("Fsyncs stuck at %d: the flush loop stopped syncing", w.Fsyncs())
		}
		time.Sleep(time.Millisecond)
	}
	closed.Store(true)
	closeDone := make(chan error, 1)
	go func() { closeDone <- w.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against the flush loop")
	}
	close(readers)
	side.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := next.Load(); got != writers*batches*perBatch {
		t.Fatalf("wrote %d records, want %d", got, writers*batches*perBatch)
	}
}
