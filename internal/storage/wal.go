package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amcast/internal/metrics"
)

// SyncMode selects the durability mode of a FileWAL, mirroring the paper's
// synchronous vs. asynchronous acceptor disk writes.
type SyncMode int

const (
	// SyncEveryPut flushes and fsyncs after every Put ("synchronous disk
	// writes"; the paper disables batching in this mode). PutBatch still
	// amortizes: one flush + fsync covers the whole batch (group commit).
	SyncEveryPut SyncMode = iota + 1
	// SyncPeriodic buffers writes and flushes on a background interval
	// ("asynchronous disk writes").
	SyncPeriodic
)

// FileWAL is a segmented, file-backed write-ahead log for acceptor votes
// and decisions. Records are framed as:
//
//	instance(8) len(4) crc32(4) data(len)
//
// Segments roll over at a size threshold; Trim removes whole segments whose
// records are all <= the trim watermark. Open rebuilds the in-memory index
// by scanning segments, so an acceptor recovers its log after a crash
// (Section 5.1, acceptor recovery).
//
// The index holds only record locations — (segment, offset, length) — not
// record bytes: Get preads each record into a fresh slice, so memory stays
// flat no matter how much untrimmed log exists. Nothing is cached: the
// log is the acceptor's only record of its votes, read back for Phase 1
// reports, retransmission and catch-up, all cold paths.
type FileWAL struct {
	dir     string
	mode    SyncMode
	maxSeg  int64
	flushEv time.Duration

	mu         sync.Mutex
	segs       []*walSegment
	cur        *os.File
	curW       *bufio.Writer
	curSize    int64
	curFlushed int64 // bytes of the current segment already written through
	curFirst   uint64
	curLast    uint64
	curBase    int // numeric name of current segment
	index      map[uint64]walLoc
	hdr        [16]byte // frame header buffer, a field so it never escapes
	trimmed    uint64
	closed     bool

	fsyncs     metrics.Counter
	batchGauge metrics.BatchGauge

	flushDone chan struct{}
	flushStop chan struct{}
}

type walSegment struct {
	path  string
	base  int
	first uint64
	last  uint64
	r     *os.File // lazily opened pread handle
}

// walLoc locates one record's data bytes on disk (offset is past the
// 16-byte frame header).
type walLoc struct {
	base int
	off  int64
	n    int
}

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Mode selects sync-per-put or periodic flushing. Default SyncEveryPut.
	Mode SyncMode
	// MaxSegmentBytes rolls segments at this size. Default 8 MB.
	MaxSegmentBytes int64
	// FlushInterval is the async flush period. Default 10 ms.
	FlushInterval time.Duration
}

// OpenWAL opens (creating if needed) a WAL in dir and replays existing
// segments to rebuild the index.
func OpenWAL(dir string, opts WALOptions) (*FileWAL, error) {
	if opts.Mode == 0 {
		opts.Mode = SyncEveryPut
	}
	if opts.MaxSegmentBytes == 0 {
		opts.MaxSegmentBytes = 8 << 20
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = 10 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create wal dir: %w", err)
	}
	w := &FileWAL{
		dir:       dir,
		mode:      opts.Mode,
		maxSeg:    opts.MaxSegmentBytes,
		flushEv:   opts.FlushInterval,
		index:     make(map[uint64]walLoc),
		flushDone: make(chan struct{}),
		flushStop: make(chan struct{}),
	}
	if err := w.replay(); err != nil {
		return nil, err
	}
	if err := w.rollSegment(); err != nil {
		return nil, err
	}
	if w.mode == SyncPeriodic {
		go w.flushLoop()
	} else {
		close(w.flushDone)
	}
	return w, nil
}

var _ Log = (*FileWAL)(nil)

func segName(base int) string { return fmt.Sprintf("wal-%09d.seg", base) }

// replay scans existing segments in order, loading record locations into
// the index.
func (w *FileWAL) replay() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("storage: read wal dir: %w", err)
	}
	var bases []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"))
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Ints(bases)
	for _, base := range bases {
		path := filepath.Join(w.dir, segName(base))
		seg := &walSegment{path: path, base: base}
		if err := w.replaySegment(seg); err != nil {
			return err
		}
		w.segs = append(w.segs, seg)
		if base >= w.curBase {
			w.curBase = base + 1
		}
	}
	return nil
}

func (w *FileWAL) replaySegment(seg *walSegment) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("storage: open segment: %w", err)
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat segment: %w", err)
	}
	fileSize := st.Size()
	r := bufio.NewReader(f)
	var hdr [16]byte
	var off int64
	first := true
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF or torn tail record: stop replay of this segment.
			return nil
		}
		inst := binary.LittleEndian.Uint64(hdr[:8])
		size := binary.LittleEndian.Uint32(hdr[8:12])
		sum := binary.LittleEndian.Uint32(hdr[12:16])
		if int64(size) > fileSize-off-16 {
			// The header claims more bytes than the segment holds: a torn
			// or corrupt length. Sizing the read buffer from the claim
			// would let 4 flipped bytes demand a 4 GB allocation, so bound
			// it by what is actually on disk and treat the tail as torn.
			return nil
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil // torn record
		}
		if crc32.ChecksumIEEE(data) != sum {
			return nil // corrupt tail; discard rest
		}
		w.index[inst] = walLoc{base: seg.base, off: off + 16, n: int(size)}
		off += 16 + int64(size)
		if first || inst < seg.first {
			seg.first = inst
		}
		if inst > seg.last {
			seg.last = inst
		}
		first = false
	}
}

// rollSegment closes the current segment (if any) and starts a new one.
// Caller need not hold the lock during Open; afterwards callers do.
func (w *FileWAL) rollSegment() error {
	if w.cur != nil {
		if err := w.curW.Flush(); err != nil {
			return err
		}
		if err := w.syncCur(); err != nil {
			return err
		}
		if err := w.cur.Close(); err != nil {
			return err
		}
		w.segs = append(w.segs, &walSegment{
			path:  filepath.Join(w.dir, segName(w.curBase)),
			base:  w.curBase,
			first: w.curFirst,
			last:  w.curLast,
		})
		w.curBase++
	}
	path := filepath.Join(w.dir, segName(w.curBase))
	// O_RDWR so Get can pread records of the open segment (O_APPEND only
	// affects writes).
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open segment: %w", err)
	}
	w.cur = f
	w.curW = bufio.NewWriterSize(f, 256<<10)
	w.curSize = 0
	w.curFlushed = 0
	w.curFirst = 0
	w.curLast = 0
	return nil
}

// appendLocked frames one record into the current segment's buffer and
// indexes its location. It does not flush or sync.
//
//lint:deterministic
func (w *FileWAL) appendLocked(instance uint64, record []byte) error {
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint64(hdr[:8], instance)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(record)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(record))
	if _, err := w.curW.Write(hdr); err != nil {
		return err
	}
	if _, err := w.curW.Write(record); err != nil {
		return err
	}
	w.index[instance] = walLoc{base: w.curBase, off: w.curSize + 16, n: len(record)}
	if w.curFirst == 0 || instance < w.curFirst {
		w.curFirst = instance
	}
	if instance > w.curLast {
		w.curLast = instance
	}
	w.curSize += int64(16 + len(record))
	return nil
}

// commitLocked makes everything appended so far durable for synchronous
// mode and rolls the segment at the size threshold.
func (w *FileWAL) commitLocked() error {
	if w.mode == SyncEveryPut {
		if err := w.curW.Flush(); err != nil {
			return err
		}
		w.curFlushed = w.curSize
		if err := w.syncCur(); err != nil {
			return err
		}
	}
	if w.curSize >= w.maxSeg {
		return w.rollSegment()
	}
	return nil
}

// Put appends a record for instance.
func (w *FileWAL) Put(instance uint64, record []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrLogClosed
	}
	if instance != metaInstance && w.trimmed > 0 && instance <= w.trimmed {
		return nil
	}
	if err := w.appendLocked(instance, record); err != nil {
		return err
	}
	return w.commitLocked()
}

// PutBatch appends all records and commits them with one buffered write
// and — under SyncEveryPut — one fsync for the whole batch: group commit,
// amortizing the write barrier that dominates synchronous-disk acceptors.
func (w *FileWAL) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrLogClosed
	}
	appended := 0
	for _, r := range recs {
		if r.Instance != metaInstance && w.trimmed > 0 && r.Instance <= w.trimmed {
			continue
		}
		if err := w.appendLocked(r.Instance, r.Data); err != nil {
			return err
		}
		appended++
	}
	if appended == 0 {
		return nil
	}
	w.batchGauge.Observe(appended)
	return w.commitLocked()
}

// Get returns the record for instance, read back from disk into a slice
// the caller owns.
func (w *FileWAL) Get(instance uint64) ([]byte, bool) {
	w.mu.Lock()
	if w.closed {
		// Segment handles are gone; reopening here would leak them.
		w.mu.Unlock()
		return nil, false
	}
	loc, ok := w.index[instance]
	w.mu.Unlock()
	if !ok {
		return nil, false
	}
	// pread outside the lock: a cold read (retransmission serving) must
	// never stall the hot-path group commit. A concurrent segment roll
	// can close the handle between resolution and ReadAt; the retry
	// re-resolves (the rolled segment reopens via segByBase). Only a
	// Trim or Close — which really removed the record — fails twice.
	data := make([]byte, loc.n)
	for attempt := 0; ; attempt++ {
		w.mu.Lock()
		f, err := w.readHandleLocked(loc)
		w.mu.Unlock()
		if err != nil {
			return nil, false
		}
		if _, err := f.ReadAt(data, loc.off); err == nil {
			return data, true
		}
		if attempt == 1 {
			return nil, false
		}
	}
}

// readHandleLocked resolves the file to pread loc from, flushing the
// write buffer first when the record's bytes may still be buffered.
func (w *FileWAL) readHandleLocked(loc walLoc) (*os.File, error) {
	if w.closed {
		return nil, ErrLogClosed // don't reopen (and leak) segment handles
	}
	if loc.base == w.curBase {
		if loc.off+int64(loc.n) > w.curFlushed {
			if err := w.curW.Flush(); err != nil {
				return nil, err
			}
			w.curFlushed = w.curSize
		}
		return w.cur, nil
	}
	seg := w.segByBase(loc.base)
	if seg == nil {
		return nil, fmt.Errorf("storage: segment %d gone", loc.base)
	}
	if seg.r == nil {
		r, err := os.Open(seg.path)
		if err != nil {
			return nil, err
		}
		seg.r = r
	}
	return seg.r, nil
}

func (w *FileWAL) segByBase(base int) *walSegment {
	for _, seg := range w.segs {
		if seg.base == base {
			return seg
		}
	}
	return nil
}

// Trim removes whole segments whose records are all <= upTo and drops
// trimmed entries from the index.
func (w *FileWAL) Trim(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrLogClosed
	}
	if upTo <= w.trimmed {
		return nil
	}
	w.trimmed = upTo
	// The metadata record (the acceptor promise) is pinned: its segment
	// must survive so replay and Get keep serving the latest promise.
	metaLoc, hasMeta := w.index[metaInstance]
	kept := w.segs[:0]
	for _, seg := range w.segs {
		pinned := hasMeta && metaLoc.base == seg.base
		if !pinned && seg.last != 0 && seg.last <= upTo {
			if seg.r != nil {
				_ = seg.r.Close()
			}
			_ = os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	w.segs = kept
	for inst := range w.index {
		if inst != metaInstance && inst <= upTo {
			delete(w.index, inst)
		}
	}
	return nil
}

// FirstRetained returns the lowest guaranteed-retrievable instance.
func (w *FileWAL) FirstRetained() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.trimmed == 0 {
		return 0
	}
	return w.trimmed + 1
}

// Last returns the highest instance stored in a retained segment.
func (w *FileWAL) Last() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	last := w.curLast
	for _, seg := range w.segs {
		last = max(last, seg.last)
	}
	return last
}

// Sync flushes buffered records and fsyncs the current segment.
func (w *FileWAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *FileWAL) syncLocked() error {
	if w.closed {
		return ErrLogClosed
	}
	if err := w.curW.Flush(); err != nil {
		return err
	}
	w.curFlushed = w.curSize
	return w.syncCur()
}

// syncCur fsyncs the current segment, counting the barrier.
func (w *FileWAL) syncCur() error {
	w.fsyncs.Inc()
	return w.cur.Sync()
}

// Fsyncs reports how many fsyncs the WAL has issued — the cost group
// commit exists to amortize.
func (w *FileWAL) Fsyncs() uint64 { return w.fsyncs.Load() }

// flushLoop is SyncPeriodic's background flush. It writes the buffered
// records through under w.mu but fsyncs without it, so appends, reads and
// trims never wait for the disk. The segment may be rolled or the log
// closed meanwhile: both fsync before they close a segment, so an error
// from this sync of a closed segment loses nothing and is ignored. Only
// the fsyncs actually issued are counted.
func (w *FileWAL) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.flushEv)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.mu.Lock()
			var seg *os.File
			if !w.closed && w.curW.Flush() == nil {
				w.curFlushed = w.curSize
				seg = w.cur
			}
			w.mu.Unlock()
			if seg != nil && !errors.Is(seg.Sync(), os.ErrClosed) {
				w.fsyncs.Inc()
			}
		}
	}
}

// Close flushes and closes the log.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.syncLocked()
	w.closed = true
	cerr := w.cur.Close()
	for _, seg := range w.segs {
		if seg.r != nil {
			_ = seg.r.Close()
			seg.r = nil
		}
	}
	w.mu.Unlock()
	if w.mode == SyncPeriodic {
		close(w.flushStop)
	}
	<-w.flushDone
	if err == nil {
		err = cerr
	}
	return err
}
