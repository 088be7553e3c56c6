package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemLogPutGet(t *testing.T) {
	l := NewMemLog()
	if err := l.Put(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	rec, ok := l.Get(5)
	if !ok || string(rec) != "five" {
		t.Errorf("Get(5) = %q, %v", rec, ok)
	}
	if _, ok := l.Get(6); ok {
		t.Error("Get(6) should miss")
	}
}

func TestMemLogPutCopies(t *testing.T) {
	l := NewMemLog()
	buf := []byte("mutable")
	if err := l.Put(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	rec, _ := l.Get(1)
	if string(rec) != "mutable" {
		t.Error("Put must copy the record, caller mutation leaked in")
	}
}

func TestMemLogTrim(t *testing.T) {
	l := NewMemLog()
	for i := uint64(1); i <= 10; i++ {
		if err := l.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Trim(6); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(6); ok {
		t.Error("instance 6 should be trimmed")
	}
	if _, ok := l.Get(7); !ok {
		t.Error("instance 7 should survive trim")
	}
	if got := l.FirstRetained(); got != 7 {
		t.Errorf("FirstRetained = %d, want 7", got)
	}
	// Puts below the watermark are ignored.
	if err := l.Put(3, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(3); ok {
		t.Error("stale put below trim watermark should be ignored")
	}
	// Trim is monotone: lower trims are no-ops.
	if err := l.Trim(2); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstRetained(); got != 7 {
		t.Errorf("FirstRetained after lower trim = %d, want 7", got)
	}
	if got := l.Last(); got != 10 {
		t.Errorf("Last = %d, want 10", got)
	}
}

func TestMemLogClosed(t *testing.T) {
	l := NewMemLog()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(1, nil); err != ErrLogClosed {
		t.Errorf("Put after close = %v, want ErrLogClosed", err)
	}
	if err := l.Trim(1); err != ErrLogClosed {
		t.Errorf("Trim after close = %v, want ErrLogClosed", err)
	}
}

func TestMemLogZeroValue(t *testing.T) {
	var l MemLog
	if err := l.Put(1, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(1); !ok {
		t.Error("zero-value MemLog should be usable")
	}
}

func TestMemLogConcurrent(t *testing.T) {
	l := NewMemLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst := uint64(g*1000 + i)
				if err := l.Put(inst, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := l.Get(inst); !ok {
					t.Errorf("lost instance %d", inst)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 8*200 {
		t.Errorf("Len = %d, want 1600", l.Len())
	}
}

func TestFileWALBasic(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if err := w.Put(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := w.Get(25)
	if !ok || string(rec) != "record-25" {
		t.Errorf("Get(25) = %q, %v", rec, ok)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileWALRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("d"), 100)
	for i := uint64(1); i <= 100; i++ {
		if err := w.Put(i, append(payload, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all records must be recovered from disk.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if got := w2.Last(); got != 100 {
		t.Errorf("Last after recovery = %d, want 100", got)
	}
	for i := uint64(1); i <= 100; i++ {
		rec, ok := w2.Get(i)
		if !ok {
			t.Fatalf("instance %d lost after recovery", i)
		}
		if rec[len(rec)-1] != byte(i) {
			t.Fatalf("instance %d corrupted after recovery", i)
		}
	}
}

func TestFileWALSegmentRollAndTrim(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	payload := bytes.Repeat([]byte("x"), 512)
	for i := uint64(1); i <= 64; i++ {
		if err := w.Put(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("expected multiple segments, got %d", w.SegmentCount())
	}
	// A re-vote for an old instance lands in the current segment and
	// must not lower Last.
	if err := w.Put(3, payload); err != nil {
		t.Fatal(err)
	}
	if got := w.Last(); got != 64 {
		t.Errorf("Last across segments = %d, want 64", got)
	}
	before := w.SegmentCount()
	if err := w.Trim(32); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() >= before {
		t.Errorf("trim did not remove segments: %d -> %d", before, w.SegmentCount())
	}
	if _, ok := w.Get(10); ok {
		t.Error("trimmed instance should be gone")
	}
	if _, ok := w.Get(60); !ok {
		t.Error("instance above trim must survive")
	}
}

func TestFileWALTrimSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{MaxSegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 256)
	for i := uint64(1); i <= 40; i++ {
		if err := w.Put(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Trim(20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{MaxSegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	// Records above the trim must be there; fully-trimmed segments gone.
	if _, ok := w2.Get(40); !ok {
		t.Error("instance 40 lost across reopen")
	}
}

func TestFileWALAsyncMode(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Mode: SyncPeriodic, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := w.Put(i, []byte("async")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if _, ok := w2.Get(20); !ok {
		t.Error("async record lost despite Sync+Close")
	}
}

func TestFileWALCorruptTailIgnored(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage to the newest segment to simulate a torn write.
	segs, err := filepathGlob(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	appendGarbage(t, segs[len(segs)-1])

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w2.Close() }()
	if _, ok := w2.Get(1); !ok {
		t.Error("valid prefix record lost due to corrupt tail")
	}
}

func TestLogInterfaceProperty(t *testing.T) {
	// Property: for any sequence of puts with distinct instances followed
	// by a trim at T, Get(i) succeeds iff i > T.
	f := func(instances []uint16, trimAt uint16) bool {
		l := NewMemLog()
		seen := make(map[uint64]bool)
		for _, i := range instances {
			inst := uint64(i) + 1 // avoid 0
			seen[inst] = true
			if err := l.Put(inst, []byte{1}); err != nil {
				return false
			}
		}
		if err := l.Trim(uint64(trimAt)); err != nil {
			return false
		}
		for inst := range seen {
			_, ok := l.Get(inst)
			if want := inst > uint64(trimAt); ok != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimDiskSyncLatency(t *testing.T) {
	d := NewSimDisk(NewMemLog(), DiskSpec{WriteLatency: 20 * time.Millisecond, Throughput: 1 << 30}, true, 1)
	start := time.Now()
	if err := d.Put(1, []byte("rec")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("sync put took %v, want >= ~20ms", elapsed)
	}
	if _, ok := d.Get(1); !ok {
		t.Error("record lost")
	}
}

func TestSimDiskAsyncFast(t *testing.T) {
	d := NewSimDisk(NewMemLog(), HDDSpec(), false, 1)
	start := time.Now()
	for i := uint64(0); i < 100; i++ {
		if err := d.Put(i, []byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("async puts took %v, should absorb into backlog", elapsed)
	}
}

func TestSimDiskAsyncBackpressure(t *testing.T) {
	// Tiny backlog and slow device: writers must be throttled.
	spec := DiskSpec{WriteLatency: 0, Throughput: 1 << 20, MaxBacklog: 10 * time.Millisecond}
	d := NewSimDisk(NewMemLog(), spec, false, 1)
	payload := make([]byte, 64<<10) // 64 KB, ~62ms of device time each
	start := time.Now()
	for i := uint64(0); i < 4; i++ {
		if err := d.Put(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("async writes with full backlog took %v, want back-pressure", elapsed)
	}
}

func TestSimDiskSyncFasterOnSSD(t *testing.T) {
	// Compare the modelled service time of one synchronous record on an
	// idle device, not wall-clock sleeps a loaded host can stretch.
	rec := make([]byte, 1024)
	serviceOf := func(spec DiskSpec) time.Duration {
		return NewSimDisk(NewMemLog(), spec, true, 0.5).occupy(len(rec)+16, true)
	}
	th, ts := serviceOf(HDDSpec()), serviceOf(SSDSpec())
	if ts <= 0 || th < ts*3 {
		t.Errorf("HDD (%v) should be much slower than SSD (%v) in sync mode", th, ts)
	}
}

func TestNewModeLog(t *testing.T) {
	for _, mode := range Modes {
		l := NewModeLog(mode, 0.1)
		if err := l.Put(1, []byte("x")); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		if _, ok := l.Get(1); !ok {
			t.Errorf("%v: record lost", mode)
		}
		if err := l.Close(); err != nil {
			t.Errorf("%v: close: %v", mode, err)
		}
	}
	if ModeMemory.String() != "In Memory" || Mode(99).String() != "Unknown" {
		t.Error("Mode.String broken")
	}
}

// TestMemLogSlabRecords: records are cut from shared blocks, so each must
// stay exactly what was put through every neighbouring Put, overwrite,
// append-by-a-caller and Trim, large records included.
func TestMemLogSlabRecords(t *testing.T) {
	l := NewMemLog()
	want := make(map[uint64][]byte)
	check := func(when string) {
		t.Helper()
		for inst, w := range want {
			if got, ok := l.Get(inst); !ok || !bytes.Equal(got, w) {
				t.Fatalf("%s: instance %d = %d bytes (ok=%v), want the %d put", when, inst, len(got), ok, len(w))
			}
		}
	}
	put := func(inst uint64, n int) {
		t.Helper()
		rec := bytes.Repeat([]byte{byte(inst)}, n)
		if err := l.Put(inst, rec); err != nil {
			t.Fatal(err)
		}
		want[inst] = bytes.Clone(rec)
		clear(rec) // the caller's buffer is recycled
	}
	sizes := []int{1000, 1, 0, 15 << 10, 16 << 10, 40 << 10, 3000, 70 << 10}
	for i := uint64(1); i <= 400; i++ {
		put(i, sizes[i%uint64(len(sizes))])
	}
	check("after puts across several slabs")
	put(7, 2000) // an overwrite gets a new place
	check("after an overwrite")
	if rec, _ := l.Get(9); cap(rec) != len(rec) {
		t.Errorf("record has cap %d beyond its len %d: an append would run into its neighbour", cap(rec), len(rec))
	}
	if err := l.Trim(200); err != nil {
		t.Fatal(err)
	}
	for inst := range want {
		if inst <= 200 {
			if _, ok := l.Get(inst); ok {
				t.Fatalf("Get(%d) hit after Trim(200)", inst)
			}
			delete(want, inst)
		}
	}
	for i := uint64(401); i <= 600; i++ {
		put(i, sizes[i%uint64(len(sizes))])
	}
	check("after Trim and puts behind it")
}

// TestMemLogPutAllocs pins the slab: a MemLog allocates one block per
// 64 KB of records, not one slice per record.
func TestMemLogPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	l, rec := NewMemLog(), make([]byte, 1024)
	var inst uint64
	put := func() {
		inst++
		_ = l.Put(inst, rec) // cannot fail while the log is open
		if inst%4096 == 0 {
			_ = l.Trim(inst - 1024)
		}
	}
	for i := 0; i < 8192; i++ {
		put() // the map reaches its size
	}
	const batch = 1024 // AllocsPerRun rounds down to whole allocations per run
	got := testing.AllocsPerRun(16, func() {
		for i := 0; i < batch; i++ {
			put()
		}
	}) / batch
	t.Logf("%.3f allocs per 1 KB Put", got)
	if got > 0.1 {
		t.Errorf("Put of a 1 KB record: %.3f allocs, want <= 0.1", got)
	}
}
