package storage

import (
	"errors"
	"sync"
	"time"
)

// Injected device failures (chaos testing). ErrDiskFull is returned once
// cumulative written bytes exceed an injected capacity; ErrIOFault is the
// default error for injected write/sync failures.
var (
	ErrDiskFull = errors.New("storage: simulated disk full")
	ErrIOFault  = errors.New("storage: simulated I/O fault")
)

// Mode names the five storage configurations evaluated in Figure 3 of the
// paper.
type Mode int

const (
	// ModeMemory keeps acceptor state in pre-allocated memory buffers.
	ModeMemory Mode = iota + 1
	// ModeSyncHDD fsyncs every record to a 7200-RPM hard disk.
	ModeSyncHDD
	// ModeSyncSSD fsyncs every record to a solid-state disk.
	ModeSyncSSD
	// ModeAsyncHDD buffers records and flushes to a hard disk in the
	// background.
	ModeAsyncHDD
	// ModeAsyncSSD buffers records and flushes to an SSD in the
	// background.
	ModeAsyncSSD
)

// Modes lists all storage modes in the order Figure 3 reports them.
var Modes = []Mode{ModeSyncHDD, ModeSyncSSD, ModeAsyncHDD, ModeAsyncSSD, ModeMemory}

func (m Mode) String() string {
	switch m {
	case ModeMemory:
		return "In Memory"
	case ModeSyncHDD:
		return "Sync Disk"
	case ModeSyncSSD:
		return "Sync Disk (SSD)"
	case ModeAsyncHDD:
		return "Async Disk"
	case ModeAsyncSSD:
		return "Async Disk (SSD)"
	default:
		return "Unknown"
	}
}

// DiskSpec models the timing behaviour of a storage device. The defaults
// approximate the paper's hardware: 7200-RPM 4 TB hard disks and 240 GB
// SSDs.
type DiskSpec struct {
	// WriteLatency is the fixed cost of a synchronous write barrier
	// (seek + rotation for HDD, flash program for SSD).
	WriteLatency time.Duration
	// Throughput is sustained sequential write bandwidth in bytes/sec.
	Throughput int64
	// MaxBacklog is how much un-flushed work an asynchronous device
	// absorbs before back-pressuring writers.
	MaxBacklog time.Duration
}

// HDDSpec approximates a 7200-RPM magnetic disk.
func HDDSpec() DiskSpec {
	return DiskSpec{
		WriteLatency: 8 * time.Millisecond,
		Throughput:   120 << 20, // 120 MB/s
		MaxBacklog:   200 * time.Millisecond,
	}
}

// SSDSpec approximates a SATA solid-state disk.
func SSDSpec() DiskSpec {
	return DiskSpec{
		WriteLatency: 250 * time.Microsecond,
		Throughput:   450 << 20, // 450 MB/s
		MaxBacklog:   200 * time.Millisecond,
	}
}

// SimDisk wraps a Log with device timing so simulation benchmarks can
// reproduce the storage-mode separation of Figure 3 without real devices.
//
// A virtual "device busy until" clock serializes writes at the device's
// throughput. Synchronous puts block until the device has committed the
// record (write barrier + serialization). Asynchronous puts return
// immediately while backlog stays under MaxBacklog and block on the excess
// otherwise (modeling a full page cache / write buffer).
type SimDisk struct {
	inner Log
	spec  DiskSpec
	sync  bool
	scale float64

	mu     sync.Mutex
	busyAt time.Time // virtual device-free timestamp

	// Fault injection (all guarded by mu). writeErr fails Put/PutBatch,
	// syncErr fails Sync; capacity, when > 0, bounds cumulative written
	// bytes after which writes fail with ErrDiskFull.
	writeErr error
	syncErr  error
	capacity int64
	written  int64
}

// NewSimDisk wraps inner with device timing. scale multiplies all simulated
// delays (use <1 to shrink benchmark wall-clock while keeping mode ratios).
func NewSimDisk(inner Log, spec DiskSpec, synchronous bool, scale float64) *SimDisk {
	if scale <= 0 {
		scale = 1
	}
	return &SimDisk{inner: inner, spec: spec, sync: synchronous, scale: scale}
}

// NewModeLog builds the Log for a Figure-3 storage mode: a MemLog wrapped
// with the matching device timing (or bare MemLog for ModeMemory).
func NewModeLog(mode Mode, scale float64) Log {
	switch mode {
	case ModeSyncHDD:
		return NewSimDisk(NewMemLog(), HDDSpec(), true, scale)
	case ModeSyncSSD:
		return NewSimDisk(NewMemLog(), SSDSpec(), true, scale)
	case ModeAsyncHDD:
		return NewSimDisk(NewMemLog(), HDDSpec(), false, scale)
	case ModeAsyncSSD:
		return NewSimDisk(NewMemLog(), SSDSpec(), false, scale)
	default:
		return NewMemLog()
	}
}

var _ Log = (*SimDisk)(nil)

// SetWriteError injects err on every subsequent Put/PutBatch (pass nil to
// clear). The write fails before reaching the wrapped log, modeling a dead
// or erroring device.
func (d *SimDisk) SetWriteError(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeErr = err
}

// SetSyncError injects err on every subsequent Sync (pass nil to clear),
// modeling fsync failures.
func (d *SimDisk) SetSyncError(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncErr = err
}

// SetCapacity bounds cumulative written bytes: once exceeded, writes fail
// with ErrDiskFull until the capacity is raised or cleared (n <= 0). The
// byte accounting matches the device model (record bytes + 16 overhead).
func (d *SimDisk) SetCapacity(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.capacity = n
}

// Written returns cumulative bytes accepted by the device.
func (d *SimDisk) Written() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.written
}

// admit charges size bytes against injected faults; on nil the write may
// proceed.
func (d *SimDisk) admit(size int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.writeErr != nil {
		return d.writeErr
	}
	if d.capacity > 0 && d.written+int64(size) > d.capacity {
		return ErrDiskFull
	}
	d.written += int64(size)
	return nil
}

// occupy reserves device time for size bytes and returns how long the
// caller must wait (commit wait for sync mode, back-pressure for async).
func (d *SimDisk) occupy(size int, barrier bool) time.Duration {
	service := time.Duration(float64(size) / float64(d.spec.Throughput) * float64(time.Second))
	if barrier {
		service += d.spec.WriteLatency
	}
	service = time.Duration(float64(service) * d.scale)

	now := time.Now()
	d.mu.Lock()
	start := now
	if d.busyAt.After(start) {
		start = d.busyAt
	}
	done := start.Add(service)
	d.busyAt = done
	d.mu.Unlock()

	if d.sync {
		return done.Sub(now)
	}
	// Async: block only on backlog beyond the device's absorption window.
	backlog := done.Sub(now)
	limit := time.Duration(float64(d.spec.MaxBacklog) * d.scale)
	if backlog > limit {
		return backlog - limit
	}
	return 0
}

// Put stores the record, blocking per the device model.
func (d *SimDisk) Put(instance uint64, record []byte) error {
	if err := d.admit(len(record) + 16); err != nil {
		return err
	}
	if err := d.inner.Put(instance, record); err != nil {
		return err
	}
	// Synchronous mode pays a write barrier per put (batching disabled,
	// as in the paper's sync experiments); async pays serialization only.
	if wait := d.occupy(len(record)+16, d.sync); wait > 0 {
		time.Sleep(wait)
	}
	return nil
}

// PutBatch stores all records with a single write barrier (group commit):
// the device serializes the batch's bytes but pays WriteLatency once, so
// the simulated acceptor amortizes its seek/flash-program cost exactly as
// a FileWAL amortizes fsync.
func (d *SimDisk) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	size := 0
	for _, r := range recs {
		size += len(r.Data) + 16
	}
	if err := d.admit(size); err != nil {
		return err
	}
	if err := d.inner.PutBatch(recs); err != nil {
		return err
	}
	if wait := d.occupy(size, d.sync); wait > 0 {
		time.Sleep(wait)
	}
	return nil
}

// Get reads from the wrapped log (reads are served from cache; the paper's
// retransmissions read recent instances, which remain memory-resident).
func (d *SimDisk) Get(instance uint64) ([]byte, bool) { return d.inner.Get(instance) }

// Trim forwards to the wrapped log.
func (d *SimDisk) Trim(upTo uint64) error { return d.inner.Trim(upTo) }

// FirstRetained forwards to the wrapped log.
func (d *SimDisk) FirstRetained() uint64 { return d.inner.FirstRetained() }

// Last forwards to the wrapped log.
func (d *SimDisk) Last() uint64 { return d.inner.Last() }

// Sync waits for the virtual device to drain.
func (d *SimDisk) Sync() error {
	d.mu.Lock()
	busy := d.busyAt
	serr := d.syncErr
	d.mu.Unlock()
	if serr != nil {
		return serr
	}
	if wait := time.Until(busy); wait > 0 {
		time.Sleep(wait)
	}
	return d.inner.Sync()
}

// Close closes the wrapped log.
func (d *SimDisk) Close() error { return d.inner.Close() }
