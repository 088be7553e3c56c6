package smr

import (
	"sync"
	"time"

	"amcast/internal/core"
	"amcast/internal/recovery"
)

// ckptEvent is an input to the checkpoint pipeline.
type ckptEvent uint8

const (
	ckptBoundary    ckptEvent = iota // deliverBatch applied a batch
	ckptDueBoundary                  // ditto, and a checkpoint is due: interval elapsed or epoch changed
	ckptSerialized                   // the writer serialized the pending capture
	ckptSaved                        // the writer saved that capture durably
	ckptSaveFailed                   // its Save failed
)

// ckptEffect is what a step asks of its caller.
type ckptEffect uint8

const (
	fxNone    ckptEffect = iota
	fxCapture            // cut this boundary and capture the state machine
	fxOwe                // cut this boundary and keep the cut as the owed one
	fxPayOwed            // capture the state machine for the owed cut
	fxAdvance            // the saved capture is durable: advance safeVec to it
)

// ckptState is the pipeline's decision state. step is its only transition
// function; it does no I/O, takes no lock and reads no clock.
type ckptState struct {
	pending   bool   // a capture is taken and not yet serialized
	owed      bool   // a boundary found a capture pending and owes its cut
	retry     bool   // the last Save failed: capture at the next boundary
	coalesced uint64 // due boundaries that found a capture pending
}

// step applies ev and returns the effect its caller must carry out.
func (s *ckptState) step(ev ckptEvent) ckptEffect {
	switch ev {
	case ckptBoundary, ckptDueBoundary:
		due := ev == ckptDueBoundary || s.retry
		if !due && !s.owed {
			return fxNone
		}
		if !s.pending {
			s.pending, s.owed, s.retry = true, false, false
			return fxCapture
		}
		if due {
			s.coalesced++
		}
		// The batch just applied moved the state past any older owed
		// cut, so the owed cut moves up to this boundary.
		s.owed = true
		return fxOwe
	case ckptSerialized:
		s.pending = false
		if s.owed {
			// Every boundary moves the owed cut up to itself, and no
			// batch is applied until the capture is taken, so the state
			// machine holds exactly the cut's state.
			s.pending, s.owed, s.retry = true, false, false
			return fxPayOwed
		}
	case ckptSaved:
		return fxAdvance
	case ckptSaveFailed:
		s.retry = true
	}
	return fxNone
}

// ckptPipeline turns batch boundaries into durable checkpoints without
// stalling delivery for their encoding (Section 5.2). The merge goroutine
// captures the state machine at a batch boundary — a cheap, immutable view
// — and the writer goroutine serializes the capture and saves it; safeVec,
// the tuple the trim protocol trusts, advances only once a Save succeeded.
// At most one capture is unserialized: a boundary that finds one pending
// owes its cut instead, and the writer pays the owed cut as soon as it has
// serialized the pending capture. A slow disk thus coalesces checkpoints
// instead of queueing them, and an owed checkpoint never waits for traffic.
//
// state.step makes every decision; the replica's goroutines feed it events
// under mu and carry out the effect it returns (feed). TestCheckpointModel
// checks step over every interleaving of events.
type ckptPipeline struct {
	mu        sync.Mutex
	state     ckptState
	owed      *ckptCapture    // the owed cut, snap unset; set iff state.owed
	safeVec   recovery.Vector // vector of the last durable checkpoint
	safeEpoch uint64          // subscription epoch of that checkpoint
	durable   uint64          // checkpoints saved since start
	stallMax  time.Duration   // longest capture, the time it blocked delivery

	// captures hands each capture to the writer. A capture is taken only
	// once the writer has serialized, so received, the last one: a send
	// never finds the buffer full.
	captures chan *ckptCapture // buffered 1
}

// ckptCapture is everything the writer needs to persist a checkpoint: the
// cut (vector, cursor and dedup windows of the state after a batch) and
// the state machine's capture of that state.
type ckptCapture struct {
	vector recovery.Vector
	cursor core.Cursor
	dedup  []byte
	snap   StateSnapshot
}

// feed steps the pipeline with ev and carries out the effect it returns.
// For a boundary or ckptSerialized the caller holds applyGate, so no batch
// is applied between a decision to capture and the capture. saved is the
// capture a ckptSaved event reports.
func (r *Replica) feed(ev ckptEvent, saved *ckptCapture) {
	p := &r.ckpt
	p.mu.Lock()
	fx := p.state.step(ev)
	var owed *ckptCapture
	switch fx {
	case fxOwe:
		p.owed = r.cut()
	case fxPayOwed:
		owed, p.owed = p.owed, nil
	case fxAdvance:
		p.safeVec, p.safeEpoch = saved.vector, saved.cursor.Epoch
		p.durable++
	}
	p.mu.Unlock()
	if fx == fxCapture || fx == fxPayOwed {
		r.capture(owed)
	}
}

// capture captures the state machine for the cut c — or, when c is nil,
// for a cut of this boundary — and hands it to the writer. It is the only
// caller of CaptureSnapshot. The caller holds applyGate, so the time it
// takes is the time the checkpoint blocks delivery.
func (r *Replica) capture(c *ckptCapture) {
	start := time.Now() //lint:allow determinism checkpoint-stall telemetry only: the duration feeds a local gauge, never replicated state or checkpoint bytes
	if c == nil {
		c = r.cut()
	}
	c.snap = r.cfg.SM.CaptureSnapshot()
	stall := time.Since(start) //lint:allow determinism checkpoint-stall telemetry only: the duration feeds a local gauge, never replicated state or checkpoint bytes
	p := &r.ckpt
	p.mu.Lock()
	p.stallMax = max(p.stallMax, stall)
	p.mu.Unlock()
	p.captures <- c
}

// cut reads the identifying tuple, merge cursor and dedup windows of the
// state after the last applied batch. Runs on the merge goroutine.
func (r *Replica) cut() *ckptCapture {
	return &ckptCapture{
		vector: r.cfg.Node.DeliveredVector(),
		cursor: r.cfg.Node.MergeCursor(),
		dedup:  encodeDedup(r.dedup), // merge-goroutine-owned state
	}
}

// checkpointWriter is the goroutine that turns captures into durable
// checkpoints, one at a time. Serializing a capture frees the pipeline for
// the next one; a failed Save leaves safeVec where it is, and the pipeline
// captures again at the next batch boundary. A capture still unserialized
// when the replica stops is dropped: the state machine executes nothing
// more for this replica.
func (r *Replica) checkpointWriter() {
	defer r.loops.Done()
	for {
		var c *ckptCapture
		select {
		case <-r.done:
			return
		case c = <-r.ckpt.captures:
		}
		snap := c.snap.Serialize()
		r.applyGate.Lock()
		r.feed(ckptSerialized, nil)
		r.applyGate.Unlock()
		ev := ckptSaved
		state := encodeStateParts(c.cursor, c.dedup, snap)
		if err := r.cfg.Checkpoints.Save(recovery.Checkpoint{Vector: c.vector, State: state}); err != nil {
			ev = ckptSaveFailed // keep serving; trim just cannot advance yet
		}
		r.feed(ev, c)
	}
}

// safe returns the tuple of the last durable checkpoint.
func (r *Replica) safe() (recovery.Vector, uint64) {
	r.ckpt.mu.Lock()
	defer r.ckpt.mu.Unlock()
	return r.ckpt.safeVec, r.ckpt.safeEpoch
}

// Epoch reports the subscription epoch of the last durable checkpoint.
func (r *Replica) Epoch() uint64 {
	_, epoch := r.safe()
	return epoch
}

// CheckpointCount reports checkpoints taken since start.
func (r *Replica) CheckpointCount() uint64 {
	r.ckpt.mu.Lock()
	defer r.ckpt.mu.Unlock()
	return r.ckpt.durable
}

// CheckpointStallMax reports the longest delivery stall a checkpoint has
// caused since start (the benchmark's recovery.ckpt_stall_max_ms).
func (r *Replica) CheckpointStallMax() time.Duration {
	r.ckpt.mu.Lock()
	defer r.ckpt.mu.Unlock()
	return r.ckpt.stallMax
}
