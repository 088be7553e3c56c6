package smr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// StateMachine is the deterministic service a Replica replicates. The
// replica executes delivered commands in merged order and checkpoints the
// state under the (vector, cursor) tuple (Sections 5–5.2). All three
// methods are invoked from a single goroutine.
type StateMachine interface {
	// ExecuteBatch applies a run of operations in order and returns the
	// responses sent back to the clients, positionally. The replica is
	// done with the returned slice (not with the responses in it) before
	// it calls again, so an implementation may reuse it.
	ExecuteBatch(groups []transport.RingID, ops [][]byte) [][]byte
	// CaptureSnapshot returns a cheap (ideally O(1)) immutable view of the
	// state after the last executed command. It is called at a batch
	// boundary; the background checkpoint writer serializes the view, so
	// delivery never stalls for the full encoding. The replica serializes
	// every capture it takes, and takes no new one while the last is
	// still unserialized.
	CaptureSnapshot() StateSnapshot
	// Restore replaces the state with a serialized snapshot.
	Restore(snapshot []byte) error
}

// StateSnapshot is an immutable point-in-time capture of a state
// machine's state. Serialize encodes the captured state; it may be called
// from a background goroutine concurrently with new commands executing
// against the live state, so implementations must not read mutable state.
//
// Serialize is called exactly once per capture. Once it returns, the state
// machine may reuse what the capture shared with the live state — write
// over it in place — so the capture must not be read again.
type StateSnapshot interface {
	Serialize() []byte
}

// ReplicaConfig configures a replica process.
type ReplicaConfig struct {
	// Self is this replica's process id.
	Self transport.ProcessID
	// Partition identifies the replica's partition. By convention it is
	// the partition's own ring id; it tags responses so clients can
	// count distinct partitions on multi-partition operations.
	Partition transport.RingID
	// Groups is the subscription: the partition's ring(s) plus any
	// global ring. Replicas subscribing to the same set form a
	// partition in the sense of Section 5.2.
	Groups []transport.RingID
	// Peers are the other replicas of the same partition, used for
	// remote checkpoints during recovery.
	Peers []transport.ProcessID

	// Node is the Multi-Ring Paxos endpoint (not yet subscribed; the
	// replica subscribes after recovery so StartVector can be applied).
	// Build it with BuildNode, which handles recovery.
	Node *core.Node
	// Transport sends client responses and recovery RPC replies.
	Transport transport.Transport
	// Service is the non-consensus message inbox of this process's
	// router.
	Service *transport.Inbox
	// SM is the replicated state machine.
	SM StateMachine
	// Checkpoints persists checkpoints (required when CheckpointEvery
	// or trim is used).
	Checkpoints recovery.Store
	// CheckpointEvery takes a checkpoint after this many commands.
	// Zero disables periodic checkpoints.
	CheckpointEvery int
	// ServiceHook, if set, is offered service messages the replica does
	// not handle itself (e.g. MRP-Store's partition-split range
	// transfers). It runs on the replica's service goroutine; it returns
	// true when it consumed the message.
	ServiceHook func(transport.Message) bool
	// Tracer, when set, records "apply" spans for sampled deliveries and
	// rides the trace context back on the client response frame. Purely
	// telemetry; never feeds replicated state.
	Tracer *trace.Recorder
}

// Replica drives a replicated state machine: it subscribes to the
// partition's groups, executes delivered commands, responds to clients,
// checkpoints, answers the trim protocol and serves recovery RPCs.
type Replica struct {
	cfg ReplicaConfig
	tr  transport.Transport

	// applyGate serializes command application (write side, held across
	// deliverBatch) against local reads (read side): the applied vector
	// describes batch boundaries, so a mid-batch state must never be
	// observed.
	applyGate sync.RWMutex

	// Read-index state: appliedVec is the delivered prefix whose
	// commands have all been executed (advanced by the node's
	// batch-boundary callback, including skip-only flushes). parked holds
	// the reads that wait until it covers their requirement, in arrival
	// order; the service loop alone changes it, under readMu, and a
	// boundary kicks the loop on readKick while it is not empty.
	readMu     sync.Mutex
	appliedVec recovery.Vector
	parked     []parkedRead
	readKick   chan struct{} // buffered 1
	readWait   *metrics.Histogram
	localReads atomic.Uint64

	// Owned by the service loop: the timer armed to the earliest parked
	// deadline, how long a read may stay parked, the reads a sweep answers,
	// the scratch buffer a state machine writes a local read's result
	// into and the block replies are cut from.
	readTimer   *time.Timer
	readWaitMax time.Duration
	ready       []parkedRead
	readBuf     []byte
	readReplies []byte

	// ckpt is the checkpoint pipeline (checkpoint.go); it holds safeVec,
	// the only state shared with the service loop (trim and recovery
	// RPCs). Everything below it is owned by the merge goroutine, so
	// batch execution never holds a lock a service RPC could wait on.
	ckpt ckptPipeline

	// resubArmed is set while an epoch transition is registered with the
	// node and cleared once the merge applies it (observed at a batch
	// boundary, where the transition is checkpointed immediately).
	resubArmed atomic.Bool
	epoch      uint64 // merge-goroutine view of the subscription epoch

	// Merge-goroutine-owned execution state.
	dedup     map[transport.ProcessID]*clientWindow // duplicate suppression
	sinceCkpt int

	// Scratch buffers for batch execution, owned by the merge goroutine
	// and reused across batches: the current run of dedup-cleared
	// commands awaiting execution, and the batch's pending responses.
	runGroups []transport.RingID
	runOps    [][]byte
	runWins   []*clientWindow
	runSeqs   []uint64
	runResp   []int // respBuf index whose Payload the run result fills
	runKeys   map[cmdKey]struct{}
	respBuf   []transport.Message
	respVec   recovery.Vector // delivered high-water marks stamped on respBuf

	executedTotal atomic.Uint64

	done     chan struct{}
	loops    sync.WaitGroup // the service loop and the checkpoint writer
	stopOnce sync.Once
}

// NewReplica starts a replica: it restores the recovered checkpoint into
// the state machine, joins and subscribes the node, and begins executing.
func NewReplica(cfg ReplicaConfig, recovered recovery.Checkpoint) (*Replica, error) {
	if cfg.Node == nil || cfg.SM == nil {
		return nil, errors.New("smr: Node and SM are required")
	}
	r := &Replica{
		cfg:         cfg,
		tr:          cfg.Transport,
		dedup:       make(map[transport.ProcessID]*clientWindow),
		appliedVec:  make(recovery.Vector),
		respVec:     make(recovery.Vector),
		runKeys:     make(map[cmdKey]struct{}),
		ckpt:        ckptPipeline{captures: make(chan *ckptCapture, 1)},
		done:        make(chan struct{}),
		readKick:    make(chan struct{}, 1),
		readWait:    metrics.NewHistogram(),
		readTimer:   time.NewTimer(localReadWaitMax),
		readWaitMax: localReadWaitMax,
	}
	r.readTimer.Stop()
	groups := cfg.Groups
	r.ckpt.safeVec = recovered.Vector.Clone()
	if len(recovered.State) > 0 {
		cur, dedup, snap, err := decodeStateParts(recovered.State)
		if err != nil {
			return nil, fmt.Errorf("smr: corrupt recovered checkpoint: %w", err)
		}
		if err := cfg.SM.Restore(snap); err != nil {
			return nil, fmt.Errorf("smr: restore snapshot: %w", err)
		}
		if r.dedup, err = decodeDedup(dedup); err != nil {
			return nil, fmt.Errorf("smr: corrupt recovered dedup table: %w", err)
		}
		r.ckpt.safeEpoch = cur.Epoch
		r.epoch = cur.Epoch
		// The checkpointed cursor records the subscription in force when
		// it was taken — including epoch transitions applied since the
		// replica was configured. Restoring it (rather than cfg.Groups)
		// is what lets a killed replica come back with its post-split
		// group set.
		if len(cur.Groups) > 0 {
			groups = append([]transport.RingID(nil), cur.Groups...)
		}
		// Re-persist locally so our own store has what we installed.
		if cfg.Checkpoints != nil {
			if err := cfg.Checkpoints.Save(recovered); err != nil {
				return nil, fmt.Errorf("smr: persist recovered checkpoint: %w", err)
			}
		}
	}
	r.cfg.Groups = groups
	for _, g := range groups {
		if err := cfg.Node.Join(g); err != nil {
			return nil, fmt.Errorf("smr: join group %d: %w", g, err)
		}
	}
	// Keep the checkpoint cadence: one delivery batch must not span more
	// than one checkpoint interval.
	if cfg.CheckpointEvery > 0 {
		cfg.Node.LimitBatch(cfg.CheckpointEvery)
	}
	cfg.Node.SetBatchBoundary(r.noteBoundary)
	if err := cfg.Node.SubscribeBatch(r.deliverBatch, groups...); err != nil {
		return nil, fmt.Errorf("smr: subscribe: %w", err)
	}
	// Seed the applied vector with the subscription's start positions so
	// read-index coverage checks know which groups this replica serves
	// even before the first batch boundary (the fold takes maxima, so a
	// boundary that already fired is never regressed).
	r.readMu.Lock()
	cfg.Node.FoldDeliveredVector(r.appliedVec)
	r.readMu.Unlock()
	r.loops.Add(2)
	go r.checkpointWriter()
	go r.serviceLoop()
	return r, nil
}

// deliverBatch executes one batch of delivered commands; it runs on the
// merge goroutine, so state machine access is single-threaded and the
// whole pass — duplicate suppression, execution and checkpoint accounting
// — touches only merge-owned state, lock-free. Client responses are
// flushed together after execution.
//
// Ownership: d.Data may alias pooled buffers the core releases when this
// handler returns, so everything here — decode, execute, reply flush —
// happens synchronously inside the call, and nothing (state machine
// input, dedup-window responses, respBuf payloads) retains a slice of
// d.Data past it. A state machine that wants to keep command bytes must
// copy them.
//
//lint:deterministic
func (r *Replica) deliverBatch(ds []core.Delivery) {
	// Local reads are shut out for the duration.
	r.applyGate.Lock()
	r.respBuf = r.respBuf[:0]
	executed := 0

	for _, d := range ds {
		cmd, err := DecodeCommand(d.Data)
		if err != nil {
			continue // not a command (foreign traffic on a shared group)
		}
		w := r.dedup[cmd.Client]
		if w == nil {
			w = newClientWindow(0)
			r.dedup[cmd.Client] = w
		}
		key := cmdKey{cmd.Client, cmd.Seq}
		if _, pending := r.runKeys[key]; pending {
			// The same command appears twice in one batch: settle the
			// run so the window exposes the first occurrence's result
			// and the repeat is suppressed as the duplicate it is.
			executed += r.flushRun()
		}
		dup, resp := w.check(cmd.Seq)
		if dup {
			r.appendResp(cmd, d.Group, resp)
			continue
		}
		r.runKeys[key] = struct{}{}
		r.runGroups = append(r.runGroups, d.Group)
		r.runOps = append(r.runOps, cmd.Op)
		r.runWins = append(r.runWins, w)
		r.runSeqs = append(r.runSeqs, cmd.Seq)
		idx := r.appendResp(cmd, d.Group, nil)
		r.runResp = append(r.runResp, idx)
		if r.cfg.Tracer != nil && d.Trace.Sampled() {
			r.cfg.Tracer.Add(d.Trace, "apply", uint32(d.Group), d.Instance, d.ValueID, time.Now(), 0) //lint:allow determinism trace telemetry only: the span timestamp feeds the trace recorder, never replicated state
			if idx >= 0 {
				// Ride the context back on the reply frame so the trace
				// spans the full round trip on the wire as well.
				r.respBuf[idx].Traces = []transport.TraceRef{{ValueID: d.ValueID, Ctx: d.Trace}}
			}
		}
	}
	executed += r.flushRun()
	r.sinceCkpt += executed
	ckptEv := ckptBoundary
	if r.cfg.CheckpointEvery > 0 && r.sinceCkpt >= r.cfg.CheckpointEvery {
		// Carry the overshoot: a checkpoint is taken at the first
		// batch boundary after each interval. One oversized batch
		// (a packed instance can exceed LimitBatch) yields a single
		// checkpoint — taking several at the same boundary would
		// snapshot identical state.
		r.sinceCkpt %= r.cfg.CheckpointEvery
		ckptEv = ckptDueBoundary
	}
	if r.resubArmed.Load() {
		// An epoch transition is registered with the node; the merge cut
		// the marker batch right here if it fired. Checkpoint the
		// transition immediately so recovery — local or via a peer's
		// higher-epoch tuple — restores the new subscription instead of
		// replaying the marker unarmed.
		if cur := r.cfg.Node.MergeCursor(); cur.Epoch > r.epoch {
			r.epoch = cur.Epoch
			r.resubArmed.Store(false)
			ckptEv = ckptDueBoundary
		}
	}

	if executed > 0 {
		r.executedTotal.Add(uint64(executed))
	}
	// Checkpoint at the batch boundary: DeliveredVector/MergeCursor
	// describe exactly the state after this batch (Section 5.2).
	if r.cfg.Checkpoints != nil {
		r.feed(ckptEv, nil)
	}
	r.applyGate.Unlock()
	// Flush the batch's client responses. Ring carries the delivery
	// group, Count the partition tag, so clients can both match
	// single-group commands and count distinct partitions on
	// multi-partition ones. Instance carries the post-batch delivered
	// high-water mark of the response's group: the client folds it into
	// its observed vector, which is exactly the requirement a read-index
	// local read later presents (read-your-writes).
	if len(r.respBuf) > 0 {
		r.cfg.Node.FoldDeliveredVector(r.respVec)
	}
	for i := range r.respBuf {
		r.respBuf[i].Instance = r.respVec[r.respBuf[i].Ring]
		_ = r.tr.Send(r.respBuf[i].To, r.respBuf[i])
		r.respBuf[i] = transport.Message{} // release payload references
	}
}

// appendResp queues a client response for the batch flush and returns its
// index in respBuf (-1 when the replica has no transport). The destination
// rides in Message.To until Send stamps it.
func (r *Replica) appendResp(cmd Command, group transport.RingID, payload []byte) int {
	if r.tr == nil {
		return -1
	}
	r.respBuf = append(r.respBuf, transport.Message{
		Kind:    transport.KindResponse,
		To:      cmd.Client,
		Ring:    group,
		Count:   uint32(r.cfg.Partition),
		Seq:     cmd.Seq,
		Payload: payload,
	})
	return len(r.respBuf) - 1
}

// flushRun executes the pending run of dedup-cleared commands in one
// ExecuteBatch call, records results in the client windows and fills the
// queued responses. Runs on the merge goroutine. Returns the number of
// commands executed.
func (r *Replica) flushRun() int {
	nrun := len(r.runOps)
	if nrun == 0 {
		return 0
	}
	for i, out := range r.cfg.SM.ExecuteBatch(r.runGroups, r.runOps) {
		r.runWins[i].record(r.runSeqs[i], out)
		if idx := r.runResp[i]; idx >= 0 {
			r.respBuf[idx].Payload = out
		}
	}
	r.runGroups = r.runGroups[:0]
	r.runOps = r.runOps[:0]
	r.runWins = r.runWins[:0]
	r.runSeqs = r.runSeqs[:0]
	r.runResp = r.runResp[:0]
	clear(r.runKeys)
	return nrun
}

// serviceLoop answers trim and recovery RPCs and serves local reads: a
// parked read is answered from here when a batch boundary covers it, when
// its deadline passes or, at the latest, when the loop exits.
func (r *Replica) serviceLoop() {
	defer r.loops.Done()
	defer r.sweepReads(true)
	var burst []transport.Message
	for {
		select {
		case <-r.done:
			return
		case <-r.cfg.Service.Ready():
			var open bool
			burst, open = r.cfg.Service.Take(burst[:0], 64)
			for _, m := range burst {
				r.handleService(m)
			}
			if !open {
				return
			}
		case <-r.readKick:
			r.sweepReads(false)
		case <-r.readTimer.C:
			r.sweepReads(false)
		}
	}
}

func (r *Replica) handleService(m transport.Message) {
	switch m.Kind {
	case transport.KindSafeReq:
		// Trim protocol: report k[x]p, the group's instance in our
		// last durable checkpoint (Section 5.2, Predicate 2).
		vec, _ := r.safe()
		k := vec[m.Ring]
		if r.tr != nil {
			_ = r.tr.Send(m.From, transport.Message{
				Kind:     transport.KindSafeResp,
				Ring:     m.Ring,
				Instance: k,
			})
		}
	case transport.KindCheckpointReq:
		vec, epoch := r.safe()
		if r.tr != nil {
			// The subscription epoch rides after the vector so the
			// recovering peer can rank tuples across reconfigurations.
			payload := recovery.EncodeVector(vec)
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], epoch)
			_ = r.tr.Send(m.From, transport.Message{
				Kind:    transport.KindCheckpointResp,
				Seq:     m.Seq,
				Payload: append(payload, tmp[:]...),
			})
		}
	case transport.KindSnapshotReq:
		if r.cfg.Checkpoints == nil || r.tr == nil {
			return
		}
		cp, ok := r.cfg.Checkpoints.Latest()
		if !ok {
			return
		}
		// Stream the checkpoint in bounded chunks; a monolithic frame
		// cannot carry states past the transport frame cap.
		sendSnapshotChunks(r.tr, m.From, m.Seq, cp.Encode())
	case transport.KindLocalRead:
		// Answered inline or parked, never waited for: the loop keeps
		// answering trim and recovery RPCs while reads are parked.
		r.localRead(m)
	case transport.KindReconfigPrepare:
		// Reconfiguration handshake: arm the epoch transition before the
		// controller multicasts the marker, and ack so the controller
		// knows every learner will cut at the same point. Count 1 is the
		// abort path: disarm a prepared transition whose marker will
		// never be multicast.
		if m.Count == 1 {
			if r.cfg.Node.CancelResubscribe(m.Instance) {
				r.resubArmed.Store(false)
			}
			return
		}
		groups, err := DecodeRingIDs(m.Payload)
		if err == nil {
			err = r.Resubscribe(m.Instance, groups...)
		}
		if r.tr != nil {
			ack := transport.Message{Kind: transport.KindReconfigAck, Seq: m.Seq}
			if err != nil {
				ack.Instance = 1
				ack.Payload = []byte(err.Error())
			}
			_ = r.tr.Send(m.From, ack)
		}
	default:
		if r.cfg.ServiceHook != nil {
			r.cfg.ServiceHook(m)
		}
	}
}

// Resubscribe arms an epoch transition: the replica joins any groups it
// has not joined yet and registers the marker with the node; when the
// merge delivers the marker value the subscription switches to groups and
// the transition is checkpointed at that exact batch boundary. Safe to
// call from the service goroutine (the reconfig prepare RPC) or from
// application code.
func (r *Replica) Resubscribe(marker uint64, groups ...transport.RingID) error {
	if len(groups) == 0 {
		return errors.New("smr: empty resubscription")
	}
	for _, g := range groups {
		if err := r.cfg.Node.Join(g); err != nil {
			return fmt.Errorf("smr: join group %d: %w", g, err)
		}
	}
	if err := r.cfg.Node.PrepareResubscribe(marker, groups...); err != nil {
		return err
	}
	r.resubArmed.Store(true)
	return nil
}

// CoreNode exposes the replica's consensus node (diagnostics: ring
// stats, merge stalls, WAL health).
func (r *Replica) CoreNode() *core.Node { return r.cfg.Node }

// EncodeRingIDs serializes a group list for reconfiguration RPC payloads.
//
//lint:deterministic
func EncodeRingIDs(ids []transport.RingID) []byte {
	buf := make([]byte, 4, 4+4*len(ids))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ids)))
	var tmp [4]byte
	for _, g := range ids {
		binary.LittleEndian.PutUint32(tmp[:], uint32(g))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodeRingIDs parses EncodeRingIDs output.
func DecodeRingIDs(buf []byte) ([]transport.RingID, error) {
	if len(buf) < 4 {
		return nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) != 4*n {
		return nil, recovery.ErrCorrupt
	}
	out := make([]transport.RingID, n)
	for i := range out {
		out[i] = transport.RingID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// SeedCheckpoint builds the checkpoint a freshly split-off partition
// replica boots from: the transferred state snapshot under the new
// subscription at the given epoch, delivery starting at each group's
// first instance, with an empty duplicate-suppression table.
func SeedCheckpoint(groups []transport.RingID, epoch uint64, snap []byte) recovery.Checkpoint {
	sorted := append([]transport.RingID(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	vec := make(recovery.Vector, len(sorted))
	for _, g := range sorted {
		vec[g] = 0
	}
	cur := core.Cursor{Groups: sorted, Credits: make([]uint64, len(sorted)), Epoch: epoch}
	return recovery.Checkpoint{Vector: vec, State: encodeStateParts(cur, encodeDedup(nil), snap)}
}

// ExecutedCount reports commands executed (excluding duplicates).
func (r *Replica) ExecutedCount() uint64 { return r.executedTotal.Load() }

// Stop halts the replica, its checkpoint writer and its node. The node
// stops first — Node.Stop joins the merge goroutine — so no capture can
// be enqueued after the checkpoint writer exits. The service loop answers
// the reads still parked on its way out.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.cfg.Node.Stop()
		close(r.done)
		r.loops.Wait()
	})
}
