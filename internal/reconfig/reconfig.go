// Package reconfig implements online reconfiguration for Multi-Ring Paxos
// deployments: dynamic group subscription (epoch transitions) and live
// MRP-Store partition splits.
//
// The paper's scalability story is "add multicast groups to add
// throughput" — this package is what lets a running deployment actually
// do that without stopping delivery. Deterministic merge makes it
// tractable: a subscription change pinned to one value in the merged
// stream (the marker) happens at exactly the same point on every learner,
// so replicas never diverge, and an MRP-Store partition split can name
// the exact handoff prefix after which the old partition stops owning the
// moved keys.
//
// Two split modes are supported:
//
//   - In-place: the old partition's replicas also host the new ring; they
//     resubscribe from {old} to {old, new} at the marker (an epoch
//     transition) and no data moves. This is the cheapest way to give a
//     hot key range its own ring — capacity scales with groups, as in the
//     paper's Figure 5 — and it is where the deterministic merge is
//     indispensable: learners switching at different points would
//     interleave the two rings differently and diverge.
//
//   - Scale-out: a new replica set takes over keys >= the split key. The
//     marker executes as an O(log n) copy-on-write tree split on the old
//     replicas (the delivery stall is independent of how many keys move),
//     the captured range streams to the new replicas as CRC-verified
//     chunks (the same transfer recovery uses for remote checkpoints),
//     the new replicas boot from a seed checkpoint holding exactly the
//     handoff prefix, and finally the schema version flips. Stale clients
//     hitting the shrunken partition get StatusWrongPartition and refresh.
package reconfig

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// Metrics is the controller's reconfiguration instrumentation.
type Metrics struct {
	// SchemaEpoch is the latest schema version this controller published.
	SchemaEpoch metrics.Gauge
	// MigratedKeys counts keys moved to new partitions by scale-out
	// splits.
	MigratedKeys metrics.Counter
}

// Config wires a Controller into a deployment.
type Config struct {
	// Coord is the coordination service (schema, ring registry).
	Coord *coord.Service
	// Client submits the split marker through consensus.
	Client *smr.Client
	// Self/Transport/Service are the controller's own process: prepare
	// acks and range chunks arrive on Service, requests go out on
	// Transport. Use a process distinct from Client's (each process's
	// service inbox has a single consumer).
	Self      transport.ProcessID
	Transport transport.Transport
	Service   *transport.Inbox
	// Timeout bounds each protocol phase (default 5s).
	Timeout time.Duration
}

// Controller drives reconfigurations. One reconfiguration runs at a time;
// Split blocks until the change is committed (schema flipped) or failed.
type Controller struct {
	cfg     Config
	timeout time.Duration

	// Metrics is exported instrumentation.
	Metrics Metrics

	markerSeq atomic.Uint32

	// mu makes reconfigurations single-flight, so the phase running is
	// the one reader of the service inbox.
	mu sync.Mutex

	done     chan struct{}
	stopOnce sync.Once
}

// NewController returns a controller.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Coord == nil || cfg.Client == nil || cfg.Transport == nil || cfg.Service == nil {
		return nil, errors.New("reconfig: Coord, Client, Transport and Service are required")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	return &Controller{cfg: cfg, timeout: cfg.Timeout, done: make(chan struct{})}, nil
}

// Close aborts a reconfiguration in progress.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.done) })
}

var errClosed = errors.New("reconfig: controller closed")

// SplitSpec parameterizes a partition split.
type SplitSpec struct {
	// OldGroup is the partition ring being split; NewGroup takes over
	// keys >= Key. NewGroup's ring must already be registered with the
	// coordination service.
	OldGroup, NewGroup transport.RingID
	// Key is the split point (must lie strictly inside OldGroup's range).
	Key string
	// InPlace selects the no-data-movement mode: OldReplicas host the
	// new ring themselves and resubscribe at the marker.
	InPlace bool
	// OldReplicas are the old partition's replica processes — prepared
	// for the epoch transition (in-place) or asked for the captured
	// range (scale-out).
	OldReplicas []transport.ProcessID
}

// SplitResult reports a committed split.
type SplitResult struct {
	// Marker is the multicast value id that pinned the handoff point.
	Marker uint64
	// Schema is the published post-split schema.
	Schema store.Schema
	// Seed is the checkpoint the new partition's replicas boot from
	// (scale-out only; zero for in-place).
	Seed recovery.Checkpoint
	// MovedKeys counts the keys captured for migration (scale-out only).
	MovedKeys int
	// Phase durations (instrumentation).
	PrepareDuration, MarkerDuration, TransferDuration time.Duration
}

// Split executes a live partition split end to end:
//
//  1. Validate the spec against the published schema.
//  2. In-place: arm the epoch transition at every old replica
//     (prepare/ack handshake) so all learners cut at the marker.
//  3. Multicast the split marker through the old group with the
//     pre-agreed value id and wait for it to execute.
//  4. Scale-out: fetch the captured key range from an old replica as
//     CRC-verified chunks, build the new partition's seed checkpoint and
//     hand it to boot (which seeds the checkpoint stores and starts the
//     new replicas; delivery keeps running on the old partition
//     throughout).
//  5. Publish the post-split schema (version+1). Clients refresh on
//     StatusWrongPartition or on their next version check.
//
// boot may be nil for in-place splits.
func (c *Controller) Split(spec SplitSpec, boot func(*SplitResult) error) (*SplitResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	schema, err := store.LoadSchema(c.cfg.Coord)
	if err != nil {
		return nil, err
	}
	if schema.PartitionOf(spec.Key) != spec.OldGroup {
		return nil, fmt.Errorf("reconfig: key %q is owned by group %d, not %d", spec.Key, schema.PartitionOf(spec.Key), spec.OldGroup)
	}
	newSchema, err := schema.SplitRange(spec.NewGroup, spec.Key)
	if err != nil {
		return nil, err
	}
	if !spec.InPlace && schema.GlobalGroup != 0 {
		// A scale-out split would need to pin the new replicas' position
		// in the global stream too; the marker only pins the old group's.
		return nil, errors.New("reconfig: scale-out splits require an independent-rings schema (no global group); use an in-place split instead")
	}
	if _, ok := c.cfg.Coord.Ring(spec.NewGroup); !ok {
		return nil, fmt.Errorf("reconfig: ring %d is not registered; create it (with its members) before splitting", spec.NewGroup)
	}

	res := &SplitResult{
		Marker: transport.MakeValueID(c.cfg.Self, c.markerSeq.Add(1)),
		Schema: newSchema,
	}

	if spec.InPlace {
		start := time.Now()
		if err := c.prepareAll(spec, res.Marker, schema); err != nil {
			c.cancelAll(spec, res.Marker)
			return nil, err
		}
		res.PrepareDuration = time.Since(start)
	}

	// Multicast the marker with the pre-agreed value id; replicas execute
	// the O(log n) split (scale-out) and/or the merge cuts the epoch at
	// exactly this value (in-place).
	start := time.Now()
	op := store.Op{
		Kind:  store.OpSplit,
		Key:   spec.Key,
		Value: store.SplitSpec{ID: res.Marker, NewGroup: spec.NewGroup, InPlace: spec.InPlace}.Encode(),
	}
	// On any marker failure, disarm the prepared transitions (in-place):
	// an armed marker that is never decided would otherwise reject every
	// future reconfiguration as "already pending". If the proposal was
	// lost, disarming restores the exact pre-split state. In the
	// double-fault race (marker decided but the response lost), replicas
	// the cancel beats keep the old subscription while the rest switch —
	// the schema never flips, so the new ring carries no commands and
	// per-key order is unaffected; a retried split re-arms everyone and
	// converges the subscriptions at its own marker.
	raw, err := c.cfg.Client.SubmitMarker(spec.OldGroup, op.Request(), res.Marker, c.timeout)
	if err != nil {
		if spec.InPlace {
			c.cancelAll(spec, res.Marker)
		}
		return nil, fmt.Errorf("reconfig: split marker: %w", err)
	}
	if mres, err := store.DecodeResult(raw); err != nil {
		if spec.InPlace {
			c.cancelAll(spec, res.Marker)
		}
		return nil, fmt.Errorf("reconfig: split marker response: %w", err)
	} else if mres.Status != store.StatusOK {
		if spec.InPlace {
			c.cancelAll(spec, res.Marker)
		}
		return nil, fmt.Errorf("reconfig: split marker rejected: %s", mres.Status)
	}
	res.MarkerDuration = time.Since(start)

	if !spec.InPlace {
		start = time.Now()
		snap, err := c.fetchRange(spec, res.Marker)
		if err != nil {
			return nil, err
		}
		res.TransferDuration = time.Since(start)
		res.MovedKeys = store.SnapshotLen(snap)
		// Scale-out requires an independent-rings schema (checked
		// above), so the new partition subscribes to its own ring only.
		res.Seed = smr.SeedCheckpoint([]transport.RingID{spec.NewGroup}, 1, snap)
		c.Metrics.MigratedKeys.Add(uint64(res.MovedKeys))
	}

	if boot != nil {
		if err := boot(res); err != nil {
			return nil, fmt.Errorf("reconfig: boot new partition: %w", err)
		}
	}

	// Commit: flip the schema. From here clients route moved keys to the
	// new partition; stragglers refresh on StatusWrongPartition.
	if err := store.PublishSchema(c.cfg.Coord, newSchema); err != nil {
		return nil, fmt.Errorf("reconfig: publish schema: %w", err)
	}
	c.Metrics.SchemaEpoch.SetMax(int64(newSchema.Version))

	if !spec.InPlace {
		// The transfer is durable at the new partition; release the
		// stashed ranges on the old replicas.
		for _, p := range spec.OldReplicas {
			_ = c.cfg.Transport.Send(p, transport.Message{
				Kind:     transport.KindRangeReq,
				Instance: res.Marker,
				Count:    1, // release
			})
		}
	}
	return res, nil
}

// prepareAll arms the epoch transition at every old replica and waits for
// all acks: the determinism contract requires every learner to know the
// marker before it can be delivered.
func (c *Controller) prepareAll(spec SplitSpec, marker uint64, schema store.Schema) error {
	if len(spec.OldReplicas) == 0 {
		return errors.New("reconfig: in-place split needs the old partition's replica list")
	}
	newSub := []transport.RingID{spec.OldGroup, spec.NewGroup}
	if schema.GlobalGroup != 0 {
		newSub = append(newSub, schema.GlobalGroup)
	}
	payload := smr.EncodeRingIDs(newSub)
	for _, p := range spec.OldReplicas {
		if err := c.cfg.Transport.Send(p, transport.Message{
			Kind:     transport.KindReconfigPrepare,
			Seq:      marker,
			Instance: marker,
			Payload:  payload,
		}); err != nil {
			return fmt.Errorf("reconfig: prepare %d: %w", p, err)
		}
	}
	need := make(map[transport.ProcessID]bool, len(spec.OldReplicas))
	for _, p := range spec.OldReplicas {
		need[p] = true
	}
	deadline := time.After(c.timeout)
	var burst []transport.Message
	for len(need) > 0 {
		select {
		case <-c.cfg.Service.Ready():
			var open bool
			burst, open = c.cfg.Service.Take(burst[:0], 64)
			for _, m := range burst {
				if m.Kind != transport.KindReconfigAck || m.Seq != marker {
					continue // late traffic from a finished phase
				}
				if m.Instance != 0 {
					return fmt.Errorf("reconfig: replica %d rejected prepare: %s", m.From, m.Payload)
				}
				delete(need, m.From)
			}
			if !open {
				return errClosed
			}
		case <-deadline:
			return fmt.Errorf("reconfig: prepare timed out waiting for %d replica(s)", len(need))
		case <-c.done:
			return errClosed
		}
	}
	return nil
}

// cancelAll disarms a prepared transition after an aborted split so a
// later attempt (with a fresh marker) is not rejected as already pending.
func (c *Controller) cancelAll(spec SplitSpec, marker uint64) {
	for _, p := range spec.OldReplicas {
		_ = c.cfg.Transport.Send(p, transport.Message{
			Kind:     transport.KindReconfigPrepare,
			Seq:      marker,
			Instance: marker,
			Count:    1, // cancel
		})
	}
}

// fetchRange pulls the captured outgoing range from the old replicas,
// trying each in turn until one streams a verifiable transfer.
func (c *Controller) fetchRange(spec SplitSpec, marker uint64) ([]byte, error) {
	if len(spec.OldReplicas) == 0 {
		return nil, errors.New("reconfig: scale-out split needs the old partition's replica list")
	}
	var lastErr error
	for _, p := range spec.OldReplicas {
		snap, err := c.fetchRangeFrom(p, marker)
		if err == nil {
			return snap, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("reconfig: range transfer failed at every replica: %w", lastErr)
}

func (c *Controller) fetchRangeFrom(p transport.ProcessID, marker uint64) ([]byte, error) {
	req := transport.Message{
		Kind:     transport.KindRangeReq,
		Seq:      marker,
		Instance: marker,
	}
	if err := c.cfg.Transport.Send(p, req); err != nil {
		return nil, err
	}
	// Re-request periodically: the first request can race ahead of the
	// replica's own marker execution (service RPCs and delivery are
	// independent paths), and a replica without the stash stays silent.
	// Duplicate streams are harmless — the assembly ignores repeated
	// chunks.
	resend := time.NewTicker(25 * time.Millisecond)
	defer resend.Stop()
	var asm *smr.ChunkAssembly
	var burst []transport.Message
	deadline := time.After(c.timeout)
	for {
		select {
		case <-c.cfg.Service.Ready():
			var open bool
			burst, open = c.cfg.Service.Take(burst[:0], 64)
			for _, m := range burst {
				// Chunks of an earlier attempt, from another replica, are
				// skipped here.
				if m.Kind != transport.KindRangeChunk || m.Seq != marker || m.From != p {
					continue
				}
				if asm == nil {
					if asm = smr.NewChunkAssembly(m); asm == nil {
						return nil, fmt.Errorf("reconfig: replica %d sent nonsensical transfer framing", p)
					}
				}
				done, err := asm.Add(m)
				if err != nil {
					return nil, fmt.Errorf("reconfig: range transfer from %d: %w", p, err)
				}
				if done {
					return asm.Bytes(), nil
				}
			}
			if !open {
				return nil, errClosed
			}
		case <-resend.C:
			if asm == nil {
				if err := c.cfg.Transport.Send(p, req); err != nil {
					return nil, err
				}
			}
		case <-deadline:
			return nil, fmt.Errorf("reconfig: range transfer from %d timed out", p)
		case <-c.done:
			return nil, errClosed
		}
	}
}
