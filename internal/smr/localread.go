package smr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// Local reads let a client read one replica directly, skipping the
// multicast round, in two modes:
//
//   - Read-index: the request carries the client's observed applied
//     vector (built from the Instance stamps on every reply the client
//     has seen). The replica waits until its own applied vector covers
//     the requirement before serving — the read observes every write the
//     client has observed, so the client's session stays causally
//     consistent (read-your-writes, monotonic reads) without ordering
//     the read through consensus.
//   - Bounded staleness: the request carries a staleness bound. The
//     replica serves immediately if its deterministic merge flushed a
//     batch boundary within the bound; otherwise it refuses with an
//     explicit stale error instead of silently returning old data. With
//     rate leveling active, skip batches act as the liveness heartbeat.
type LocalReadMode uint8

// Local-read modes.
const (
	// ReadIndex waits until the serving replica's applied state covers
	// the client's observed vector.
	ReadIndex LocalReadMode = iota + 1
	// BoundedStale serves immediately if the replica proved merge
	// progress within the client's bound, else fails with ErrStale.
	BoundedStale
)

// Local-read response status codes (first payload byte of a
// KindLocalReadResp message).
const (
	// LocalReadOK: the rest of the payload is the operation's result.
	LocalReadOK byte = iota
	// LocalReadStale: a bounded-staleness read found the replica beyond
	// its staleness bound.
	LocalReadStale
	// LocalReadUnsupported: the state machine does not serve local
	// reads, or the operation is not read-only.
	LocalReadUnsupported
	// LocalReadTimeout: a read-index wait did not get covered in time.
	LocalReadTimeout
	// LocalReadBadRequest: the request payload did not decode.
	LocalReadBadRequest
)

// Local-read errors surfaced to clients.
var (
	// ErrStale reports a bounded-staleness read refused because the
	// replica could not prove freshness within the requested bound.
	ErrStale = errors.New("smr: local read: replica staleness bound exceeded")
	// ErrLocalReadUnsupported reports a local read the serving state
	// machine cannot execute (not read-only, or no LocalReader support).
	ErrLocalReadUnsupported = errors.New("smr: local read: operation not supported")
)

// localReadWaitMax bounds how long a replica parks a read-index read
// waiting for its applied vector to cover the client's requirement: the
// default of Replica.readWaitMax.
const localReadWaitMax = 10 * time.Second

// LocalReader is the optional state-machine extension serving local
// reads. AppendLocalRead executes op against current state if it is
// read-only and appends the encoded result to dst, returning ok=false
// otherwise. It is called on the replica's service loop with the apply
// gate held in read mode: never concurrently with command application.
type LocalReader interface {
	AppendLocalRead(dst []byte, group transport.RingID, op []byte) (resp []byte, ok bool)
}

// localReadRequest builds a KindLocalRead payload in bytes cut from the
// client's request block: mode byte, then for ReadIndex the client's
// observed vector as the self-delimiting encoded requirement, for
// BoundedStale the bound in big-endian nanoseconds, then the inner op,
// encoded straight into it after the lock is released.
func (c *Client) localReadRequest(mode LocalReadMode, bound time.Duration, op Op) []byte {
	c.mu.Lock()
	head := 8
	if mode == ReadIndex {
		head = recovery.EncodedVectorLen(len(c.observedGroups))
	}
	out := append(bufpool.Cut(&c.requests, clientBlock, 1+head+op.Len)[:0], byte(mode))
	switch mode {
	case ReadIndex:
		out = recovery.AppendVector(out, c.observed, c.observedGroups)
	case BoundedStale:
		out = binary.BigEndian.AppendUint64(out, uint64(bound))
	}
	c.mu.Unlock()
	return op.Append(out)
}

// decodeLocalRead splits a KindLocalRead payload back into its parts, all
// views of payload; req is the requirement still encoded, for
// recovery.Vector.Covers.
func decodeLocalRead(payload []byte) (mode LocalReadMode, req []byte, bound time.Duration, op []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, 0, nil, fmt.Errorf("smr: local read: empty payload")
	}
	mode, rest := LocalReadMode(payload[0]), payload[1:]
	switch mode {
	case ReadIndex:
		req, rest, err = recovery.SplitVector(rest)
		if err != nil {
			return 0, nil, 0, nil, fmt.Errorf("smr: local read: requirement: %w", err)
		}
	case BoundedStale:
		if len(rest) < 8 {
			return 0, nil, 0, nil, fmt.Errorf("smr: local read: truncated bound")
		}
		bound, rest = time.Duration(binary.BigEndian.Uint64(rest)), rest[8:]
	default:
		return 0, nil, 0, nil, fmt.Errorf("smr: local read: unknown mode %d", mode)
	}
	return mode, req, bound, rest, nil
}

// parkedRead is a read-index read the service loop holds until the
// replica's applied vector covers req, the encoded requirement as the
// request carried it (a service message's payload is heap memory nothing
// recycles, on both transports), or until readWaitMax has passed since it
// arrived.
type parkedRead struct {
	m       transport.Message
	req, op []byte
	arrived time.Time
	expired bool // answered LocalReadTimeout, not served
}

// noteBoundary runs on the merge goroutine after every batch boundary: it
// advances the replica's applied vector to the node's delivered vector
// (all of which has now been applied) and, while reads are parked, kicks
// the service loop to serve the ones the new vector covers.
func (r *Replica) noteBoundary() {
	r.readMu.Lock()
	r.cfg.Node.FoldDeliveredVector(r.appliedVec)
	kick := len(r.parked) > 0
	r.readMu.Unlock()
	if kick {
		select {
		case r.readKick <- struct{}{}:
		default: // a kick is pending: the loop sweeps everything parked
		}
	}
}

// localRead handles one KindLocalRead request on the service loop. A read
// the replica can answer now is answered inline; a read-index read its
// applied vector does not cover yet is parked for sweepReads. A client's
// observed vector spans all partitions: requirements on rings this replica
// does not serve are ignored (see recovery.Vector.Covers).
func (r *Replica) localRead(m transport.Message) {
	if _, ok := r.cfg.SM.(LocalReader); !ok {
		r.replyLocalRead(m, localReadStatus(LocalReadUnsupported))
		return
	}
	mode, req, bound, op, err := decodeLocalRead(m.Payload)
	if err != nil {
		r.replyLocalRead(m, localReadStatus(LocalReadBadRequest))
		return
	}
	switch mode {
	case ReadIndex:
		r.readMu.Lock()
		covered := r.appliedVec.Covers(req)
		if !covered {
			r.parked = append(r.parked, parkedRead{m: m, req: req, op: op, arrived: time.Now()})
		}
		r.readMu.Unlock()
		if !covered {
			if len(r.parked) == 1 {
				r.armReadTimer()
			}
			return
		}
		r.readWait.Record(0)
	case BoundedStale:
		since, ok := r.cfg.Node.SinceProgress()
		if !ok || since > bound {
			r.replyLocalRead(m, localReadStatus(LocalReadStale))
			return
		}
	}
	r.serveLocalRead(m, op)
}

// sweepReads answers every parked read the applied vector now covers, and
// with LocalReadTimeout every other one past its deadline, or all of them
// when the replica stops.
func (r *Replica) sweepReads(stopping bool) {
	now := time.Now()
	r.readMu.Lock()
	keep := r.parked[:0]
	for _, p := range r.parked {
		switch {
		case r.appliedVec.Covers(p.req):
		case stopping || now.Sub(p.arrived) >= r.readWaitMax:
			p.expired = true
		default:
			keep = append(keep, p)
			continue
		}
		r.ready = append(r.ready, p)
	}
	clear(r.parked[len(keep):])
	r.parked = keep
	r.readMu.Unlock()
	for i := range r.ready {
		if p := &r.ready[i]; p.expired {
			r.replyLocalRead(p.m, localReadStatus(LocalReadTimeout))
		} else {
			r.readWait.Record(now.Sub(p.arrived))
			r.serveLocalRead(p.m, p.op)
		}
	}
	clear(r.ready)
	r.ready = r.ready[:0]
	r.armReadTimer()
}

// armReadTimer arms the loop's timer to the earliest deadline of a parked
// read: the first one's, as reads stay parked in arrival order.
func (r *Replica) armReadTimer() {
	if len(r.parked) > 0 {
		r.readTimer.Reset(r.readWaitMax - time.Since(r.parked[0].arrived))
	}
}

// AppliedVector returns a copy of the replica's applied vector: the
// delivered vector prefix whose commands have all been executed.
func (r *Replica) AppliedVector() recovery.Vector {
	r.readMu.Lock()
	defer r.readMu.Unlock()
	return r.appliedVec.Clone()
}

// ReadWait returns the histogram of read-index wait latencies (time from
// request arrival until the applied vector covered the requirement).
func (r *Replica) ReadWait() *metrics.Histogram { return r.readWait }

// LocalReads reports how many local reads this replica has served.
func (r *Replica) LocalReads() uint64 { return r.localReads.Load() }

// serveLocalRead executes a read the replica may answer now and replies
// with its result. The apply gate keeps command application out while the
// read runs, so the read observes a batch-boundary state, the only kind the
// applied vector describes. The state machine writes its result behind the
// status byte into the loop's scratch buffer; the reply is cut from the
// loop's block, which is never rewritten, so the transport may keep it.
func (r *Replica) serveLocalRead(m transport.Message, op []byte) {
	r.applyGate.RLock()
	res, ok := r.cfg.SM.(LocalReader).AppendLocalRead(append(r.readBuf[:0], LocalReadOK), m.Ring, op)
	r.applyGate.RUnlock()
	if cap(res) <= localReplySlab {
		r.readBuf = res[:0] // a large scan's buffer is not kept
	}
	if !ok {
		r.replyLocalRead(m, localReadStatus(LocalReadUnsupported))
		return
	}
	payload := bufpool.Cut(&r.readReplies, localReplySlab, len(res))
	copy(payload, res)
	r.localReads.Add(1)
	r.replyLocalRead(m, payload)
}

// localReplySlab is the size of the blocks local-read replies are cut from.
const localReplySlab = 64 << 10

// localReadStatus is the payload of a reply that is a status byte alone:
// shared and read-only, as the client copies what it receives.
func localReadStatus(st byte) []byte { return localReadStatuses[st : st+1 : st+1] }

var localReadStatuses = []byte{LocalReadOK, LocalReadStale, LocalReadUnsupported, LocalReadTimeout, LocalReadBadRequest}

// replyLocalRead sends payload — status byte, then the result — back,
// stamped with the replica's applied high-water mark for the addressed
// group so the client advances its observed vector.
func (r *Replica) replyLocalRead(m transport.Message, payload []byte) {
	r.readMu.Lock()
	inst := r.appliedVec[m.Ring]
	r.readMu.Unlock()
	_ = r.tr.Send(m.From, transport.Message{
		Kind:     transport.KindLocalReadResp,
		To:       m.From,
		Ring:     m.Ring,
		Count:    uint32(r.cfg.Partition),
		Seq:      m.Seq,
		Instance: inst,
		Payload:  payload,
	})
}
