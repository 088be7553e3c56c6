package transport

import (
	"sync"
)

// Router demultiplexes one process's incoming messages: consensus traffic
// is routed to a per-ring channel (a process participates in many rings
// over a single transport), everything else — client commands, responses,
// recovery RPCs — goes to the service channel.
type Router struct {
	tr Transport

	mu     sync.Mutex
	rings  map[RingID]*mailbox
	other  *mailbox
	hb     *mailbox // lazily created by Heartbeats; nil => heartbeats dropped
	closed bool
	done   chan struct{}
}

// ringKinds are handled by ring.Node instances.
func isRingKind(k Kind) bool {
	switch k {
	case KindProposal, KindPhase1A, KindPhase1B, KindPhase2, KindDecision,
		KindRetransmitReq, KindRetransmitResp, KindSafeResp, KindTrim,
		KindSkipRequest:
		return true
	default:
		return false
	}
}

// NewRouter starts routing messages from tr. Close the transport to stop it.
func NewRouter(tr Transport) *Router {
	r := &Router{
		tr:    tr,
		rings: make(map[RingID]*mailbox),
		other: newMailbox(),
		done:  make(chan struct{}),
	}
	go r.loop()
	return r
}

// Transport returns the underlying transport (for sending).
func (r *Router) Transport() Transport { return r.tr }

func (r *Router) loop() {
	defer close(r.done)
	for m := range r.tr.Recv() {
		if m.Kind == KindHeartbeat {
			// Heartbeats are only buffered once a consumer asked for
			// them; otherwise they are dropped on the floor so an
			// unconsumed mailbox cannot grow without bound.
			r.mu.Lock()
			hb := r.hb
			r.mu.Unlock()
			if hb != nil {
				hb.push(m)
			} else {
				m.ReleaseRefs()
			}
			continue
		}
		if isRingKind(m.Kind) {
			r.ringMailbox(m.Ring).push(m)
		} else {
			r.other.push(m)
		}
	}
	// Transport closed: close all mailboxes.
	r.mu.Lock()
	r.closed = true
	boxes := make([]*mailbox, 0, len(r.rings)+2)
	for _, mb := range r.rings {
		boxes = append(boxes, mb)
	}
	boxes = append(boxes, r.other)
	if r.hb != nil {
		boxes = append(boxes, r.hb)
	}
	r.mu.Unlock()
	for _, mb := range boxes {
		mb.close()
	}
}

func (r *Router) ringMailbox(ring RingID) *mailbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	mb, ok := r.rings[ring]
	if !ok {
		mb = newMailbox()
		r.rings[ring] = mb
	}
	return mb
}

// Ring returns the channel of consensus messages for one ring. The channel
// closes when the transport closes.
func (r *Router) Ring(ring RingID) <-chan Message {
	return r.ringMailbox(ring).out
}

// Service returns the channel of non-consensus messages (commands,
// responses, recovery RPCs). The channel closes when the transport closes.
func (r *Router) Service() <-chan Message {
	return r.other.out
}

// Heartbeats returns the channel of failure-detector heartbeats. Until the
// first call, incoming heartbeats are dropped (no consumer, no buffering).
// The channel closes when the transport closes.
func (r *Router) Heartbeats() <-chan Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hb == nil {
		r.hb = newMailbox()
		if r.closed {
			// Router already shut down: close the fresh mailbox so the
			// caller observes a closed channel rather than a stuck one.
			r.hb.close()
		}
	}
	return r.hb.out
}

// Done is closed after the router has shut down.
func (r *Router) Done() <-chan struct{} { return r.done }
