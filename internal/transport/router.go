package transport

import (
	"math"
	"sync"
)

// Router demultiplexes one process's incoming messages into inboxes:
// consensus traffic into one per ring (a process participates in many
// rings over a single transport), heartbeats into the failure detector's,
// and everything else — client commands, responses, recovery RPCs — into
// the service inbox. It routes on the goroutine that received the message
// and runs none of its own.
//
// A Network endpoint or a TCPNode owns its router from birth and NewRouter
// hands it out. Until then the router sorts nothing: what arrives waits,
// in order, in the service inbox, which is what Recv reads.
type Router struct {
	tr Transport

	mu      sync.Mutex
	bound   bool // handed out by NewRouter: demultiplex
	rings   map[RingID]*Inbox
	service *Inbox
	hb      *Inbox // created by Heartbeats; nil => heartbeats dropped
	closed  bool

	recvOnce sync.Once
	recvCh   chan Message
	done     chan struct{} // closed with the router; stops the Recv bridge
}

// ringKinds are handled by ring.Node instances.
func isRingKind(k Kind) bool {
	switch k {
	case KindProposal, KindPhase1A, KindPhase2, KindDecision,
		KindRetransmitReq, KindRetransmitResp, KindSafeResp, KindTrim,
		KindSkipRequest:
		return true
	default:
		return false
	}
}

func newRouter(tr Transport) *Router {
	return &Router{tr: tr, rings: make(map[RingID]*Inbox), service: newInbox(), done: make(chan struct{})}
}

// NewRouter returns the router of the messages tr receives; closing tr
// closes every inbox. A Network endpoint or a TCPNode hands out its own,
// and what arrived before the first call is sorted first, in order. Any
// other Transport is read from its Recv channel by one goroutine.
func NewRouter(tr Transport) *Router {
	if own, ok := tr.(interface{ router() *Router }); ok {
		r := own.router()
		r.mu.Lock()
		defer r.mu.Unlock()
		if !r.bound {
			r.bound = true
			early, _ := r.service.Take(nil, math.MaxInt)
			r.routeLocked(early)
		}
		return r
	}
	r := newRouter(tr)
	r.bound = true
	go func() {
		for m := range tr.Recv() {
			r.route(m)
		}
		r.close()
	}()
	return r
}

// Transport returns the underlying transport (for sending).
func (r *Router) Transport() Transport { return r.tr }

// route pushes msgs to their inboxes in order, one push per run of
// messages bound for the same inbox.
func (r *Router) route(msgs ...Message) {
	if len(msgs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routeLocked(msgs)
}

func (r *Router) routeLocked(msgs []Message) {
	if !r.bound {
		r.service.push(msgs...)
		return
	}
	for i := 0; i < len(msgs); {
		in, j := r.inbox(&msgs[i]), i+1
		for j < len(msgs) && r.inbox(&msgs[j]) == in {
			j++
		}
		if in != nil {
			in.push(msgs[i:j]...)
		} else {
			// Nobody asked for heartbeats: dropped, not buffered, so an
			// unconsumed inbox cannot grow without bound.
			releaseAll(msgs[i:j])
		}
		i = j
	}
}

// inbox returns m's inbox (mu held).
func (r *Router) inbox(m *Message) *Inbox {
	switch {
	case m.Kind == KindHeartbeat:
		return r.hb
	case isRingKind(m.Kind):
		return r.ring(m.Ring)
	default:
		return r.service
	}
}

func (r *Router) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// close closes every inbox and the Recv channel; an inbox created later is
// born closed, and later arrivals are dropped.
func (r *Router) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.service.close()
	if r.hb != nil {
		r.hb.close()
	}
	for _, in := range r.rings {
		in.close()
	}
	close(r.done)
}

// Ring returns the inbox of consensus messages for one ring.
func (r *Router) Ring(ring RingID) *Inbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring(ring)
}

func (r *Router) ring(ring RingID) *Inbox {
	in, ok := r.rings[ring]
	if !ok {
		in = r.newInbox()
		r.rings[ring] = in
	}
	return in
}

// Service returns the inbox of non-consensus messages (commands,
// responses, recovery RPCs).
func (r *Router) Service() *Inbox { return r.service }

// Heartbeats returns the inbox of failure-detector heartbeats. Until the
// first call, incoming heartbeats are dropped (no consumer, no buffering).
func (r *Router) Heartbeats() *Inbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hb == nil {
		r.hb = r.newInbox()
	}
	return r.hb
}

// newInbox returns an inbox for a new consumer, closed if the router
// already is (mu held).
func (r *Router) newInbox() *Inbox {
	in := newInbox()
	if r.closed {
		in.close()
	}
	return in
}

// recv returns the channel Recv reads: one goroutine, started on first
// use, bridges the service inbox onto it.
func (r *Router) recv() <-chan Message {
	r.recvOnce.Do(func() {
		r.recvCh = make(chan Message, 128)
		go r.bridge()
	})
	return r.recvCh
}

func (r *Router) bridge() {
	defer func() {
		close(r.recvCh)
		for m := range r.recvCh { // what no reader took before the close
			m.ReleaseRefs()
		}
	}()
	var burst []Message
	for range r.service.Ready() {
		var open bool
		burst, open = r.service.Take(burst[:0], 64)
		for i, m := range burst {
			select {
			case r.recvCh <- m:
			case <-r.done:
				releaseAll(burst[i:])
				return
			}
		}
		if !open {
			return
		}
	}
}
