package transport

import (
	"sync"
	"time"

	"amcast/internal/netem"
)

// Network is an in-process transport hub. Every attached process gets a
// Transport whose links to other processes are shaped by a netem.Topology:
// messages experience serialization delay (bandwidth), propagation delay
// and jitter while preserving FIFO order per sender-receiver pair.
//
// Crashing a process (Detach) silently drops messages addressed to it, and
// a link can be blocked to emulate network partitions.
type Network struct {
	topo   *netem.Topology
	faults *netem.FaultPlan

	mu      sync.Mutex
	eps     map[ProcessID]*netEndpoint
	sites   map[ProcessID]netem.Site
	links   map[[2]ProcessID]*linkState
	blocked map[[2]ProcessID]bool
	closed  bool

	timers sync.WaitGroup
}

// linkState serializes deliveries on one sender-receiver path. A single
// drain goroutine per active link sleeps until each message's delivery time
// and hands it to the destination, guaranteeing FIFO order.
type linkState struct {
	mu          sync.Mutex
	nextFree    time.Time // when the link finishes serializing prior sends
	lastDeliver time.Time // monotonic delivery horizon (FIFO with jitter)
	queue       fifo[scheduledMsg]
	draining    bool
}

type scheduledMsg struct {
	deliverAt time.Time
	msg       Message
	dst       *netEndpoint
}

// NewNetwork creates a hub over the given topology. A nil topology means
// zero-delay links (useful in unit tests).
func NewNetwork(topo *netem.Topology) *Network {
	if topo == nil {
		topo = netem.NewTopology()
	}
	return &Network{
		topo:    topo,
		faults:  netem.NewFaultPlan(1),
		eps:     make(map[ProcessID]*netEndpoint),
		sites:   make(map[ProcessID]netem.Site),
		links:   make(map[[2]ProcessID]*linkState),
		blocked: make(map[[2]ProcessID]bool),
	}
}

// Topology returns the topology shaping this network.
func (n *Network) Topology() *netem.Topology { return n.topo }

// Faults returns the mutable fault plan consulted on every send. With no
// faults installed the send path is unchanged; installing one switches the
// affected links to per-message sampling (drop/duplicate/extra delay, cuts).
func (n *Network) Faults() *netem.FaultPlan { return n.faults }

// Attach registers a process at a site and returns its transport. Attaching
// an existing id replaces the previous endpoint (the old one is closed),
// which models a process recovering with an empty volatile state.
func (n *Network) Attach(id ProcessID, site netem.Site) Transport {
	ep := &netEndpoint{id: id, net: n}
	ep.rx = newRouter(ep)
	n.mu.Lock()
	old := n.eps[id]
	n.eps[id] = ep
	n.sites[id] = site
	n.mu.Unlock()
	if old != nil {
		old.rx.close()
	}
	return ep
}

// Detach crashes a process: its transport closes and future messages to it
// are dropped.
func (n *Network) Detach(id ProcessID) {
	n.mu.Lock()
	ep := n.eps[id]
	delete(n.eps, id)
	n.mu.Unlock()
	if ep != nil {
		ep.rx.close()
	}
}

// Block stops message flow from a to b (one direction). Use Unblock to heal.
func (n *Network) Block(from, to ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]ProcessID{from, to}] = true
}

// Unblock restores message flow from a to b.
func (n *Network) Unblock(from, to ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]ProcessID{from, to})
}

// Close shuts the hub and all endpoints down, waiting for in-flight
// delivery timers to finish.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*netEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[ProcessID]*netEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.rx.close()
	}
	n.timers.Wait()
}

// send routes a message, applying link shaping. It is the one-message
// case of sendRun, so batched and single sends share one scheduling
// implementation.
func (n *Network) send(from ProcessID, m Message) error {
	run := [1]Message{m}
	return n.sendRun(from, run[:])
}

// sendBatch routes a staged batch: consecutive same-destination messages
// (the dominant shape — a ring burst forwards almost everything to the
// successor) resolve the destination and take the link lock once per run,
// and messages deliverable immediately reach the destination's inbox with
// a single push.
func (n *Network) sendBatch(from ProcessID, msgs []Message) error {
	return forEachRun(msgs, func(run []Message) error {
		return n.sendRun(from, run)
	})
}

// sendRun applies link shaping to one same-destination run. It mirrors
// send's per-message schedule computation; messages whose delivery time
// has already passed on an idle link form a prefix of the run (once one
// message queues, FIFO forces the rest behind it) and are delivered
// together, on the sender's goroutine.
func (n *Network) sendRun(from ProcessID, run []Message) error {
	to := run[0].To
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.blocked[[2]ProcessID{from, to}] {
		n.mu.Unlock()
		return nil // silently lost, like a partitioned link
	}
	dst, ok := n.eps[to]
	if !ok {
		n.mu.Unlock()
		return nil // destination crashed: messages lost
	}
	key := [2]ProcessID{from, to}
	ls := n.links[key]
	if ls == nil {
		ls = &linkState{}
		n.links[key] = ls
	}
	fromSite, toSite := n.sites[from], n.sites[to]
	n.mu.Unlock()

	link := n.topo.Link(fromSite, toSite)
	scale := n.topo.Scale()

	// Injected faults force the queue path (per-message sampling defeats
	// the ready-prefix batching); untouched links keep the fast path.
	faulty := n.faults.Active()

	ready := 0 // prefix of run deliverable immediately
	pushed := false
	ls.mu.Lock()
	// Read under the lock: a clock read before it could lag the horizon a
	// concurrent sender on this link has just stamped, and queue a message
	// a zero-delay link can deliver at once.
	now := time.Now()
	busy := ls.draining || ls.queue.len() > 0
	for _, m := range run {
		var oc netem.FaultOutcome
		if faulty {
			oc = n.faults.Sample(uint32(from), uint32(to))
			if oc.Drop {
				continue
			}
		}
		tx := time.Duration(float64(link.Transmission(m.EncodedSize())) * scale)
		prop := n.topo.Delay(fromSite, toSite, 0) + oc.Extra
		start := now
		if ls.nextFree.After(start) {
			start = ls.nextFree
		}
		ls.nextFree = start.Add(tx)
		deliverAt := start.Add(tx + prop)
		if deliverAt.Before(ls.lastDeliver) {
			deliverAt = ls.lastDeliver // keep FIFO despite jitter
		}
		ls.lastDeliver = deliverAt
		// A pooled payload crosses by slice alias here, not as an encoded
		// wire copy: each delivered copy pins its buffers so the sender
		// releasing its own references cannot recycle bytes a receiver
		// still reads. Dropped messages (above) take no reference; the
		// inbox and drainLink release on their drop paths.
		m.RetainRefs()
		if !faulty && !busy && deliverAt.Sub(now) <= 0 {
			ready++
			continue
		}
		if !busy && ready > 0 {
			// Release the ready prefix before the first message queues:
			// once drainLink is running it could otherwise deliver the
			// suffix ahead of a prefix pushed after unlock.
			dst.rx.route(run[:ready]...)
			pushed = true
		}
		busy = true
		ls.queue.push(scheduledMsg{deliverAt: deliverAt, msg: m, dst: dst})
		if oc.Dup {
			m.RetainRefs() // the duplicate is its own in-flight copy
			ls.queue.push(scheduledMsg{deliverAt: deliverAt, msg: m, dst: dst})
		}
		if !ls.draining {
			ls.draining = true
			n.timers.Add(1)
			go n.drainLink(ls)
		}
	}
	ls.mu.Unlock()
	if !pushed {
		dst.rx.route(run[:ready]...)
	}
	return nil
}

// drainLink delivers queued messages for one link in order, sleeping until
// each message's delivery time. It exits when the queue empties.
func (n *Network) drainLink(ls *linkState) {
	defer n.timers.Done()
	for {
		ls.mu.Lock()
		sm, ok := ls.queue.pop()
		if !ok {
			ls.draining = false
			ls.mu.Unlock()
			return
		}
		ls.mu.Unlock()

		if d := time.Until(sm.deliverAt); d > 0 {
			time.Sleep(d)
		}
		n.mu.Lock()
		cur, ok := n.eps[sm.msg.To]
		n.mu.Unlock()
		// Deliver only if the same endpoint incarnation is attached.
		if ok && cur == sm.dst {
			sm.dst.rx.route(sm.msg)
		} else {
			sm.msg.ReleaseRefs()
		}
	}
}

// netEndpoint is the per-process view of a Network.
type netEndpoint struct {
	id  ProcessID
	net *Network
	rx  *Router // what the endpoint receives goes here
}

var _ Transport = (*netEndpoint)(nil)
var _ BatchSender = (*netEndpoint)(nil)

func (e *netEndpoint) ID() ProcessID { return e.id }

func (e *netEndpoint) router() *Router { return e.rx }

// SendBatch routes a staged batch through the hub's coalescing path. Each
// message's To must be set; From is stamped here.
func (e *netEndpoint) SendBatch(msgs []Message) error {
	if e.rx.isClosed() {
		return ErrClosed
	}
	for i := range msgs {
		msgs[i].From = e.id
	}
	return e.net.sendBatch(e.id, msgs)
}

func (e *netEndpoint) Send(to ProcessID, m Message) error {
	if e.rx.isClosed() {
		return ErrClosed
	}
	m.From = e.id
	m.To = to
	return e.net.send(e.id, m)
}

func (e *netEndpoint) Recv() <-chan Message { return e.rx.recv() }

func (e *netEndpoint) Close() error {
	e.net.mu.Lock()
	if e.net.eps[e.id] == e {
		delete(e.net.eps, e.id)
	}
	e.net.mu.Unlock()
	e.rx.close()
	return nil
}
