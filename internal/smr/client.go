package smr

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/recovery"
	"amcast/internal/ring"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// Client submits commands to replicated services over atomic multicast and
// matches replica responses, mirroring the paper's client behaviour
// (Section 7.2): multicast the command to the owning group, wait for the
// first response from a replica — or, for multi-partition operations, for
// at least one response from every involved partition. Responses travel
// outside the multicast layer (the paper uses UDP; here, the transport).
type Client struct {
	id     transport.ProcessID
	node   *core.Node
	tr     transport.Transport
	svc    *coord.Service  // optional: enables re-route on re-election
	tracer *trace.Recorder // optional: roots a trace at every sampled submit

	mu sync.Mutex
	// inflight holds every Submit, SubmitMarker and LocalRead in progress,
	// by sequence number. Callers insert; only respLoop completes.
	inflight map[uint64]*call
	closed   bool
	// free holds the calls completed and reset, for the next Submit,
	// SubmitMarker or LocalRead to reuse: never more than the client's
	// peak concurrency. Unlike a sync.Pool it survives garbage collection.
	free []*call
	// observed is the client's session read index: per group, the
	// highest applied instance any reply (command response or local
	// read) has carried. A read-index local read presents it as the
	// requirement the serving replica must cover, which yields
	// read-your-writes and monotonic reads without a multicast round.
	// observedGroups lists its groups in ascending order, the order a
	// request encodes them in.
	observed       recovery.Vector
	observedGroups []transport.RingID
	// requests and responses are the blocks the client cuts each request
	// and its copy of each response from (bufpool.Cut).
	requests, responses []byte
	// timer wakes respLoop at armed (never: not armed), no later than the
	// earliest instant a call needs it. Instants are offsets from start.
	start time.Time
	timer *time.Timer
	armed time.Duration
	// watched lists the groups whose configuration the client watches,
	// from their first use until Close; unwatch holds the cancels.
	watched  []transport.RingID
	unwatch  []func()
	watchers sync.WaitGroup
	rerouted chan transport.RingID // watchers → respLoop: new coordinator

	seq atomic.Uint64

	// Flow-control instrumentation: command retransmissions and
	// overload-driven backoffs.
	retransmits     atomic.Uint64
	overloadBackoff atomic.Uint64

	resend   []*call // respLoop's scratch
	done     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
}

// clientBlock is the size of the blocks a client cuts its requests and its
// copies of responses from, as the store's replicas cut their replies:
// many 1 KB operations share one, and a piece of 16 KB or more gets an
// allocation of its own. The price is retention: a piece still held, such
// as a kept value, keeps its whole block alive.
const clientBlock = 64 << 10

// ClientConfig configures a Client.
type ClientConfig struct {
	// Self is the client's process id (responses are addressed to it).
	Self transport.ProcessID
	// Node is a Multi-Ring Paxos endpoint used to multicast commands.
	// A pure client node (member of no ring) suffices.
	Node *core.Node
	// Transport receives responses (via Service) and is kept for
	// symmetry with Replica.
	Transport transport.Transport
	// Service is the process's inbox of non-consensus messages.
	Service *transport.Inbox
	// Coord, when set, lets in-flight submissions ride out coordinator
	// failover: a proposal addressed to a dead coordinator is re-routed
	// to the newly elected one as soon as the configuration changes
	// (watch-driven, jittered), and ErrNoCoordinator windows are retried
	// instead of surfaced to the caller.
	Coord *coord.Service
	// Tracer, when set, stamps a trace context on sampled submissions
	// (per the recorder's sampling divisor) and records the root
	// "submit" span covering submit-to-reply latency.
	Tracer *trace.Recorder
}

// NewClient starts a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Node == nil || cfg.Service == nil {
		return nil, errors.New("smr: Node and Service are required")
	}
	c := &Client{
		id:       cfg.Self,
		node:     cfg.Node,
		tr:       cfg.Transport,
		svc:      cfg.Coord,
		tracer:   cfg.Tracer,
		inflight: make(map[uint64]*call),
		observed: make(recovery.Vector),
		start:    time.Now(),
		timer:    time.NewTimer(never),
		armed:    never,
		rerouted: make(chan transport.RingID),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go c.respLoop(cfg.Service)
	return c, nil
}

// ErrTimeout reports that a command did not gather its responses in time.
var ErrTimeout = errors.New("smr: command timed out")

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("smr: client closed")

// Submit multicasts op to each group in groups (one command per group,
// same sequence number) and waits until `need` matching responses arrive,
// retrying the multicast on timeout. The command is the call's one request
// buffer, cut from a client block: op is encoded straight into it.
//
// The responses are appended to dst, and the extended slice is returned,
// as strconv.AppendInt does: a caller passing a buffer with room for them
// allocates no slice. dst's existing elements are left as they are, and on
// an error dst is returned unchanged.
//
// accept filters which responses count: a response matches if its delivery
// group or its partition tag is in accept (nil accepts any, deduplicated by
// partition). need <= 0 defaults to len(accept), or 1 when accept is nil.
// A call that could never complete — no group, or more responses needed
// than accept has partitions — fails at once instead of timing out.
//
// Recipes: single-partition command → SubmitOne. Scan via a global group →
// groups=[global], accept=target partitions. Scan over independent rings →
// groups=targets, accept=targets. Multi-append where the client cannot
// name partitions → accept=nil, need=partition count.
//
// Every response returned, here and by SubmitOne, SubmitMarker and
// LocalRead, is bytes cut from a client block (bufpool.Cut), capped at
// their own length and never written again by the client: the caller may
// keep, scribble over or append to them. A response held pins its 64 KB
// block, so a caller keeping a few small responses for long should copy
// them out.
func (c *Client) Submit(dst [][]byte, groups []transport.RingID, op Op, accept []transport.RingID, need int, timeout time.Duration) ([][]byte, error) {
	return c.submit(dst, groups, op, accept, need, timeout, 0)
}

// SubmitOne multicasts a single-partition command to its group and returns
// the first replica's response, by value: no slice to hold it.
func (c *Client) SubmitOne(group transport.RingID, op Op, timeout time.Duration) ([]byte, error) {
	return c.SubmitMarker(group, op, 0, timeout)
}

// SubmitMarker is SubmitOne with a caller-chosen multicast value id — a
// reconfiguration marker. Learners arm the id with PrepareResubscribe
// before the call, and every retransmission reuses it, so a retried marker
// decided twice still triggers exactly one epoch transition (the second
// decision is an ordinary duplicate the replicas suppress). Zero lets the
// client pick the id.
func (c *Client) SubmitMarker(group transport.RingID, op Op, marker uint64, timeout time.Duration) ([]byte, error) {
	var one [1][]byte
	resps, err := c.submit(one[:0], []transport.RingID{group}, op, []transport.RingID{group}, 1, timeout, marker)
	if err != nil {
		return nil, err
	}
	return resps[0], nil
}

// submit is Submit with a caller-chosen multicast value id (0: the
// client picks one).
func (c *Client) submit(dst [][]byte, groups []transport.RingID, op Op, accept []transport.RingID, need int, timeout time.Duration, valueID uint64) ([][]byte, error) {
	if len(groups) == 0 {
		return dst, errors.New("smr: submit: no group to multicast to")
	}
	if need <= 0 {
		need = max(len(accept), 1)
	}
	if accept != nil && need > len(accept) {
		return dst, fmt.Errorf("smr: submit: responses needed from %d partitions, but accept names only %d: the call could never complete", need, len(accept))
	}
	// Pre-allocate the multicast value id so coordinator admission
	// control can address its Overloaded reply to this command (the
	// payload is opaque to the ring; the value id is all it sees).
	if valueID == 0 {
		valueID = c.node.MarkerID()
	}
	// The command's encoding, with op written straight behind its header,
	// into bytes cut under the lock and written after it.
	c.mu.Lock()
	e := c.newCallLocked()
	buf := bufpool.Cut(&c.requests, clientBlock, commandHeaderLen+op.Len)
	c.mu.Unlock()
	e.seq, e.valueID, e.need = c.seq.Add(1), valueID, need
	e.groups = append(e.groupBuf[:0], groups...)
	if accept != nil {
		e.accept = append(e.acceptBuf[:0], accept...)
	}
	e.seen = e.seenBuf[:0]
	e.payload = op.Append(appendCommandHeader(buf[:0], c.id, e.seq))
	// Sampled submissions carry a trace context on every multicast frame
	// (retransmissions reuse the value id, so their spans join the same
	// trace); the root "submit" span is recorded when the reply arrives.
	tctx := c.tracer.StartRoot()
	e.tctx = tctx
	var tstart time.Time
	if tctx.Sampled() {
		tstart = time.Now()
	}
	// Retransmit on a quarter of the budget (lost command or response;
	// replicas suppress duplicates); the deadline bounds the whole attempt.
	out, err := c.await(e, timeout, 4, dst)
	if err == nil && tctx.Sampled() {
		c.tracer.Record(trace.Span{
			TraceID:  tctx.TraceID,
			SpanID:   tctx.SpanID, // root: children parent on it
			Name:     "submit",
			Ring:     uint32(groups[0]),
			ValueID:  valueID,
			Start:    tstart,
			Duration: time.Since(tstart),
		})
	}
	return out, err
}

// newCallLocked pops a recycled call, or makes the first one. Caller holds
// c.mu.
func (c *Client) newCallLocked() *call {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return &call{done: make(chan struct{}, 1)}
}

// await puts e in flight (due every timeout/retries, its groups watched
// from now on), sends it and blocks until respLoop completes it. It
// appends e's responses to dst before e is reset and recycled: what it
// returns holds nothing of e.
func (c *Client) await(e *call, timeout time.Duration, retries int, dst [][]byte) ([][]byte, error) {
	defer func() {
		*e = call{done: e.done}
		c.mu.Lock()
		if !c.closed {
			c.free = append(c.free, e)
		}
		c.mu.Unlock()
	}()
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	now := time.Since(c.start)
	e.retry = timeout / time.Duration(retries)
	e.due, e.deadline = now+e.retry, now+timeout
	e.resps = e.respBuf[:0]
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return dst, ErrClientClosed
	}
	for _, g := range e.groups {
		if c.svc != nil && e.target == 0 && !slices.Contains(c.watched, g) {
			c.watchLocked(g)
		}
	}
	c.inflight[e.seq] = e
	c.armLocked(e.due)
	c.mu.Unlock()
	if err := c.send(e); err != nil {
		// The send failed outright: have respLoop fail the call now.
		c.mu.Lock()
		if c.inflight[e.seq] == e {
			e.err = err
			c.armLocked(now)
		}
		c.mu.Unlock()
	}
	<-e.done
	if e.err != nil {
		return dst, e.err
	}
	return append(dst, e.resps...), nil
}

// never is the instant an unarmed timer is armed to.
const never = time.Duration(math.MaxInt64)

// armLocked makes sure respLoop wakes no later than t.
func (c *Client) armLocked(t time.Duration) {
	if t < c.armed {
		c.armed = t
		c.timer.Reset(t - time.Since(c.start))
	}
}

// send transmits e: a local read to its replica, a command to every
// target group. A Coord-wired client skips a group that has no coordinator
// (a failover window): the group's watcher re-sends the moment one is
// elected, with the retransmission as backstop; only the deadline gives up.
func (c *Client) send(e *call) error {
	if e.target != 0 {
		//lint:allow logbeforeforward a client request, not a protocol vote: nothing to log first
		return c.tr.Send(e.target, transport.Message{
			Kind: transport.KindLocalRead, From: c.id, To: e.target,
			Ring: e.groups[0], Seq: e.seq, Payload: e.payload,
		})
	}
	for _, g := range e.groups {
		err := c.node.MulticastValueTraced(g, e.valueID, e.payload, e.tctx)
		if errors.Is(err, ring.ErrNoCoordinator) && c.svc != nil {
			c.mu.Lock()
			e.noCoord++
			c.mu.Unlock()
		} else if err != nil {
			return err
		}
	}
	return nil
}

// watchLocked subscribes to g's configuration until Close: a coordinator
// change then re-routes every command in flight to g at once instead of
// waiting out a retransmission period. A group the service does not know
// yet is left for a later call (the multicast reports it).
func (c *Client) watchLocked(g transport.RingID) {
	last, ok := c.svc.Coordinator(g)
	if !ok {
		return
	}
	ch, cancel := c.svc.Watch(g)
	c.watched = append(c.watched, g)
	c.unwatch = append(c.unwatch, cancel)
	c.watchers.Add(1)
	go func() {
		defer c.watchers.Done()
		for {
			select {
			case cfg := <-ch:
				if cfg.Coordinator == last {
					continue
				}
				if last = cfg.Coordinator; last == 0 {
					continue
				}
				select {
				case c.rerouted <- g:
				case <-c.done:
					return
				}
			case <-c.done:
				return
			}
		}
	}()
}

// Retransmits reports command retransmissions issued (lost messages or
// slow responses).
func (c *Client) Retransmits() uint64 { return c.retransmits.Load() }

// OverloadBackoffs reports how many times a coordinator shed one of this
// client's commands and the client backed off instead of hammering it.
func (c *Client) OverloadBackoffs() uint64 { return c.overloadBackoff.Load() }

// respLoop is the client's event loop: it matches replies to the calls in
// flight and, from one timer, drives their retransmissions, overload
// backoffs, deadlines and re-routing.
//
//lint:eventloop
func (c *Client) respLoop(service *transport.Inbox) {
	defer close(c.loopDone)
	ready := service.Ready()
	var burst []transport.Message
	for {
		select {
		case <-c.done:
			c.mu.Lock()
			for _, e := range c.inflight {
				c.completeLocked(e, ErrClientClosed)
			}
			c.mu.Unlock()
			return
		case <-ready:
			var open bool
			burst, open = service.Take(burst[:0], 64)
			if !open {
				ready = nil // deadlines still need the loop
				continue
			}
			c.mu.Lock()
			for _, m := range burst {
				c.receiveLocked(m)
			}
			c.mu.Unlock()
		case g := <-c.rerouted:
			// New coordinator: re-route promptly, each command with its
			// own jitter so everything waiting does not hit it at once.
			now := time.Since(c.start)
			c.mu.Lock()
			for _, e := range c.inflight {
				if e.target == 0 && slices.Contains(e.groups, g) {
					e.due = now + time.Millisecond + rand.N(10*time.Millisecond)
					c.armLocked(e.due)
				}
			}
			c.mu.Unlock()
		case <-c.timer.C:
			c.expire(time.Since(c.start))
		}
	}
}

// receiveLocked handles one message from a replica or a coordinator.
func (c *Client) receiveLocked(m transport.Message) {
	switch m.Kind {
	case transport.KindOverloaded:
		// Admission control shed a proposal. The coordinator's retry-after
		// hint, jittered and capped so one backoff never eats the whole
		// budget, replaces the next retransmission: it drains, not hammered.
		for _, e := range c.inflight {
			if e.target != 0 || e.valueID != m.Value.ID {
				continue
			}
			e.overloaded++
			c.overloadBackoff.Add(1)
			d := time.Duration(m.Instance) * time.Millisecond
			if d <= 0 {
				d = e.retry
			}
			d = min(d+rand.N(d/2+time.Millisecond), 2*e.retry)
			e.due = time.Since(c.start) + d
			c.armLocked(e.due)
			return
		}
	case transport.KindResponse, transport.KindLocalReadResp:
		if have, seen := c.observed[m.Ring]; m.Instance > have {
			if !seen {
				i, _ := slices.BinarySearch(c.observedGroups, m.Ring)
				c.observedGroups = slices.Insert(c.observedGroups, i, m.Ring)
			}
			c.observed[m.Ring] = m.Instance
		}
		e := c.inflight[m.Seq]
		if e == nil || (e.target != 0) != (m.Kind == transport.KindLocalReadResp) {
			return
		}
		if e.target == 0 {
			key, ok := e.match(m.Ring, transport.RingID(m.Count))
			if !ok || slices.Contains(e.seen, key) {
				return
			}
			e.seen = append(e.seen, key)
		}
		// The one copy the client makes, cut from its response block: on
		// the in-process Network the payload is the replica's own, which
		// its duplicate window keeps.
		resp := bufpool.Cut(&c.responses, clientBlock, len(m.Payload))
		copy(resp, m.Payload)
		if e.resps = append(e.resps, resp); len(e.resps) >= e.need {
			c.completeLocked(e, nil)
		}
	default: // nothing else is addressed to a client: dropped
	}
}

// completeLocked removes e from the table and wakes its caller.
func (c *Client) completeLocked(e *call, err error) {
	delete(c.inflight, e.seq)
	e.err = err
	e.done <- struct{}{} //lint:allow loopblock buffered 1 and signalled once per await: cannot block
}

// expire, the timer's handler, fails what is aborted or past its deadline,
// re-sends what is due and re-arms the timer to the earliest instant left.
func (c *Client) expire(now time.Duration) {
	c.mu.Lock()
	c.armed = never
	for _, e := range c.inflight {
		switch {
		case e.err != nil:
			c.completeLocked(e, e.err)
			continue
		case now >= e.deadline:
			c.completeLocked(e, e.timeoutErr())
			continue
		case now >= e.due:
			e.due = now + e.retry
			c.resend = append(c.resend, e)
		}
		c.armed = min(c.armed, e.due, e.deadline)
	}
	c.timer.Reset(c.armed - now)
	c.mu.Unlock()
	for _, e := range c.resend {
		c.retransmits.Add(1)
		if err := c.send(e); err != nil {
			c.mu.Lock()
			c.completeLocked(e, err)
			c.mu.Unlock()
		}
	}
	c.resend = c.resend[:0]
}

// LocalRead sends a read-only operation directly to one replica,
// skipping the multicast round. With mode ReadIndex the request carries
// the client's observed vector and the replica serves only once its
// applied state covers it; with mode BoundedStale the replica serves
// only if it proved merge progress within bound, else ErrStale. The
// returned bytes are the state machine's encoded result.
func (c *Client) LocalRead(target transport.ProcessID, group transport.RingID, op Op, mode LocalReadMode, bound, timeout time.Duration) ([]byte, error) {
	if c.tr == nil {
		return nil, errors.New("smr: local read: client has no transport")
	}
	c.mu.Lock()
	e := c.newCallLocked()
	c.mu.Unlock()
	e.seq, e.target, e.need = c.seq.Add(1), target, 1
	e.groups = append(e.groupBuf[:0], group)
	e.payload = c.localReadRequest(mode, bound, op)
	var one [1][]byte
	resps, err := c.await(e, timeout, 1, one[:0]) // never re-sent: due at its deadline
	if err != nil {
		return nil, err
	}
	resp := resps[0]
	if len(resp) < 1 {
		return nil, fmt.Errorf("smr: local read: malformed response")
	}
	switch resp[0] {
	case LocalReadOK:
		return resp[1:], nil
	case LocalReadStale:
		return nil, ErrStale
	case LocalReadTimeout:
		return nil, ErrTimeout
	default:
		return nil, ErrLocalReadUnsupported
	}
}

// Close stops the client: calls in flight return ErrClientClosed and the
// configuration watches end.
func (c *Client) Close() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.free = nil
		unwatch := c.unwatch
		c.mu.Unlock()
		close(c.done)
		<-c.loopDone
		for _, cancel := range unwatch {
			cancel()
		}
		c.watchers.Wait()
	})
}
