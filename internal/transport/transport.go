package transport

import (
	"errors"
	"sync"
)

// Transport lets a process exchange messages with other processes. Send is
// asynchronous and best-effort: delivery fails silently if the destination
// has crashed (fair-lossy links). Recv yields incoming messages in FIFO
// order per sender. Implementations must be safe for concurrent use.
type Transport interface {
	// ID returns the process identifier bound to this transport.
	ID() ProcessID
	// Send queues m for delivery to process to. It never blocks on the
	// receiver. An error is returned only for local failures (closed
	// transport, unknown destination address).
	Send(to ProcessID, m Message) error
	// Recv returns the channel of incoming messages. The channel is
	// closed when the transport is closed.
	Recv() <-chan Message
	// Close releases resources and closes the Recv channel.
	Close() error
}

// BatchSender is implemented by transports that can coalesce several
// messages into fewer writes: one frame buffer and one syscall per
// destination flush on TCP, one hub-lock acquisition per destination run
// on the in-process Network. Each message's To field must be set by the
// caller; From is stamped by the transport. Per-destination FIFO order is
// preserved. Callers should type-assert once and fall back to per-message
// Send when the transport does not implement it.
type BatchSender interface {
	SendBatch(msgs []Message) error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// forEachRun invokes fn on each maximal run of consecutive messages with
// the same destination — the unit BatchSender implementations coalesce.
func forEachRun(msgs []Message, fn func(run []Message) error) error {
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].To == msgs[i].To {
			j++
		}
		if err := fn(msgs[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// fifo is an unbounded FIFO queue; its owner guards it with its own lock.
//
// It is a slice with an explicit head index rather than the usual
// queue = queue[1:] pop: re-slicing strands the popped prefix, so every
// append past cap sheds the whole backing array as garbage. Compacting in
// place lets steady-state traffic cycle through one array with zero
// allocation, which matters at millions of messages per second.
type fifo[T any] struct {
	buf  []T
	head int
}

// maxRetainedQueue bounds the backing array kept after a burst drains;
// larger arrays are dropped so one spike does not pin memory forever.
const maxRetainedQueue = 4096

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends vs. When that would grow the array past cap, it first
// slides the live region to the front, so popped slots are reused instead
// of abandoned.
func (q *fifo[T]) push(vs ...T) {
	if q.head > 0 && len(q.buf)+len(vs) > cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // drop stale payload/pool pointers
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, vs...)
}

// pop removes the oldest element; ok is false when the queue is empty.
func (q *fifo[T]) pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release payload/pool pointers to GC
	q.head++
	if q.head == len(q.buf) {
		if cap(q.buf) > maxRetainedQueue {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
		q.head = 0
	}
	return v, true
}

// takeAll empties the queue and returns what it held.
func (q *fifo[T]) takeAll() []T {
	rest := q.buf[q.head:]
	q.buf, q.head = nil, 0
	return rest
}

// mailbox is an unbounded FIFO queue bridged onto a channel so receivers
// can select on incoming messages together with shutdown signals.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  fifo[Message]
	closed bool

	out  chan Message
	done chan struct{} // pump exited
}

func newMailbox() *mailbox {
	mb := &mailbox{
		out:  make(chan Message, 128),
		done: make(chan struct{}),
	}
	mb.cond = sync.NewCond(&mb.mu)
	go mb.pump()
	return mb
}

// push enqueues a message; drops it if the mailbox is closed.
func (mb *mailbox) push(m Message) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		m.ReleaseRefs()
		return
	}
	mb.queue.push(m)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// pushAll enqueues a batch of messages under one lock acquisition and one
// wakeup, so coalesced sends stay coalesced through the receive queue.
func (mb *mailbox) pushAll(msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		for i := range msgs {
			msgs[i].ReleaseRefs()
		}
		return
	}
	mb.queue.push(msgs...)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// pump moves messages from the unbounded queue to the bounded channel.
func (mb *mailbox) pump() {
	defer close(mb.done)
	defer close(mb.out)
	for {
		mb.mu.Lock()
		for mb.queue.len() == 0 && !mb.closed {
			mb.cond.Wait()
		}
		m, ok := mb.queue.pop()
		mb.mu.Unlock()
		if !ok {
			return
		}
		mb.out <- m
	}
}

// close stops the pump after the queue drains to empty-or-closed state.
// Pending messages are discarded.
func (mb *mailbox) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.closed = true
	dropped := mb.queue.takeAll()
	mb.mu.Unlock()
	for i := range dropped {
		dropped[i].ReleaseRefs()
	}
	mb.cond.Signal()
	// Drain out so the pump can observe closure even if a message is
	// parked on the channel send; drained messages are dropped, so their
	// pooled references are dropped with them.
	go func() {
		for m := range mb.out {
			m.ReleaseRefs()
		}
	}()
	<-mb.done
}
