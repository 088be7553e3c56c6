package transport

import "errors"

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
	// Recv returns the channel of incoming messages, for a transport used
	// without a Router: once NewRouter binds one, messages go to its
	// inboxes instead. The channel is closed when the transport is
	// closed.
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
	var one [1]T
	ok = len(q.take(one[:0], 1)) == 1
	return one[0], ok
}

// take moves up to max of the oldest elements onto dst and returns it.
func (q *fifo[T]) take(dst []T, max int) []T {
	k := min(max, q.len())
	dst = append(dst, q.buf[q.head:q.head+k]...)
	clear(q.buf[q.head : q.head+k]) // release payload/pool pointers to GC
	q.head += k
	if q.head == len(q.buf) {
		if cap(q.buf) > maxRetainedQueue {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
		q.head = 0
	}
	return dst
}
