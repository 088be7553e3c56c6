package ring

import "amcast/internal/transport"

// proposalQueue is the coordinator's FIFO of queued proposals, backed by a
// growable power-of-two circular buffer (the pattern internal/smr uses for
// client windows). The previous `q = q[1:]` re-slicing made every pop pin
// the backing array and cost O(n) amortized copying once append wrapped;
// here pops are O(1) and popped slots are zeroed so the buffer never pins
// payload bytes of values already proposed.
type proposalQueue struct {
	buf  []transport.Value // len(buf) is a power of two
	head int               // index of the oldest element
	n    int               // elements queued
}

// len reports the number of queued values.
func (q *proposalQueue) len() int { return q.n }

// push appends v, growing the buffer when full. The queue takes its own
// payload reference; pop transfers it to the caller.
func (q *proposalQueue) push(v transport.Value) {
	if q.n == len(q.buf) {
		q.grow()
	}
	v.Buf.Retain()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest value, transferring the queue's
// payload reference to the caller. Callers check len first.
func (q *proposalQueue) pop() transport.Value {
	v := q.buf[q.head]
	q.buf[q.head] = transport.Value{} // release payload reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// at returns a pointer to the i-th oldest value (0 = head) without
// removing it, so the coordinator can size a packet by walking the queue
// in place. Callers keep i < len.
func (q *proposalQueue) at(i int) *transport.Value {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the buffer, unwrapping the circular contents.
func (q *proposalQueue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 64
	}
	buf := make([]transport.Value, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
