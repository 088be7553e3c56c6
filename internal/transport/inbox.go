package transport

import "sync"

// Inbox is one consumer's queue of received messages. The goroutine that
// receives a message pushes it — the sender's own goroutine on the
// in-process Network, a connection's read loop on TCP — and the consumer
// selects on Ready and takes a burst with Take. No goroutine sits between
// the two.
type Inbox struct {
	mu     sync.Mutex
	queue  fifo[Message]
	closed bool
	ready  chan struct{} // one slot; closed with the inbox
}

func newInbox() *Inbox { return &Inbox{ready: make(chan struct{}, 1)} }

// Ready fires when messages may be waiting; a Take after it can still come
// back empty. Once the inbox is closed it fires on every receive.
func (in *Inbox) Ready() <-chan struct{} { return in.ready }

// Take appends up to max of the oldest queued messages to dst and returns
// it, and signals Ready again if messages remain. The consumer owns what it
// takes, pooled references included. open is false once the inbox is
// closed: it then holds nothing and never will.
func (in *Inbox) Take(dst []Message, max int) (_ []Message, open bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return dst, false
	}
	dst = in.queue.take(dst, max)
	if in.queue.len() > 0 {
		in.signal()
	}
	return dst, true
}

// push queues msgs in order under one lock and one wakeup, so a coalesced
// send stays one burst for the consumer. On a closed inbox it drops them
// with their pooled references.
func (in *Inbox) push(msgs ...Message) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		releaseAll(msgs)
		return
	}
	in.queue.push(msgs...)
	in.signal()
	in.mu.Unlock()
}

// signal fills the ready slot unless a wakeup is already pending. Callers
// hold mu and have checked closed, so it never sends on a closed channel.
func (in *Inbox) signal() {
	select {
	case in.ready <- struct{}{}:
	default:
	}
}

// close discards what is queued, releasing its pooled references, and
// leaves Ready firing so the consumer comes to see the close.
func (in *Inbox) close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	dropped := in.queue.take(nil, in.queue.len())
	close(in.ready)
	in.mu.Unlock()
	releaseAll(dropped)
}

func releaseAll(msgs []Message) {
	for i := range msgs {
		msgs[i].ReleaseRefs()
	}
}
