package smr

import (
	"fmt"
	"slices"
	"time"

	"amcast/internal/ring"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// call is one operation in flight. Its caller fills the request and blocks
// in await on done. Until respLoop, which alone completes calls, signals
// done, the request does not change and the rest is touched only under
// Client.mu: the loop may send a call it has not completed without the
// lock. Calls are recycled through their Client, channel included.
type call struct {
	seq     uint64
	target  transport.ProcessID // a LocalRead's replica; 0 for a multicast command
	valueID uint64              // multicast value id, reused by every retransmission
	groups  []transport.RingID  // multicast targets (a LocalRead: its group)
	accept  []transport.RingID  // nil accepts any distinct partition
	need    int
	payload []byte
	tctx    trace.Context
	retry   time.Duration // retransmission period (a LocalRead: its whole timeout)

	due      time.Duration // next retransmission, as an offset from Client.start
	deadline time.Duration
	seen     []transport.RingID // dedup keys of the responses counted
	resps    [][]byte           // the responses counted
	// Coordinator sheds and no-coordinator windows met, which name the
	// cause should the deadline pass.
	overloaded, noCoord int
	err                 error
	done                chan struct{} // buffered 1: one signal per await

	// A handful of groups and responses fits: the lists above start out
	// in here.
	groupBuf, acceptBuf, seenBuf [4]transport.RingID
	respBuf                      [4][]byte
}

// match classifies a response by its delivery group and partition tag and
// returns the dedup key, or ok=false if the response is not counted (e.g.
// a non-target partition answering a global-group scan).
func (e *call) match(deliveryGroup, partition transport.RingID) (transport.RingID, bool) {
	switch {
	case e.accept == nil:
		return partition, true
	case slices.Contains(e.accept, deliveryGroup):
		return deliveryGroup, true
	case slices.Contains(e.accept, partition):
		return partition, true
	}
	return 0, false
}

// timeoutErr names why the deadline passed: a command that never got
// through a full queue fails with an error wrapping ring.ErrOverloaded so
// callers can tell overload from loss.
func (e *call) timeoutErr() error {
	switch {
	case e.overloaded > 0:
		return fmt.Errorf("smr: command timed out after %d overload backoffs: %w", e.overloaded, ring.ErrOverloaded)
	case e.noCoord > 0:
		return fmt.Errorf("smr: command timed out with %d no-coordinator windows: %w", e.noCoord, ring.ErrNoCoordinator)
	}
	return ErrTimeout
}
