package ring

import (
	"time"

	"amcast/internal/metrics"
)

// drainMeter estimates how fast the coordinator's proposal queue drains,
// in messages per second. It is fed at the loop's single propose point
// with the number of messages dequeued there (not instances: with message
// packing one instance carries many), and closes a sample whenever at
// least drainSampleWindow has passed since the previous one, folding
// messages/elapsed into an EWMA. The estimate only matters while the
// queue is full, when the propose point runs every burst and samples are
// dense; the window spanning an idle gap is one low sample the EWMA
// forgets within a few windows of load.
type drainMeter struct {
	rate  *metrics.EWMA
	since time.Time // start of the open sample window (zero: none yet)
	msgs  int       // messages dequeued since then
}

const (
	drainSampleWindow = 10 * time.Millisecond
	drainRateAlpha    = 0.3
)

// observe records msgs messages dequeued at time now.
func (d *drainMeter) observe(msgs int, now time.Time) {
	if d.since.IsZero() {
		// The first dequeue opens the first window; its messages sat in
		// the queue for an unknown time and are not counted.
		d.since = now
		return
	}
	d.msgs += msgs
	if elapsed := now.Sub(d.since); elapsed >= drainSampleWindow {
		d.rate.Update(float64(d.msgs) / elapsed.Seconds())
		d.since, d.msgs = now, 0
	}
}

// retryAfter estimates how long a shed proposer should back off: the time
// this coordinator needs to drain its full proposal queue at the measured
// drain rate, clamped to [5ms, 2s]. Without a rate sample yet it falls
// back to the retry interval.
func (n *Node) retryAfter() time.Duration {
	rate := n.drain.rate.Value()
	if rate < 1 {
		return n.cfg.RetryInterval
	}
	d := time.Duration(float64(n.cfg.MaxPending) / rate * float64(time.Second))
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}
