package ring

import (
	"time"

	"amcast/internal/metrics"
)

// skipPacer owns the coordinator's rate-leveling accounting (Section 4).
// Every Δ the coordinator closes one window: the pacer compares the
// values proposed in the window against the current target λ·Δ and
// returns the skip span (number of null instances) needed to level the
// ring's instance rate.
//
// Static mode reproduces the paper: λ is preset to the maximum expected
// rate (9000 msgs/s LAN, 2000 WAN) and never moves. Adaptive mode turns
// the knob into a feedback loop bounded by [λmin, λmax]:
//
//   - The decided-rate EWMA tracks the ring's own traffic; on a stall
//     report it provides the raise floor so a bursty ring levels to its
//     recent rate in one step.
//   - Learners report merge-stall feedback (ReportMergeStall → observeStall):
//     the deterministic merge waited on this ring, so the skip target
//     multiplies up toward λmax until the merge stops waiting.
//   - Without stall reports the target decays toward λmin, so rings that
//     keep pace stop flooding skip traffic through the WAL and network
//     (deficit ≤ 0 ⇒ no skip instance at all).
//
// Between ticks a learner may ask for a skip (onDemand, skip on stall);
// its span is charged to the open window.
//
// Window accounting: a deficit that cannot be proposed because the
// pipeline is saturated is CARRIED into the next window, capped at one
// window's target — the merge still needs those instances to advance, but
// an unbounded carry would burst a huge skip range after a long stall
// (TestSkipPacerCarriesDeficitWhenSaturated pins this behavior).
type skipPacer struct {
	delta     time.Duration
	adaptive  bool
	lambdaMin float64
	lambdaMax float64

	lambdaNow float64
	rate      *metrics.EWMA
	carry     int
	skipped   int // instances skipped on demand in the open window
	stallNs   int64
	calm      int
}

const (
	// pacerRateAlpha weights the decided-rate EWMA (per-Δ samples).
	pacerRateAlpha = 0.3
	// pacerHeadroom multiplies the measured rate when a stall report
	// forces a raise, so the target clears the ring's own traffic.
	pacerHeadroom = 1.25
	// pacerRaise is the multiplicative increase per stalled window.
	pacerRaise = 2.0
	// pacerDecay shrinks λ per calm window once pacerCalmWindows passed
	// without any stall report.
	pacerDecay       = 0.99
	pacerCalmWindows = 16
	// pacerStallFrac: stall reports below Δ/pacerStallFrac per window are
	// noise, not a straggling merge.
	pacerStallFrac = 8
	// maxSkipSpan bounds one on-demand skip, whatever target a request
	// names: a corrupt one must not mint a skip that overflows Value.Count.
	maxSkipSpan = 1 << 20
)

func newSkipPacer(cfg Config) *skipPacer {
	return &skipPacer{
		delta:     cfg.Delta,
		adaptive:  cfg.AdaptiveSkip,
		lambdaMin: float64(cfg.LambdaMin),
		lambdaMax: float64(cfg.LambdaMax),
		lambdaNow: float64(cfg.Lambda),
		rate:      metrics.NewEWMA(pacerRateAlpha),
	}
}

// observeStall accumulates merge-stall feedback for the current window.
func (p *skipPacer) observeStall(d time.Duration) {
	if d > 0 {
		p.stallNs += int64(d)
	}
}

// target is the current window's instance budget λ·Δ (λ never moves in
// static mode).
func (p *skipPacer) target() int { return max(1, int(p.lambdaNow*p.delta.Seconds())) }

// onDemand sizes a skip proposed between ticks because a learner's merge
// cannot deliver a value it holds until this ring is need instances further
// (skipOnDemand): at least need, widened to what is left of the open
// window's budget so the window's later values find the ring already
// there, and never more than maxSkipSpan. The span is charged to the
// window, whose closing tick then proposes only the remainder.
func (p *skipPacer) onDemand(need uint64, proposed int) int {
	span := int(min(need, maxSkipSpan))
	if left := p.target() - proposed - p.skipped; left > span {
		span = min(left, maxSkipSpan)
	}
	p.skipped += span
	return span
}

// window closes one Δ window. proposed is the number of non-skip values
// proposed in the window; saturated reports a full proposal pipeline.
// It returns the skip span to propose (0 = none).
func (p *skipPacer) window(proposed int, saturated bool) int {
	p.rate.Update(float64(proposed) / p.delta.Seconds())
	if p.adaptive {
		p.adapt()
	}
	target := p.target()
	deficit := target - proposed - p.skipped + p.carry
	p.skipped = 0
	p.carry = 0
	if deficit <= 0 {
		return 0
	}
	if max := 2 * target; deficit > max {
		deficit = max
	}
	if saturated {
		// Pipeline full: the ring is anything but idle, but the merge
		// still counts instances. Carry the deficit (capped at one
		// window's target) instead of silently discarding it.
		if deficit > target {
			deficit = target
		}
		p.carry = deficit
		return 0
	}
	return deficit
}

// adapt closes one adaptive window: consume the window's stall feedback
// and move λ within [λmin, λmax].
func (p *skipPacer) adapt() {
	stall := p.stallNs
	p.stallNs = 0
	if stall > int64(p.delta)/pacerStallFrac {
		// A merge somewhere is waiting on this ring: raise sharply, at
		// least clearing the ring's own recent rate.
		p.calm = 0
		next := p.lambdaNow * pacerRaise
		if floor := p.rate.Value() * pacerHeadroom; floor > next {
			next = floor
		}
		if next > p.lambdaMax {
			next = p.lambdaMax
		}
		p.lambdaNow = next
	} else {
		p.calm++
		if p.calm >= pacerCalmWindows {
			p.lambdaNow *= pacerDecay
		}
	}
	if p.lambdaNow < p.lambdaMin {
		p.lambdaNow = p.lambdaMin
	}
}
