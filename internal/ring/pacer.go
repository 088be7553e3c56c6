package ring

// skipPacer owns the coordinator's rate-leveling accounting (Section 4).
// Every Δ the coordinator closes one window: the pacer compares the
// values proposed in the window against the target λ·Δ and returns the
// skip span (number of null instances) needed to level the ring's
// instance rate. λ is preset to the maximum expected rate (9000 msgs/s
// LAN, 2000 WAN) and never moves.
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
	target  int // one window's instance budget λ·Δ
	carry   int
	skipped int // instances skipped on demand in the open window
}

// maxSkipSpan bounds one on-demand skip, whatever target a request
// names: a corrupt one must not mint a skip that overflows Value.Count.
const maxSkipSpan = 1 << 20

func newSkipPacer(cfg Config) *skipPacer {
	return &skipPacer{target: max(1, int(float64(cfg.Lambda)*cfg.Delta.Seconds()))}
}

// onDemand sizes a skip proposed between ticks because a learner's merge
// cannot deliver a value it holds until this ring is need instances further
// (skipOnDemand): at least need, widened to what is left of the open
// window's budget so the window's later values find the ring already
// there, and never more than maxSkipSpan. The span is charged to the
// window, whose closing tick then proposes only the remainder.
func (p *skipPacer) onDemand(need uint64, proposed int) int {
	span := int(min(need, maxSkipSpan))
	if left := p.target - proposed - p.skipped; left > span {
		span = min(left, maxSkipSpan)
	}
	p.skipped += span
	return span
}

// window closes one Δ window. proposed is the number of non-skip values
// proposed in the window; saturated reports a full proposal pipeline.
// It returns the skip span to propose (0 = none).
func (p *skipPacer) window(proposed int, saturated bool) int {
	deficit := p.target - proposed - p.skipped + p.carry
	p.skipped = 0
	p.carry = 0
	if deficit <= 0 {
		return 0
	}
	if max := 2 * p.target; deficit > max {
		deficit = max
	}
	if saturated {
		// Pipeline full: the ring is anything but idle, but the merge
		// still counts instances. Carry the deficit (capped at one
		// window's target) instead of silently discarding it.
		if deficit > p.target {
			deficit = p.target
		}
		p.carry = deficit
		return 0
	}
	return deficit
}
