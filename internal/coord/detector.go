package coord

import (
	"math"
	"sync"
	"time"

	"amcast/internal/transport"
)

// DetectorOptions tunes the heartbeat failure detector.
type DetectorOptions struct {
	// Interval is the heartbeat period. Default 50ms.
	Interval time.Duration
	// minTimeout floors the silence before suspicion regardless of φ
	// (guards against a too-confident estimator on a quiet, regular
	// network). Default 10×Interval.
	minTimeout time.Duration
	// maxTimeout caps the silence: past it a peer is suspected even
	// without enough samples for a φ estimate. Default 60×Interval.
	maxTimeout time.Duration
}

const (
	// phiThreshold is the φ-accrual suspicion threshold: suspect once the
	// probability that a beat is merely late drops below 10^-8.
	phiThreshold = 8
	// rejoinBeats is the hysteresis: consecutive beats a suspected peer
	// must deliver before the suspicion is withdrawn, so a flapping link
	// does not yo-yo the membership.
	rejoinBeats = 3
	// sampleWindow is the number of inter-arrival samples kept.
	sampleWindow = 64
)

func (o DetectorOptions) withDefaults() DetectorOptions {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.minTimeout <= 0 {
		o.minTimeout = 10 * o.Interval
	}
	if o.maxTimeout <= 0 {
		o.maxTimeout = 60 * o.Interval
	}
	if o.maxTimeout < o.minTimeout {
		o.maxTimeout = o.minTimeout
	}
	return o
}

// Detector is one process's failure detector. It heartbeats every peer it
// shares a ring with, estimates each peer's inter-arrival distribution
// (φ-accrual: suspicion accrues with silence instead of tripping a fixed
// timeout), and files suspicion reports with the coordination service,
// which arbitrates them into MarkDown/MarkUp (see suspicion.go). The
// detector never manipulates liveness directly, so a single confused
// observer cannot evict a healthy node.
type Detector struct {
	self transport.ProcessID
	svc  *Service
	tr   transport.Transport
	in   *transport.Inbox
	opts DetectorOptions

	mu    sync.Mutex
	peers map[transport.ProcessID]*peerState

	done chan struct{}
	wg   sync.WaitGroup
}

// peerState is the detector's view of one monitored peer.
type peerState struct {
	last      time.Time // last heartbeat (or first-monitored time)
	heard     bool      // ever heard from this peer
	samples   []float64 // inter-arrival window, seconds
	idx       int
	filled    bool
	suspected bool
	beats     int // consecutive beats while suspected (hysteresis)
}

// NewDetector starts a detector for self. in must be the router's
// Heartbeats inbox; tr the matching transport. The detector stops
// heartbeating when Stop is called; it stops listening when in closes.
func NewDetector(self transport.ProcessID, svc *Service, tr transport.Transport, in *transport.Inbox, opts DetectorOptions) *Detector {
	d := &Detector{
		self:  self,
		svc:   svc,
		tr:    tr,
		in:    in,
		opts:  opts.withDefaults(),
		peers: make(map[transport.ProcessID]*peerState),
		done:  make(chan struct{}),
	}
	d.refreshPeers(time.Now())
	d.wg.Add(1)
	go d.loop()
	return d
}

// Stop halts heartbeating and withdraws this observer's suspicion reports.
func (d *Detector) Stop() {
	select {
	case <-d.done:
	default:
		close(d.done)
	}
	d.wg.Wait()
	d.svc.ClearObserver(d.self)
}

// loop records heartbeats as they arrive and, every interval, sends its
// own and re-evaluates suspicion.
func (d *Detector) loop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.Interval)
	defer t.Stop()
	ready := d.in.Ready()
	var burst []transport.Message
	for {
		select {
		case <-d.done:
			return
		case <-ready:
			var open bool
			burst, open = d.in.Take(burst[:0], 64)
			now := time.Now()
			for _, m := range burst {
				if m.Kind == transport.KindHeartbeat {
					d.onBeat(m.From, now)
				}
			}
			if !open {
				ready = nil // keep heartbeating: peers still watch us
			}
		case now := <-t.C:
			d.refreshPeers(now)
			d.beatAndEvaluate(now)
		}
	}
}

// refreshPeers recomputes the monitored set: every co-member of every ring
// containing self, down or not (a down peer is still monitored so its
// recovery is noticed). State of peers that left all shared rings is
// dropped along with any suspicion filed against them.
func (d *Detector) refreshPeers(now time.Time) {
	want := make(map[transport.ProcessID]bool)
	for _, ringID := range d.svc.Rings() {
		cfg, ok := d.svc.Ring(ringID)
		if !ok || cfg.Roles(d.self) == 0 {
			continue
		}
		for _, m := range cfg.Members {
			if m.ID != d.self {
				want[m.ID] = true
			}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range want {
		if d.peers[id] == nil {
			d.peers[id] = &peerState{last: now}
		}
	}
	for id, ps := range d.peers {
		if !want[id] {
			if ps.suspected {
				d.svc.Unsuspect(d.self, id)
			}
			delete(d.peers, id)
		}
	}
}

// onBeat records a heartbeat arrival from peer p.
func (d *Detector) onBeat(p transport.ProcessID, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ps := d.peers[p]
	if ps == nil {
		return // not monitored (e.g. a client); refresh governs the set
	}
	if ps.suspected {
		// Hysteresis: withdraw only after rejoinBeats consecutive beats.
		// A beat arriving after another long silence restarts the count.
		if now.Sub(ps.last) > d.opts.minTimeout {
			ps.beats = 1
		} else {
			ps.beats++
		}
		ps.last = now
		if ps.beats >= rejoinBeats {
			ps.suspected = false
			ps.beats = 0
			// The silence polluted the window; restart the estimate.
			ps.samples = ps.samples[:0]
			ps.idx, ps.filled = 0, false
			d.svc.Unsuspect(d.self, p)
		}
		return
	}
	if ps.heard {
		d.record(ps, now.Sub(ps.last).Seconds())
	}
	ps.heard = true
	ps.last = now
}

func (d *Detector) record(ps *peerState, interval float64) {
	if len(ps.samples) < sampleWindow {
		ps.samples = append(ps.samples, interval)
		return
	}
	ps.samples[ps.idx] = interval
	ps.idx = (ps.idx + 1) % sampleWindow
	ps.filled = true
}

// beatAndEvaluate sends a heartbeat to every monitored peer and accrues
// suspicion on silence.
func (d *Detector) beatAndEvaluate(now time.Time) {
	d.mu.Lock()
	type verdict struct {
		id      transport.ProcessID
		suspect bool
	}
	targets := make([]transport.ProcessID, 0, len(d.peers))
	var verdicts []verdict
	for id, ps := range d.peers {
		targets = append(targets, id)
		if ps.suspected {
			// Re-assert: arbitration re-runs against the current monitor
			// electorate, so reports filed before a membership change
			// still count after it.
			verdicts = append(verdicts, verdict{id, true})
			continue
		}
		elapsed := now.Sub(ps.last)
		if elapsed < d.opts.minTimeout {
			continue
		}
		if elapsed >= d.opts.maxTimeout || d.phi(ps, elapsed) >= phiThreshold {
			ps.suspected = true
			ps.beats = 0
			verdicts = append(verdicts, verdict{id, true})
		}
	}
	d.mu.Unlock()

	// File reports and send beats outside d.mu: the service takes its own
	// lock, and Send may block on transport backpressure.
	for _, v := range verdicts {
		if v.suspect {
			d.svc.Suspect(d.self, v.id)
		}
	}
	for _, id := range targets {
		_ = d.tr.Send(id, transport.Message{Kind: transport.KindHeartbeat})
	}
}

// phi computes the φ-accrual suspicion level after elapsed silence, using a
// normal approximation of the inter-arrival distribution. With too few
// samples it returns 0 (maxTimeout then provides the only bound).
func (d *Detector) phi(ps *peerState, elapsed time.Duration) float64 {
	n := len(ps.samples)
	if n < 8 {
		return 0
	}
	var sum, sq float64
	for _, s := range ps.samples {
		sum += s
		sq += s * s
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	// Clamp the deviation: a perfectly regular simulated network yields a
	// near-zero σ that would make any hiccup look infinitely suspicious.
	if floor := mean / 4; std < floor {
		std = floor
	}
	if floor := 0.001; std < floor { // 1ms
		std = floor
	}
	t := elapsed.Seconds()
	pLater := 0.5 * math.Erfc((t-mean)/(std*math.Sqrt2))
	if pLater < 1e-300 {
		pLater = 1e-300
	}
	return -math.Log10(pLater)
}
