package netem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// LinkFault describes injected misbehaviour on one directed link. Faults
// compose with the topology's nominal shaping: a message first samples
// drop/duplicate, then has Delay plus a uniform draw from [0,Jitter) added
// to its propagation time.
type LinkFault struct {
	// Drop is the probability in [0,1] that a message is lost.
	Drop float64
	// Dup is the probability in [0,1] that a message is delivered twice.
	Dup float64
	// Delay is extra fixed one-way delay.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0,Jitter).
	Jitter time.Duration
}

// FaultOutcome is the sampled fate of a single message.
type FaultOutcome struct {
	Drop  bool
	Dup   bool
	Extra time.Duration
}

// FaultPlan is a mutable set of injected link faults and partitions,
// consulted by the transport on every send while any fault is active.
// Links are keyed by raw process ids (uint32) so the plan stays free of a
// transport dependency. All methods are safe for concurrent use; sampling
// uses a seeded rng so campaigns replay deterministically given the same
// message interleaving.
type FaultPlan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	faults   map[[2]uint32]LinkFault
	cuts     map[[2]uint32]bool
	isolated map[uint32]bool
	active   atomic.Int32 // len(faults)+len(cuts)+len(isolated); lock-free emptiness check
}

// NewFaultPlan creates an empty plan with a deterministic rng seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:      rand.New(rand.NewSource(seed)),
		faults:   make(map[[2]uint32]LinkFault),
		cuts:     make(map[[2]uint32]bool),
		isolated: make(map[uint32]bool),
	}
}

// Active reports whether any fault or cut is installed. The transport calls
// this on every send; it must stay cheap and lock-free.
func (p *FaultPlan) Active() bool { return p.active.Load() != 0 }

func (p *FaultPlan) recount() {
	p.active.Store(int32(len(p.faults) + len(p.cuts) + len(p.isolated)))
}

// SetLink installs (or replaces) the fault on the from→to link.
//
//lint:allow testonly TestFaultPlanSampling and TestNetworkFaultDelay (transport) shape one link
func (p *FaultPlan) SetLink(from, to uint32, f LinkFault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[[2]uint32{from, to}] = f
	p.recount()
}

// SetLinkBoth installs the fault in both directions between a and b.
//
//lint:allow testonly TestSplitSurvivesCoordinatorCrashMidMarker (reconfig) slows both directions of a link
func (p *FaultPlan) SetLinkBoth(a, b uint32, f LinkFault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[[2]uint32{a, b}] = f
	p.faults[[2]uint32{b, a}] = f
	p.recount()
}

// ClearLink removes any fault on the from→to link (cuts are separate).
//
//lint:allow testonly TestFaultPlanSampling removes a link fault
func (p *FaultPlan) ClearLink(from, to uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.faults, [2]uint32{from, to})
	p.recount()
}

// Cut severs the from→to direction entirely (an asymmetric partition if
// the reverse direction stays up).
//
//lint:allow testonly TestDecisionLossRecoveredByRetransmit (ring) and TestNetworkBlockUnblock (transport) cut one direction
func (p *FaultPlan) Cut(from, to uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cuts[[2]uint32{from, to}] = true
	p.recount()
}

// CutBoth severs both directions between a and b.
//
//lint:allow testonly TestDetectorAsymmetricCutNoQuorumNoEviction (coord) and TestNetworkFaultCutAndHeal (transport) cut a pair
func (p *FaultPlan) CutBoth(a, b uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cuts[[2]uint32{a, b}] = true
	p.cuts[[2]uint32{b, a}] = true
	p.recount()
}

// Partition severs every link between the two sets, both directions.
// Processes absent from both sets are unaffected.
//
//lint:allow testonly TestFaultPlanCutsAndHeal partitions two sets
func (p *FaultPlan) Partition(a, b []uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			p.cuts[[2]uint32{x, y}] = true
			p.cuts[[2]uint32{y, x}] = true
		}
	}
	p.recount()
}

// PartitionOneWay severs only the from-set → to-set direction, modelling
// an asymmetric failure where one side still hears the other.
//
//lint:allow testonly TestFaultPlanAsymmetric severs one direction between two sets
func (p *FaultPlan) PartitionOneWay(from, to []uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, x := range from {
		for _, y := range to {
			p.cuts[[2]uint32{x, y}] = true
		}
	}
	p.recount()
}

// Heal removes the cut on the from→to direction.
//
//lint:allow testonly TestDecisionLossRecoveredByRetransmit (ring) and TestNetworkBlockUnblock (transport) heal a cut
func (p *FaultPlan) Heal(from, to uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.cuts, [2]uint32{from, to})
	p.recount()
}

// Isolate severs every link touching the process, both directions,
// regardless of peer — the node falls off the network wholesale (a NIC
// or top-of-rack failure) without having to enumerate its peers.
func (p *FaultPlan) Isolate(id uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.isolated[id] = true
	p.recount()
}

// Unisolate reconnects a process isolated with Isolate. Pairwise cuts
// and link faults involving it remain in force.
func (p *FaultPlan) Unisolate(id uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.isolated, id)
	p.recount()
}

// HealAll removes every cut, isolation and link fault.
//
//lint:allow testonly TestFaultPlanCutsAndHeal and TestSplitSurvivesCoordinatorCrashMidMarker (reconfig) clear every fault
func (p *FaultPlan) HealAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = make(map[[2]uint32]LinkFault)
	p.cuts = make(map[[2]uint32]bool)
	p.isolated = make(map[uint32]bool)
	p.recount()
}

// Sample draws the fate of one message on the from→to link. Cut links
// always drop.
func (p *FaultPlan) Sample(from, to uint32) FaultOutcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := [2]uint32{from, to}
	if p.cuts[key] || p.isolated[from] || p.isolated[to] {
		return FaultOutcome{Drop: true}
	}
	f, ok := p.faults[key]
	if !ok {
		return FaultOutcome{}
	}
	var oc FaultOutcome
	if f.Drop > 0 && p.rng.Float64() < f.Drop {
		oc.Drop = true
		return oc
	}
	if f.Dup > 0 && p.rng.Float64() < f.Dup {
		oc.Dup = true
	}
	oc.Extra = f.Delay
	if f.Jitter > 0 {
		oc.Extra += time.Duration(p.rng.Int63n(int64(f.Jitter)))
	}
	return oc
}
