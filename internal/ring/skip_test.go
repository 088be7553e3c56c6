package ring

import (
	"testing"
	"time"

	"amcast/internal/transport"
)

// White-box tests of skip on stall at the coordinator (skipOnDemand), on
// the quiet coordinator of pack_test.go: the handler only records, the
// propose point of the burst acts, and what it proposes is a function of
// the requests and the window's accounting alone.

const (
	skipDelta  = 5 * time.Millisecond
	skipLambda = 9000
	skipBudget = 45 // λ·Δ
)

func levelingCoordinator(t *testing.T, tweak func(*Config)) (*Node, *sinkTransport) {
	t.Helper()
	return quietCoordinator(t, 3, fullRoles, func(cfg *Config) {
		cfg.SkipEnabled, cfg.Delta, cfg.Lambda = true, skipDelta, skipLambda
		if tweak != nil {
			tweak(cfg)
		}
	})
}

func skipRequest(target uint64) transport.Message {
	return transport.Message{Kind: transport.KindSkipRequest, Ring: 1, From: 2, Instance: target}
}

// takeSkips returns the skips proposed since the last call as (first
// instance, span) pairs, failing on any other Phase 2.
func takeSkips(t *testing.T, sink *sinkTransport) (out [][2]uint64) {
	t.Helper()
	for _, m := range sink.take(transport.KindPhase2) {
		if !m.value.Skip {
			t.Fatalf("proposed a value, want only skips: %+v", m)
		}
		out = append(out, [2]uint64{m.instance, uint64(m.value.Count)})
	}
	return out
}

// TestSkipOnDemandOnePerTarget: three learners asking for one index cost
// one skip; a target already assigned costs none; the skip covers the
// target or what is left of the window's budget, whichever is further.
func TestSkipOnDemandOnePerTarget(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)

	// All three requests of one burst, then the same target again.
	endBurst(n, skipRequest(100), skipRequest(100), skipRequest(100))
	endBurst(n, skipRequest(100))
	got := takeSkips(t, sink)
	if len(got) != 1 || got[0] != [2]uint64{1, 100} || n.px.nextInstance != 101 {
		t.Fatalf("skips = %v (next instance %d), want one skip of instances 1..100", got, n.px.nextInstance)
	}
	if fs := n.FlowStats(); fs.SkipsOnDemand != 1 {
		t.Fatalf("SkipsOnDemand = %d, want 1", fs.SkipsOnDemand)
	}

	// Behind nextInstance: a learner replaying old instances.
	endBurst(n, skipRequest(7), skipRequest(100))
	if got := takeSkips(t, sink); len(got) != 0 {
		t.Fatalf("a target already assigned was skipped again: %v", got)
	}

	// The budget is spent (100 > 45): a further request gets what it
	// needs and no more — target 101 is instance 101 alone.
	endBurst(n, skipRequest(101))
	if got := takeSkips(t, sink); len(got) != 1 || got[0] != [2]uint64{101, 1} {
		t.Fatalf("skips = %v, want instance 101 alone", got)
	}
}

// TestSkipOnDemandChargesTheWindow: values proposed, instances skipped on
// demand and what the tick then adds come to λ·Δ for the window when the
// need fits the budget; a need past it is met in full and the tick adds
// nothing.
func TestSkipOnDemandChargesTheWindow(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)

	// Two values, then a request that needs less than the budget has left:
	// the skip is widened to the rest of the window.
	endBurst(n, pooledProposal(1, 64), pooledProposal(2, 64))
	sink.take(transport.KindPhase2)
	endBurst(n, skipRequest(5))
	onDemand := takeSkips(t, sink)
	if len(onDemand) != 1 || onDemand[0] != [2]uint64{3, skipBudget - 2} {
		t.Fatalf("on-demand skip = %v, want instances 3.. spanning the budget's remaining %d", onDemand, skipBudget-2)
	}
	tick(n, evDelta)
	endBurst(n)
	if tick := takeSkips(t, sink); len(tick) != 0 {
		t.Fatalf("the tick skipped %v on top of a window already at λ·Δ", tick)
	}
	if n.px.nextInstance != skipBudget+1 {
		t.Fatalf("window ended at instance %d, want λ·Δ = %d instances", n.px.nextInstance-1, skipBudget)
	}

	// A need past the budget is met in full and the tick adds nothing.
	start := n.px.nextInstance
	endBurst(n, skipRequest(start+3*skipBudget-1))
	if got := takeSkips(t, sink); len(got) != 1 || got[0] != [2]uint64{start, 3 * skipBudget} {
		t.Fatalf("skips = %v, want one of %d instances from %d", got, 3*skipBudget, start)
	}
	tick(n, evDelta)
	endBurst(n)
	if tick := takeSkips(t, sink); len(tick) != 0 {
		t.Fatalf("the tick skipped %v after the window overran its budget on demand", tick)
	}
}

// TestSkipOnDemandWaitsForTheWindow: with the pipeline window full nothing
// is proposed and the target stays recorded; the propose point of the burst
// that frees a slot acts on it.
func TestSkipOnDemandWaitsForTheWindow(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, func(cfg *Config) { cfg.Window = 1 })
	endBurst(n, pooledProposal(1, 64))
	sink.take(transport.KindPhase2)
	endBurst(n, skipRequest(10))
	if got := takeSkips(t, sink); len(got) != 0 || n.px.skipTarget != 10 {
		t.Fatalf("window full: proposed %v, recorded target %d; want nothing and 10", got, n.px.skipTarget)
	}
	endBurst(n, decisionFor(n, 1))
	if got := takeSkips(t, sink); len(got) != 1 || got[0][0] != 2 || got[0][0]+got[0][1]-1 < 10 {
		t.Fatalf("after the slot freed: %v, want one skip from 2 through at least 10", got)
	}
}

// TestSkipOnDemandClampsCorruptTarget: a target of 2⁶³ yields one skip of
// maxSkipSpan — Count is never a truncated 64-bit span — and is not chased
// by a skip per loop iteration afterwards.
func TestSkipOnDemandClampsCorruptTarget(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)
	endBurst(n, skipRequest(1<<63))
	endBurst(n)
	endBurst(n)
	if got := takeSkips(t, sink); len(got) != 1 || got[0] != [2]uint64{1, maxSkipSpan} {
		t.Fatalf("skips = %v, want one clamped to %d instances", got, maxSkipSpan)
	}
	if n.px.nextInstance != maxSkipSpan+1 {
		t.Fatalf("next instance = %d, want %d", n.px.nextInstance, maxSkipSpan+1)
	}
}

// TestSkipRequestOnlyAtCoordinator: a request reaching a process that is
// not the coordinator is dropped — neither acted on nor recorded for a
// later term — and so is one on a ring without rate leveling.
func TestSkipRequestOnlyAtCoordinator(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)
	n.px.isCoord = false
	endBurst(n, skipRequest(50))
	n.px.isCoord = true
	endBurst(n)
	if got := sink.take(transport.KindPhase2); len(got) != 0 || n.px.skipTarget != 0 {
		t.Fatalf("non-coordinator acted on a request: %v (recorded %d)", got, n.px.skipTarget)
	}

	off, offSink := quietCoordinator(t, 3, fullRoles, nil)
	endBurst(off, skipRequest(50))
	if got := offSink.take(transport.KindPhase2); len(got) != 0 {
		t.Fatalf("ring without rate leveling skipped on demand: %v", got)
	}
}

// TestRetiredKindIsDropped: wire number 21 was FlowFeedback. A frame an
// older peer still sends is dropped like any kind this ring does not
// speak: nothing proposed, no flow-control counter moved.
func TestRetiredKindIsDropped(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)
	before := n.FlowStats()
	endBurst(n, transport.Message{Kind: 21, Ring: 1, From: 2, Instance: uint64(skipDelta)})
	endBurst(n)
	if got := sink.take(transport.KindPhase2); len(got) != 0 || n.FlowStats() != before {
		t.Fatalf("kind 21 was acted on: proposed %v, FlowStats %+v → %+v", got, before, n.FlowStats())
	}
}

// TestLateCoordinatorMakesUpMissedWindows pins the frontier offset the tick
// never closes: while Phase 1 is outstanding every Δ tick returns before any
// accounting, so each is λ·Δ instances lost for good (five of them: the
// "223 behind" regime). A learner's request names where the other rings
// are; it is kept while Phase 1 runs and answered by one skip at the
// propose point of the burst that completes it.
func TestLateCoordinatorMakesUpMissedWindows(t *testing.T) {
	expectOutstanding(t)
	n, sink := levelingCoordinator(t, nil)
	n.px.phase1Ready = false
	for range 5 {
		tick(n, evDelta)
		endBurst(n)
	}
	endBurst(n, skipRequest(5*skipBudget))
	if got := sink.take(transport.KindPhase2); len(got) != 0 || n.px.nextInstance != 1 {
		t.Fatalf("proposed %v before Phase 1 completed", got)
	}
	// The Phase 1A returns with every promise: same burst, one skip.
	endBurst(n, transport.Message{
		Kind: transport.KindPhase1A, Ring: 1, Ballot: n.px.ballot, Instance: n.px.nextDeliver, Votes: 3,
	})
	got := takeSkips(t, sink)
	if len(got) != 1 || got[0] != [2]uint64{1, 5 * skipBudget} {
		t.Fatalf("skips = %v, want the five missed windows (%d instances) in one", got, 5*skipBudget)
	}
	// On the tick path alone the offset would stay: the next tick levels
	// its own window only.
	tick(n, evDelta)
	endBurst(n)
	if tick := takeSkips(t, sink); len(tick) != 0 {
		t.Fatalf("tick after the on-demand skip proposed %v, want nothing (window overran)", tick)
	}
}
