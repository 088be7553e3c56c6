package core

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/recovery"
	"amcast/internal/ring"
	"amcast/internal/transport"
)

// Tests of skip on stall (mergeState.stall, Node.awaitTurn): deterministic
// in what they assert — delivery, order, who asked and who skipped — never
// a latency.

// TestSkipTarget tables mergeState.stall: the merge is blocked on ring
// Next at instance next; held lists what the other rings have decided up
// to their last value.
func TestSkipTarget(t *testing.T) {
	groups := []transport.RingID{1, 2, 3}
	for _, tc := range []struct {
		name      string
		m         int
		cur       Cursor
		next      uint64
		held      []uint64
		want      uint64
		wantNoAsk bool
	}{
		{name: "nothing held", m: 1, cur: Cursor{Next: 1, Remaining: 1}, next: 10, held: []uint64{0, 0, 0}, wantNoAsk: true},
		{name: "own backlog does not count", m: 1, cur: Cursor{Next: 1, Remaining: 1}, next: 10, held: []uint64{0, 7, 0}, wantNoAsk: true},
		{name: "M=1, one value next door", m: 1, cur: Cursor{Next: 1, Remaining: 1}, next: 10, held: []uint64{1, 0, 0}, want: 10},
		{name: "M=1, a later ring holds it", m: 1, cur: Cursor{Next: 1, Remaining: 1}, next: 10, held: []uint64{0, 0, 1}, want: 10},
		{name: "M=1, value behind a 225-instance skip", m: 1, cur: Cursor{Next: 0, Remaining: 1}, next: 1, held: []uint64{0, 226, 0}, want: 226},
		{name: "M=1, the deepest backlog decides", m: 1, cur: Cursor{Next: 2, Remaining: 1}, next: 50, held: []uint64{3, 9, 0}, want: 58},
		{name: "M=1, credits are turns already taken", m: 1, cur: Cursor{Next: 0, Remaining: 1, Credits: []uint64{0, 40, 0}}, next: 5, held: []uint64{0, 2, 0}, want: 46},
		{name: "M=1, credits without a value ask nothing", m: 1, cur: Cursor{Next: 0, Remaining: 1, Credits: []uint64{0, 40, 0}}, next: 5, held: []uint64{0, 0, 0}, wantNoAsk: true},
		{name: "M=4, turn in progress, one turn suffices", m: 4, cur: Cursor{Next: 1, Remaining: 3}, next: 10, held: []uint64{4, 0, 0}, want: 12},
		{name: "M=4, five held need two turns", m: 4, cur: Cursor{Next: 1, Remaining: 3}, next: 10, held: []uint64{5, 0, 0}, want: 16},
		{name: "M=4, credits push a value into the next turn", m: 4, cur: Cursor{Next: 1, Remaining: 4, Credits: []uint64{3, 0, 0}}, next: 1, held: []uint64{2, 0, 0}, want: 8},
	} {
		cur := tc.cur
		cur.Groups = groups
		if cur.Credits == nil {
			cur.Credits = make([]uint64, len(groups))
		}
		// Every other ring delivers from instance 100; the blocked one
		// from next.
		start := recovery.Vector{1: 99, 2: 99, 3: 99}
		start[groups[cur.Next]] = tc.next - 1
		st := newMergeState(tc.m, cur, start)
		last := make([]uint64, len(groups))
		for j, h := range tc.held {
			if h > 0 {
				last[j] = st.frontier[j] + h - 1
			}
		}
		got, ok := st.stall(last)
		if ok == tc.wantNoAsk || ok && got != tc.want {
			t.Errorf("%s: stall = %d, %v; want %d, %v", tc.name, got, ok, tc.want, !tc.wantNoAsk)
		}
		if _, again := st.stall(last); again {
			t.Errorf("%s: asked twice for one target", tc.name)
		}
	}
}

// twoRings boots three processes, all members and learners of rings 1 and
// 2, after checking in a pool-ledger assertion that runs once they stopped.
func twoRings(t *testing.T, tweak func(*Config)) *deployment {
	t.Helper()
	return twoRingsOver(t, nil, tweak)
}

func twoRingsOver(t *testing.T, wrap func(transport.Transport) transport.Transport, tweak func(*Config)) *deployment {
	t.Helper()
	before := bufpool.Outstanding()
	t.Cleanup(func() {
		if got := bufpool.Outstanding(); got != before {
			t.Errorf("pooled buffers outstanding = %d, want %d", got, before)
		}
	})
	rings := map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}, 2: {1, 2, 3}}
	d := newDeploymentOver(t, 3, rings, wrap, tweak)
	for i := 1; i <= 3; i++ {
		d.joinAll(transport.ProcessID(i), []transport.RingID{1, 2}, []transport.RingID{1, 2})
	}
	return d
}

// flowSum adds up one ring's skip-on-stall counters over every process:
// requests are counted where they are sent, skips where they are proposed.
func (d *deployment) flowSum(g transport.RingID) (requests, onDemand uint64) {
	for _, n := range d.nodes {
		fs, _ := n.RingFlowStats(g)
		requests += fs.SkipRequestsSent
		onDemand += fs.SkipsOnDemand
	}
	return requests, onDemand
}

// multicastAndCompare multicasts count values to ring 1 and checks that all
// three learners deliver exactly them, in one order.
func (d *deployment) multicastAndCompare(count int) {
	d.t.Helper()
	for i := 0; i < count; i++ {
		if err := d.nodes[1].Multicast(1, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			d.t.Fatal(err)
		}
	}
	first := d.collect(1, count, 20*time.Second)
	for id := transport.ProcessID(2); id <= 3; id++ {
		for i, dd := range d.collect(id, count, 20*time.Second) {
			if string(dd.Data) != string(first[i].Data) || dd.Instance != first[i].Instance {
				d.t.Fatalf("learner %d delivery %d = %q@%d, learner 1 has %q@%d", id, i, dd.Data, dd.Instance, first[i].Data, first[i].Instance)
			}
		}
	}
	for i, dd := range first {
		if want := fmt.Sprintf("v%03d", i); string(dd.Data) != want {
			d.t.Fatalf("delivery %d = %q, want %q", i, dd.Data, want)
		}
	}
}

// TestSkipOnStallNeedsNoTick: Δ is an hour, so no tick ever fires, and
// ring 2 is idle. Every value of ring 1 is held at every learner until
// ring 2 gets as far — which only a learner's request can bring about. On
// the tick path alone this deployment delivers one value and stops. Ring 1
// is never asked for anything: all ring 2 ever holds is skips.
func TestSkipOnStallNeedsNoTick(t *testing.T) {
	d := twoRings(t, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = time.Hour
	})
	d.multicastAndCompare(100)
	if requests, onDemand := d.flowSum(2); requests == 0 || onDemand == 0 {
		t.Fatalf("idle ring 2: %d requests, %d on-demand skips; want both > 0", requests, onDemand)
	}
	if requests, onDemand := d.flowSum(1); requests != 0 || onDemand != 0 {
		t.Fatalf("ring 1 was asked to chase ring 2's skips: %d requests, %d on-demand skips", requests, onDemand)
	}
}

// TestIdleRingsSendNoSkipRequests: twenty Δ of two idle rings levelled by
// their ticks — the merge waits on each in turn, never with a value held —
// send no request and skip nothing on demand.
func TestIdleRingsSendNoSkipRequests(t *testing.T) {
	const delta = 5 * time.Millisecond
	d := twoRings(t, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = delta
	})
	time.Sleep(20 * delta)
	for g := transport.RingID(1); g <= 2; g++ {
		if _, skipped, _ := d.nodes[1].RingStats(g); skipped == 0 {
			t.Fatalf("ring %d: no tick skipped anything in 20Δ; the test did not run the idle path", g)
		}
		if requests, onDemand := d.flowSum(g); requests != 0 || onDemand != 0 {
			t.Fatalf("idle ring %d: %d requests, %d on-demand skips; want none", g, requests, onDemand)
		}
	}
}

// requestDropper loses every skip request a process sends.
type requestDropper struct{ transport.Transport }

func (r requestDropper) Send(to transport.ProcessID, m transport.Message) error {
	if m.Kind == transport.KindSkipRequest {
		return nil
	}
	return r.Transport.Send(to, m)
}

// TestSkipRequestsLostTickCarries: with every request lost the Δ tick
// alone levels ring 2, as before: same values, same order, nothing skipped
// on demand.
func TestSkipRequestsLostTickCarries(t *testing.T) {
	lossy := func(tr transport.Transport) transport.Transport { return requestDropper{tr} }
	d := twoRingsOver(t, lossy, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = 5 * time.Millisecond
	})
	d.multicastAndCompare(100)
	if requests, onDemand := d.flowSum(2); requests == 0 || onDemand != 0 {
		t.Fatalf("ring 2: %d requests sent, %d on-demand skips; want requests > 0 (all lost) and no skip", requests, onDemand)
	}
}

// TestFrontierOffsetHealsAtFirstValue: ring 2's frontier is 225 instances
// ahead of ring 1's (five Δ windows at the paper's λ — a coordinator whose
// Phase 1 finished five ticks late) and no tick will ever close the gap.
// One value on ring 2: the learners ask ring 1's coordinator, once each at
// most, it proposes one skip of at least 225 instances, the value is
// delivered everywhere, and nobody asks again.
func TestFrontierOffsetHealsAtFirstValue(t *testing.T) {
	d := twoRings(t, func(cfg *Config) {
		cfg.Ring.SkipEnabled = true
		cfg.Ring.Delta = time.Hour
	})
	rn := func(id transport.ProcessID, g transport.RingID) *ring.Node {
		d.nodes[id].mu.Lock()
		defer d.nodes[id].mu.Unlock()
		return d.nodes[id].rings[g]
	}
	if err := rn(1, 2).ProposeValue(transport.Value{ID: transport.MakeValueID(9, 1), Skip: true, Count: 225}); err != nil {
		t.Fatal(err)
	}
	if err := d.nodes[1].Multicast(2, []byte("held")); err != nil {
		t.Fatal(err)
	}
	for id := transport.ProcessID(1); id <= 3; id++ {
		if got := d.collect(id, 1, 10*time.Second); string(got[0].Data) != "held" || got[0].Group != 2 || got[0].Instance != 226 {
			t.Fatalf("learner %d delivered %+v, want ring 2's value at instance 226", id, got[0])
		}
	}
	time.Sleep(50 * time.Millisecond) // room for a request that should not come
	// A learner asks once, for instance 226 — or not at all, if the skip
	// another learner asked for reached it before its merge looked.
	for id := transport.ProcessID(1); id <= 3; id++ {
		if fs, _ := d.nodes[id].RingFlowStats(1); fs.SkipRequestsSent > 1 || fs.SkipAwaited != 226*fs.SkipRequestsSent {
			t.Fatalf("learner %d sent %d requests to ring 1 (last for instance %d), want at most one, for 226", id, fs.SkipRequestsSent, fs.SkipAwaited)
		}
	}
	if requests, onDemand := d.flowSum(1); requests == 0 || onDemand != 1 {
		t.Fatalf("ring 1: %d requests answered by %d skips, want at least one request and exactly one skip", requests, onDemand)
	}
	if _, skipped, _ := d.nodes[1].RingStats(1); skipped < 225 {
		t.Fatalf("ring 1 skipped %d instances, want at least the 225 it was behind", skipped)
	}
	if requests, _ := d.flowSum(2); requests != 0 {
		t.Fatalf("ring 2 was asked for %d skips: ring 1 held none of its own values", requests)
	}
	// The wait that ended with that skip is in the operator's telemetry.
	waited := false
	for _, st := range d.nodes[2].MergeStalls() {
		waited = waited || st.Ring == 1 && st.Count > 0 && st.Total > 0
	}
	if !waited {
		t.Fatalf("no merge-stall telemetry for ring 1: %+v", d.nodes[2].MergeStalls())
	}
}
