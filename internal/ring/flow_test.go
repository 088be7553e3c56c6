package ring

import (
	"encoding/binary"
	"testing"
	"time"

	"amcast/internal/transport"
)

// TestSkipPacerCarriesDeficitWhenSaturated pins the window-accounting
// behavior audited in ISSUE 5: a deficit that cannot be proposed because
// the pipeline is saturated is CARRIED into the next window — capped at
// one window's target, so a long saturation does not burst an unbounded
// skip range afterwards.
func TestSkipPacerCarriesDeficitWhenSaturated(t *testing.T) {
	cfg := (&Config{Delta: 10 * time.Millisecond, Lambda: 1000}).withDefaults()
	p := newSkipPacer(cfg)
	const target = 10 // λ·Δ = 1000 * 0.01

	if got := p.window(0, false); got != target {
		t.Fatalf("idle window proposed %d skips, want %d", got, target)
	}
	if got := p.window(4, false); got != target-4 {
		t.Fatalf("partial window proposed %d skips, want %d", got, target-4)
	}
	if got := p.window(target, false); got != 0 {
		t.Fatalf("full window proposed %d skips, want 0", got)
	}

	// Saturated: deficit carried, not proposed.
	if got := p.window(0, true); got != 0 {
		t.Fatalf("saturated window proposed %d skips, want 0", got)
	}
	if p.carry != target {
		t.Fatalf("carry = %d after one saturated window, want %d", p.carry, target)
	}
	// A long saturation must not accumulate an unbounded carry.
	for i := 0; i < 10; i++ {
		if got := p.window(0, true); got != 0 {
			t.Fatalf("saturated window %d proposed %d skips", i, got)
		}
	}
	if p.carry > target {
		t.Fatalf("carry = %d after long saturation, want <= %d (capped at one window)", p.carry, target)
	}
	// Once the pipeline frees, the carried deficit is proposed on top of
	// the window's own — bounded at two windows' worth.
	got := p.window(0, false)
	if got != 2*target {
		t.Fatalf("post-saturation window proposed %d skips, want %d (one window + capped carry)", got, 2*target)
	}
	if p.carry != 0 {
		t.Fatalf("carry = %d after release, want 0", p.carry)
	}
}

// TestSlowSubscriberDoesNotStallRing is the isolation acceptance test: a
// learner consuming at a fraction of the ring's speed must not stall
// acceptor voting or the other learners' delivery. The slow subscriber
// is node 2 — the acceptor whose vote completes the majority — so
// against the old coupled event loop this test provably wedges (its loop
// blocks on the full delivery buffer, Phase 2 messages pile up unvoted,
// and the whole ring stalls to its pace; measured ~14s for the fast
// learners vs the 8s deadline). With the decoupled delivery stage the
// fast learners finish at full speed and the slow one catches up through
// the retransmit path without losing or reordering a single delivery.
func TestSlowSubscriberDoesNotStallRing(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.Window = 256
		cfg.deliverBuffer = 1024
		cfg.RetryInterval = 30 * time.Millisecond
	})
	const total = 6000

	type learnerResult struct {
		count     int
		lastInst  uint64
		outOfSeq  bool
		duplicate bool
	}
	// fastDone lifts the slow consumer's pacing once the fast learners
	// proved isolation, so catch-up completeness can be checked quickly.
	fastDone := make(chan struct{})
	consume := func(n *Node, perEntryDelay time.Duration, done chan learnerResult) {
		var res learnerResult
		for batch := range batchesOf(n) {
			for _, d := range batch {
				if d.Instance <= res.lastInst && res.lastInst != 0 {
					if d.Instance == res.lastInst {
						res.duplicate = true
					} else {
						res.outOfSeq = true
					}
				}
				res.lastInst = d.Instance
				if !d.Value.Skip {
					res.count++
				}
			}
			if perEntryDelay > 0 {
				select {
				case <-fastDone:
				default:
					time.Sleep(time.Duration(len(batch)) * perEntryDelay)
				}
			}
			n.ReleaseBatch(batch)
			if res.count >= total {
				break
			}
		}
		done <- res
	}

	fast1 := make(chan learnerResult, 1)
	fast3 := make(chan learnerResult, 1)
	slow := make(chan learnerResult, 1)
	go consume(c.nodes[1], 0, fast1)
	go consume(c.nodes[3], 0, fast3)
	// ~3ms per entry ≈ 330 msgs/s: far below the in-process ring's decide
	// rate, so the delivery buffer (1024) overruns quickly.
	go consume(c.nodes[2], 3*time.Millisecond, slow)

	go func() {
		payload := make([]byte, 16)
		for i := 0; i < total; i++ {
			binary.LittleEndian.PutUint64(payload, uint64(i))
			_ = propose(c.nodes[1], append([]byte(nil), payload...))
		}
	}()

	// The fast learners must finish promptly, slow subscriber or not.
	for name, ch := range map[string]chan learnerResult{"node1": fast1, "node3": fast3} {
		select {
		case res := <-ch:
			if res.count < total {
				t.Fatalf("%s delivered %d/%d", name, res.count, total)
			}
			if res.outOfSeq || res.duplicate {
				t.Fatalf("%s delivery order violated (dup=%v outOfSeq=%v)", name, res.duplicate, res.outOfSeq)
			}
		case <-time.After(8 * time.Second):
			t.Fatalf("%s stalled behind the slow subscriber", name)
		}
	}
	close(fastDone)

	// The slow learner must still receive the complete ordered stream —
	// the overrun transitions it to catch-up via the retransmit path, it
	// never silently loses deliveries.
	select {
	case res := <-slow:
		if res.count < total {
			t.Fatalf("slow learner delivered %d/%d", res.count, total)
		}
		if res.outOfSeq || res.duplicate {
			t.Fatalf("slow learner order violated (dup=%v outOfSeq=%v)", res.duplicate, res.outOfSeq)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("slow learner never caught up")
	}

	fs := c.nodes[2].FlowStats()
	if fs.Overruns == 0 {
		t.Fatalf("slow learner never overran the delivery buffer (stats %+v); the test did not exercise catch-up", fs)
	}
	if fs.ServedEntries == 0 {
		t.Fatalf("catch-up served no entries (stats %+v)", fs)
	}
}

// TestOverloadedCoordinatorRepliesLoudly verifies admission control: a
// proposal shed at a full queue produces a KindOverloaded reply with a
// retry-after hint instead of a silent drop.
func TestOverloadedCoordinatorRepliesLoudly(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.MaxPending = 1
		cfg.Window = 1
		cfg.RetryInterval = time.Hour // freeze retries: keep the queue full
	})
	// Cut the coordinator's successor link so nothing decides and the
	// queue stays full.
	c.net.Faults().Cut(1, 2)
	time.Sleep(50 * time.Millisecond)

	// An external proposer (not a ring member) sends proposals straight
	// to the coordinator; overflow must come back to it as KindOverloaded.
	tr := c.net.Attach(99, "local")
	for i := 0; i < 5; i++ {
		_ = tr.Send(1, transport.Message{
			Kind:  transport.KindProposal,
			Ring:  c.ring,
			Value: transport.Value{ID: transport.MakeValueID(99, uint32(i+1)), Count: 1, Data: []byte("x")},
		})
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-tr.Recv():
			if m.Kind != transport.KindOverloaded {
				continue
			}
			if m.Value.ID>>32 != 99 {
				t.Fatalf("overload reply echoes value id %#x, want one of proposer 99", m.Value.ID)
			}
			if m.Instance == 0 {
				t.Fatal("overload reply carries no retry-after hint")
			}
			if fs := c.nodes[1].FlowStats(); fs.ShedProposals == 0 {
				t.Fatalf("coordinator shed counter not incremented: %+v", fs)
			}
			return
		case <-deadline:
			t.Fatal("no Overloaded reply for proposals shed at a full queue")
		}
	}
}

// TestCatchupAbortsWhenRangeTrimmed pins the failure mode of a learner
// whose catch-up range was trimmed from every acceptor's log: instead of
// silently retrying a void forever (delivery wedged, no signal), the
// delivery stream terminates loudly — the consumer observes end-of-stream
// plus FlowStats.CatchupAborted and recovers via checkpoint transfer.
func TestCatchupAbortsWhenRangeTrimmed(t *testing.T) {
	testCatchupAbortsWhenRangeTrimmed(t, false)
}

// TestCatchupAbortsWhenTrimCrossesWindow is the same failure with the
// trim point INSIDE the catch-up request window: acceptors answer with
// decided instances ABOVE the catch-up watermark but none at it, which
// must count as the same trimmed-range evidence as an explicit
// unavailable report.
func TestCatchupAbortsWhenTrimCrossesWindow(t *testing.T) {
	testCatchupAbortsWhenRangeTrimmed(t, true)
}

func testCatchupAbortsWhenRangeTrimmed(t *testing.T, trimInsideWindow bool) {
	c := newCluster(t, 3, func(cfg *Config) {
		cfg.Window = 256
		cfg.deliverBuffer = 512
		cfg.RetryInterval = 30 * time.Millisecond
	})
	const total = 3000

	// Node 2 consumes nothing: it overruns its buffer and enters
	// catch-up while nodes 1 and 3 drain at full speed.
	done1 := make(chan uint64, 1)
	done3 := make(chan uint64, 1)
	drain := func(n *Node, done chan uint64) {
		count, last := 0, uint64(0)
		for batch := range batchesOf(n) {
			for _, d := range batch {
				if !d.Value.Skip {
					count++
				}
				last = d.Instance
			}
			n.ReleaseBatch(batch)
			if count >= total {
				done <- last
				return
			}
		}
	}
	go drain(c.nodes[1], done1)
	go drain(c.nodes[3], done3)
	go func() {
		for i := 0; i < total; i++ {
			_ = propose(c.nodes[1], []byte{byte(i)})
		}
	}()
	var lastInst uint64
	for _, ch := range []chan uint64{done1, done3} {
		select {
		case lastInst = <-ch:
		case <-time.After(20 * time.Second):
			t.Fatal("fast learners did not finish")
		}
	}
	// Wait for node 2 to be in catch-up.
	deadline := time.Now().Add(5 * time.Second)
	for !c.nodes[2].FlowStats().CatchupActive {
		if time.Now().After(deadline) {
			t.Fatalf("node 2 never entered catch-up: %+v", c.nodes[2].FlowStats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Trim every acceptor — the catch-up range is now gone everywhere,
	// with later instances retained as positive evidence of the trim.
	// The mid-window variant trims to just past the catch-up watermark,
	// so retransmit replies carry instances above it instead of an
	// explicit unavailable report.
	trimTo := lastInst - 10
	if trimInsideWindow {
		trimTo = c.nodes[2].FlowStats().CatchupNext + 50
		if trimTo > lastInst-10 {
			trimTo = lastInst - 10
		}
	}
	tr := c.net.Attach(98, "local")
	for id := transport.ProcessID(1); id <= 3; id++ {
		_ = tr.Send(id, transport.Message{Kind: transport.KindTrim, Ring: c.ring, Instance: trimTo})
	}
	// Drain only once every log applied its trim: node 2 is an acceptor,
	// and a catch-up pumped before its own trim landed replays the whole
	// range from its untrimmed log instead of aborting.
	deadline = time.Now().Add(5 * time.Second)
	for id := transport.ProcessID(1); id <= 3; id++ {
		for c.logs[id].FirstRetained() <= trimTo {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never trimmed its log through %d", id, trimTo)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The slow consumer's stream must close (not wedge silently).
	streamClosed := make(chan struct{})
	go func() {
		for batch := range batchesOf(c.nodes[2]) {
			c.nodes[2].ReleaseBatch(batch)
		}
		close(streamClosed)
	}()
	select {
	case <-streamClosed:
	case <-time.After(15 * time.Second):
		t.Fatalf("delivery stream did not terminate after its catch-up range was trimmed: %+v", c.nodes[2].FlowStats())
	}
	if fs := c.nodes[2].FlowStats(); fs.CatchupAborted == 0 {
		t.Fatalf("stream closed without recording the catch-up abort: %+v", fs)
	}
}

// TestCatchupAbortsWhenGapTrimmed is the same failure for a learner that
// missed decisions instead of overrunning its queue: node 2 is cut off
// while nodes 1 and 3 decide and trim past what it learned. Once healed,
// it learns later decisions, so it misses a range that is gone from every
// live acceptor, and its stream must end as after an overrun, not retry the
// range forever.
func TestCatchupAbortsWhenGapTrimmed(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) { cfg.RetryInterval = 30 * time.Millisecond })
	streamClosed := make(chan struct{})
	go func() {
		for batch := range batchesOf(c.nodes[2]) {
			c.nodes[2].ReleaseBatch(batch)
		}
		close(streamClosed)
	}()

	c.svc.MarkDown(2)
	c.net.Faults().Isolate(2)
	const total = 50
	for i := 0; i < total; i++ {
		_ = propose(c.nodes[1], []byte{byte(i)})
	}
	var last uint64
	for _, d := range collect(t, c.nodes[3], total, 10*time.Second) {
		last = max(last, d.Instance)
	}
	tr := c.net.Attach(98, "local")
	for _, id := range []transport.ProcessID{1, 3} {
		_ = tr.Send(id, transport.Message{Kind: transport.KindTrim, Ring: c.ring, Instance: last})
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range []transport.ProcessID{1, 3} {
		for c.logs[id].FirstRetained() <= last {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never trimmed its log through %d", id, last)
			}
			time.Sleep(time.Millisecond)
		}
	}

	c.net.Faults().Unisolate(2)
	c.svc.MarkUp(2)
	stop := make(chan struct{})
	defer close(stop)
	go func() { // later decisions show node 2 the range it missed
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				_ = propose(c.nodes[1], []byte{byte(i)})
			}
		}
	}()
	select {
	case <-streamClosed:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivery stream did not terminate after the range node 2 missed was trimmed: %+v", c.nodes[2].FlowStats())
	}
	if fs := c.nodes[2].FlowStats(); fs.CatchupAborted == 0 {
		t.Fatalf("stream closed without recording the catch-up abort: %+v", fs)
	}
}
