package ring

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/netem"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// tracedCluster wires one span recorder per node (sampling everything).
func tracedCluster(t *testing.T, n int) (*cluster, map[transport.ProcessID]*trace.Recorder) {
	t.Helper()
	recs := make(map[transport.ProcessID]*trace.Recorder)
	c := newCluster(t, n, func(cfg *Config) {
		rec := trace.NewRecorder(fmt.Sprintf("n%d", cfg.Self), 512)
		rec.SetSampling(1)
		recs[cfg.Self] = rec
		cfg.Tracer = rec
	})
	return c, recs
}

// spansOf returns a recorder's spans for one trace id.
func spansOf(rec *trace.Recorder, traceID uint64) []trace.Span {
	var out []trace.Span
	for _, s := range rec.Spans() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

func hasSpan(spans []trace.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestTraceSurvivesForwardedProposal sends a traced proposal to a
// NON-coordinator ring node: the node must forward it to the coordinator
// with the trace header intact (the transport restamps From at each hop,
// never the optional trailing headers), record a "forward" span, and the
// decided value's context must reach every learner's tag table.
func TestTraceSurvivesForwardedProposal(t *testing.T) {
	c, recs := tracedCluster(t, 3)

	// Find a non-coordinator: the forward path only triggers when a
	// proposal lands away from the coordinator.
	var nonCoord transport.ProcessID
	deadline := time.Now().Add(5 * time.Second)
	for nonCoord == 0 {
		for id, n := range c.nodes {
			n.mu.Lock()
			coordID := n.rc.Coordinator
			n.mu.Unlock()
			if coordID != 0 && coordID != id {
				nonCoord = id
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no coordinator elected")
		}
	}

	ctx := trace.Context{TraceID: 0xabcd, SpanID: 0xef01, Flags: trace.FlagSampled}
	v := transport.Value{ID: 7777, Data: []byte("fwd")}
	client := c.net.Attach(99, netem.SiteLocal)
	err := client.Send(nonCoord, transport.Message{
		Kind:   transport.KindProposal,
		Ring:   c.ring,
		Seq:    99, // original proposer, preserved across forwards
		Value:  v,
		Traces: []transport.TraceRef{{ValueID: v.ID, Ctx: ctx}},
	})
	if err != nil {
		t.Fatal(err)
	}

	for id := transport.ProcessID(1); id <= 3; id++ {
		ds := collect(t, c.nodes[id], 1, 5*time.Second)
		if ds[0].Value.ID != v.ID {
			t.Fatalf("node %d delivered value %d, want %d", id, ds[0].Value.ID, v.ID)
		}
		got, ok := c.nodes[id].TraceContextOf(v.ID)
		if !ok || got != ctx {
			t.Fatalf("node %d lost trace context: got %+v ok=%v", id, got, ok)
		}
	}
	if !hasSpan(spansOf(recs[nonCoord], ctx.TraceID), "forward") {
		t.Fatalf("non-coordinator %d recorded no forward span", nonCoord)
	}
	var all []trace.Span
	for _, rec := range recs {
		all = append(all, spansOf(rec, ctx.TraceID)...)
	}
	for _, name := range []string{"forward", "vote", "wal-commit", "decide"} {
		if !hasSpan(all, name) {
			t.Fatalf("trace missing %q span; have %+v", name, all)
		}
	}
}

// TestTraceSurvivesRetransmitCatchup blocks a learner's incoming ring
// link so it misses traced decisions, then heals the link: the catch-up
// retransmission must re-deliver the trace contexts along with the
// decided values it replays.
func TestTraceSurvivesRetransmitCatchup(t *testing.T) {
	c, _ := tracedCluster(t, 3)
	rec1 := c.nodes[1].tracer

	first := transport.Value{ID: 9000, Data: []byte("first")}
	if err := c.nodes[1].ProposeValueTraced(first, trace.Context{TraceID: 900, SpanID: 901, Flags: trace.FlagSampled}); err != nil {
		t.Fatal(err)
	}
	collect(t, c.nodes[3], 1, 5*time.Second)

	c.net.Faults().Cut(2, 3)
	ctxs := make(map[uint64]trace.Context)
	for i := 0; i < 5; i++ {
		id := uint64(9001 + i)
		ctx := trace.Context{TraceID: rec1.NextID(), SpanID: rec1.NextID(), Flags: trace.FlagSampled}
		ctxs[id] = ctx
		if err := c.nodes[1].ProposeValueTraced(transport.Value{ID: id, Data: []byte{byte(i)}}, ctx); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, c.nodes[2], 5, 5*time.Second)
	c.net.Faults().Heal(2, 3)

	ds := collect(t, c.nodes[3], 5, 10*time.Second)
	if len(ds) != 5 {
		t.Fatalf("node3 recovered %d/5 values", len(ds))
	}
	for id, want := range ctxs {
		got, ok := c.nodes[3].TraceContextOf(id)
		if !ok {
			t.Fatalf("node3 has no trace context for caught-up value %d", id)
		}
		if got != want {
			t.Fatalf("value %d: context %+v != %+v", id, got, want)
		}
	}
}
