package trace

import (
	"sync"
	"testing"
	"time"
)

func TestContextSampled(t *testing.T) {
	if (Context{}).Sampled() {
		t.Fatal("zero context reports sampled")
	}
	if (Context{TraceID: 1}).Sampled() {
		t.Fatal("unflagged context reports sampled")
	}
	if (Context{Flags: FlagSampled}).Sampled() {
		t.Fatal("context without trace id reports sampled")
	}
	if !(Context{TraceID: 1, Flags: FlagSampled}).Sampled() {
		t.Fatal("sampled context reports unsampled")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetSampling(1)
	if r.Name() != "" || r.NextID() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if ctx := r.StartRoot(); ctx.Sampled() {
		t.Fatal("nil recorder sampled a root")
	}
	r.Record(Span{TraceID: 1})
	r.Add(Context{TraceID: 1, Flags: FlagSampled}, "x", 0, 0, 0, time.Time{}, 0)
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}

	var c *Collector
	c.Register(NewRecorder("p", 4))
	if c.Trace(1) != nil || c.TraceIDs(0) != nil || spanCount(c) != 0 || c.Recorders() != nil {
		t.Fatal("nil collector leaked state")
	}
}

func TestSamplingDivisor(t *testing.T) {
	r := NewRecorder("p", 16)
	// Disabled by default.
	for i := 0; i < 10; i++ {
		if r.StartRoot().Sampled() {
			t.Fatal("sampled with divisor 0")
		}
	}
	r.SetSampling(1)
	for i := 0; i < 10; i++ {
		if !r.StartRoot().Sampled() {
			t.Fatal("divisor 1 skipped a root")
		}
	}
	r.SetSampling(4)
	sampled := 0
	for i := 0; i < 100; i++ {
		if r.StartRoot().Sampled() {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("divisor 4 sampled %d/100 roots, want 25", sampled)
	}
}

func TestNextIDsDistinctAndNonZero(t *testing.T) {
	a, b := NewRecorder("a", 4), NewRecorder("b", 4)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.NextID(), b.NextID()} {
			if id == 0 {
				t.Fatal("zero id")
			}
			if seen[id] {
				t.Fatalf("duplicate id %#x", id)
			}
			seen[id] = true
		}
	}
}

func TestRecorderRingOverwrites(t *testing.T) {
	r := NewRecorder("p", 4)
	for i := 1; i <= 10; i++ {
		r.Record(Span{TraceID: uint64(i), SpanID: uint64(i)})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want capacity 4", len(spans))
	}
	for _, s := range spans {
		if s.TraceID <= 6 {
			t.Fatalf("old span %d survived the wrap", s.TraceID)
		}
		if s.Process != "p" {
			t.Fatalf("span process %q, want recorder name", s.Process)
		}
	}
}

func TestRecordFillsSpanID(t *testing.T) {
	r := NewRecorder("p", 4)
	r.Record(Span{TraceID: 7})
	if s := r.Spans()[0]; s.SpanID == 0 {
		t.Fatal("Record left SpanID zero")
	}
}

func TestAddParentsOnContext(t *testing.T) {
	r := NewRecorder("p", 4)
	ctx := Context{TraceID: 5, SpanID: 9, Flags: FlagSampled}
	r.Add(ctx, "vote", 2, 11, 42, time.Unix(0, 1000), time.Microsecond)
	s := r.Spans()[0]
	if s.TraceID != 5 || s.ParentID != 9 || s.Name != "vote" || s.Ring != 2 || s.Instance != 11 || s.ValueID != 42 {
		t.Fatalf("Add recorded %+v", s)
	}
	r.Add(Context{TraceID: 5}, "unsampled", 0, 0, 0, time.Time{}, 0)
	if len(r.Spans()) != 1 {
		t.Fatal("Add recorded an unsampled span")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder("p", 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Span{TraceID: uint64(g + 1), SpanID: uint64(i + 1)})
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Spans()); n != 64 {
		t.Fatalf("ring holds %d spans after concurrent writes, want 64", n)
	}
}

func TestCollectorAssemblesCausalTimeline(t *testing.T) {
	client := NewRecorder("client", 8)
	p1 := NewRecorder("p1", 8)
	p2 := NewRecorder("p2", 8)
	c := NewCollector()
	for _, r := range []*Recorder{client, p1, p2} {
		c.Register(r)
	}

	base := time.Unix(100, 0)
	ctx := Context{TraceID: 77, SpanID: 1, Flags: FlagSampled}
	// Root recorded last, started first: order must come from causality,
	// not recording order.
	p2.Add(ctx, "decide", 1, 3, 9, base.Add(20*time.Millisecond), time.Millisecond)
	p1.Add(ctx, "vote", 1, 3, 9, base.Add(10*time.Millisecond), time.Millisecond)
	p1.Add(ctx, "apply", 1, 3, 9, base.Add(30*time.Millisecond), 0)
	client.Record(Span{TraceID: 77, SpanID: 1, Name: "submit", Start: base, Duration: 40 * time.Millisecond})
	// A second trace must not bleed in.
	p1.Add(Context{TraceID: 78, SpanID: 2, Flags: FlagSampled}, "vote", 1, 4, 10, base.Add(5*time.Millisecond), 0)

	spans := c.Trace(77)
	if len(spans) != 4 {
		t.Fatalf("assembled %d spans, want 4", len(spans))
	}
	order := []string{"submit", "vote", "decide", "apply"}
	for i, want := range order {
		if spans[i].Name != want {
			t.Fatalf("span %d is %q, want %q (order %+v)", i, spans[i].Name, want, spans)
		}
	}
	for _, s := range spans[1:] {
		if s.ParentID != 1 {
			t.Fatalf("child %q parent %d, want 1", s.Name, s.ParentID)
		}
	}

	ids := c.TraceIDs(0)
	if len(ids) != 2 {
		t.Fatalf("collector lists %d traces, want 2", len(ids))
	}
	// Newest-start first: trace 77's latest span (apply, +30ms) beats
	// trace 78's only span (+5ms).
	if ids[0] != 77 {
		t.Fatalf("trace order %v, want 77 first", ids)
	}
	if got := c.TraceIDs(1); len(got) != 1 || got[0] != 77 {
		t.Fatalf("limit 1 returned %v", got)
	}
	if spanCount(c) != 5 {
		t.Fatalf("span count %d, want 5", spanCount(c))
	}
	if c.Trace(999) != nil {
		t.Fatal("unknown trace id returned spans")
	}
}

// spanCount returns how many spans c's registered recorders retain.
func spanCount(c *Collector) int {
	if c == nil {
		return 0
	}
	n := 0
	for _, r := range c.snapshot() {
		n += len(r.Spans())
	}
	return n
}
