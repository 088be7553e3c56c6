package transport

import (
	"testing"
	"time"

	"amcast/internal/trace"
)

// TestTraceHeaderRoundTrip pins the optional trailing trace header:
// refs survive encode/decode byte-exactly and EncodedSize stays exact.
func TestTraceHeaderRoundTrip(t *testing.T) {
	m := Message{
		Kind:  KindPhase2,
		From:  1,
		Ring:  2,
		Value: Value{ID: MakeValueID(1, 7), Data: []byte("v")},
		Traces: []TraceRef{
			{ValueID: MakeValueID(1, 7), Ctx: trace.Context{TraceID: 0xabcd, SpanID: 0x1234, Flags: trace.FlagSampled}},
			{ValueID: MakeValueID(2, 9), Ctx: trace.Context{TraceID: 0xefef, SpanID: 0x5678, Flags: trace.FlagSampled}},
		},
	}
	enc := encode(&m)
	if len(enc) != m.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", m.EncodedSize(), len(enc))
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(m, got) {
		t.Fatalf("round trip changed message:\n in:  %+v\n out: %+v", m, got)
	}
	if ctx, ok := traceFor(&got, MakeValueID(2, 9)); !ok || ctx.TraceID != 0xefef {
		t.Fatalf("TraceFor lost the second ref: %+v %v", ctx, ok)
	}
}

// TestUnknownOptionalHeaderSkipped pins forward compatibility: a frame
// carrying an optional header type this decoder does not know must
// decode cleanly — the unknown header skipped, known headers after it
// still parsed — and a legacy frame with no trailer at all must too.
func TestUnknownOptionalHeaderSkipped(t *testing.T) {
	base := Message{Kind: KindDecision, Ring: 1, Instance: 5, Value: Value{ID: 9, Data: []byte("x")}}
	plain := encode(&base)

	// Unknown type 0x42 with a 3-byte body, then a valid trace header.
	traced := base
	traced.Traces = []TraceRef{{ValueID: 9, Ctx: trace.Context{TraceID: 7, SpanID: 8, Flags: trace.FlagSampled}}}
	tracedEnc := encode(&traced)
	frame := append(append([]byte{}, plain...), 0x42, 3, 0, 1, 2, 3)
	frame = append(frame, tracedEnc[len(plain):]...)

	got, err := DecodeMessage(frame)
	if err != nil {
		t.Fatalf("frame with unknown optional header rejected: %v", err)
	}
	if got.Kind != KindDecision || got.Value.ID != 9 {
		t.Fatalf("frame fields corrupted: %+v", got)
	}
	if len(got.Traces) != 1 || got.Traces[0].Ctx.TraceID != 7 {
		t.Fatalf("trace header after unknown header lost: %+v", got.Traces)
	}

	// A truncated trailer is ignored, never an error.
	if _, err := DecodeMessage(append(append([]byte{}, plain...), 0x42, 0xff, 0xff, 1)); err != nil {
		t.Fatalf("truncated trailer rejected: %v", err)
	}
}

// TestTraceSurvivesCoalescedSendBatch pins satellite coverage for the
// first span-dropping hazard: same-destination runs coalesced by a
// BatchSender must deliver every message's trace refs intact.
func TestTraceSurvivesCoalescedSendBatch(t *testing.T) {
	net := NewNetwork(nil)
	defer net.Close()
	a := net.Attach(1, "")
	b := net.Attach(2, "")

	ctx1 := trace.Context{TraceID: 101, SpanID: 1, Flags: trace.FlagSampled}
	ctx2 := trace.Context{TraceID: 202, SpanID: 2, Flags: trace.FlagSampled}
	batch := []Message{
		{Kind: KindPhase2, To: 2, Ring: 1, Instance: 1, Value: Value{ID: 11},
			Traces: []TraceRef{{ValueID: 11, Ctx: ctx1}}},
		{Kind: KindPhase2, To: 2, Ring: 1, Instance: 2, Value: Value{ID: 22},
			Traces: []TraceRef{{ValueID: 22, Ctx: ctx2}}},
		{Kind: KindDecision, To: 2, Ring: 1, Instance: 1, Value: Value{ID: 11},
			Traces: []TraceRef{{ValueID: 11, Ctx: ctx1}}},
	}
	bs, ok := a.(BatchSender)
	if !ok {
		t.Fatal("network transport does not implement BatchSender")
	}
	if err := bs.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i, want := range batch {
		got, err := recvTimeout(b, time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if gotCtx, ok := traceFor(&got, want.Value.ID); !ok || gotCtx != want.Traces[0].Ctx {
			t.Fatalf("msg %d lost its trace context through the coalesced batch: %+v", i, got.Traces)
		}
	}
}

func recvTimeout(tr Transport, d time.Duration) (Message, error) {
	select {
	case m := <-tr.Recv():
		return m, nil
	case <-time.After(d):
		return Message{}, errTimeout
	}
}

var errTimeout = errTimeoutType{}

type errTimeoutType struct{}

func (errTimeoutType) Error() string { return "recv timeout" }

// traceFor returns the trace context m carries for a value id, if any.
func traceFor(m *Message, id uint64) (trace.Context, bool) {
	for _, tr := range m.Traces {
		if tr.ValueID == id {
			return tr.Ctx, true
		}
	}
	return trace.Context{}, false
}
