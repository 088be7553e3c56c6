package transport

import (
	"bytes"
	"testing"

	"amcast/internal/trace"
)

// FuzzFrameDecode hammers the wire-format message decoder: DecodeMessage
// must never panic on adversarial bytes, and whatever it accepts must
// survive an encode/decode round trip unchanged (the encoding is
// canonical for the fields the decoder exposes).
func FuzzFrameDecode(f *testing.F) {
	seed := Message{
		Kind:     KindProposal,
		From:     3,
		To:       7,
		Ring:     2,
		Ballot:   9,
		Instance: 41,
		Votes:    1,
		Count:    2,
		Seq:      77,
		Value:    Value{ID: 5, Count: 1, Data: []byte("payload")},
		Payload:  []byte("aux"),
	}
	f.Add(seed.Encode())
	f.Add(seed.Encode()[:10]) // truncated header
	f.Add([]byte{})
	batched := seed
	batched.Value.Batched = true
	batched.Value.Data = EncodeBatch([]InstanceValue{
		{Instance: 1, Value: Value{ID: 1, Data: []byte("a")}},
		{Instance: 2, Value: Value{ID: 2, Skip: true, Count: 3}},
	})
	f.Add(batched.Encode())
	traced := seed
	traced.Traces = []TraceRef{{ValueID: 5, Ctx: trace.Context{TraceID: 11, SpanID: 12, Flags: trace.FlagSampled}}}
	f.Add(traced.Encode())
	// A skip-on-stall request: envelope only, the target instance at the
	// top of the range a learner can ask for.
	request := Message{Kind: KindSkipRequest, From: 3, To: 1, Ring: 2, Instance: 1 << 63}
	f.Add(request.Encode())
	// Kind 21 is retired (it was FlowFeedback): a frame an older peer
	// still sends decodes like any kind this build does not speak.
	retired := Message{Kind: 21, From: 3, To: 1, Ring: 2, Instance: 5_000_000}
	f.Add(retired.Encode())
	// Forward compatibility: an UNKNOWN optional trailing header (type
	// 0x7f) on an otherwise valid frame must be skipped, not rejected,
	// and headers after it must still parse.
	unknown := append(seed.Encode(), 0x7f, 4, 0, 0xde, 0xad, 0xbe, 0xef)
	unknown = append(unknown, traced.Encode()[len(seed.Encode()):]...) // trace header after the unknown one
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc := m.Encode()
		if len(enc) != m.EncodedSize() {
			t.Fatalf("EncodedSize %d != len(Encode) %d", m.EncodedSize(), len(enc))
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatalf("round trip changed message:\n  in:  %+v\n  out: %+v", m, m2)
		}

		// The batch codec must agree with itself on whatever it accepts.
		batch, err := DecodeBatch(m.Value.Data)
		if err != nil {
			return
		}
		reenc := EncodeBatch(batch)
		batch2, err := DecodeBatch(reenc)
		if err != nil || len(batch2) != len(batch) {
			t.Fatalf("batch re-encoding round trip failed: %v (%d vs %d entries)", err, len(batch2), len(batch))
		}
		// The incremental appender (the coordinator's packing path) writes
		// the same bytes as the slice encoder.
		inc := AppendBatchHeader(nil, len(batch))
		for _, iv := range batch {
			inc = AppendBatchEntry(inc, iv.Instance, iv.Value)
		}
		if !bytes.Equal(inc, reenc) {
			t.Fatalf("incremental batch encoding differs from EncodeBatch")
		}
	})
}

func messagesEqual(a, b Message) bool {
	if len(a.Traces) != len(b.Traces) {
		return false
	}
	for i := range a.Traces {
		if a.Traces[i] != b.Traces[i] {
			return false
		}
	}
	return a.Kind == b.Kind && a.From == b.From && a.To == b.To &&
		a.Ring == b.Ring && a.Ballot == b.Ballot && a.Instance == b.Instance &&
		a.Votes == b.Votes && a.Count == b.Count && a.Seq == b.Seq &&
		a.Value.ID == b.Value.ID && a.Value.Skip == b.Value.Skip &&
		a.Value.Batched == b.Value.Batched && a.Value.Count == b.Value.Count &&
		bytes.Equal(a.Value.Data, b.Value.Data) && bytes.Equal(a.Payload, b.Payload)
}
