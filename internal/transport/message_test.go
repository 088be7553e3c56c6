package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Kind:     KindPhase2,
		From:     3,
		To:       7,
		Ring:     2,
		Ballot:   9,
		Instance: 123456789,
		Votes:    2,
		Count:    16,
		Seq:      42,
		Value: Value{
			ID:    MakeValueID(3, 11),
			Skip:  false,
			Count: 1,
			Data:  []byte("hello multicast"),
		},
		Payload: []byte{1, 2, 3},
	}
	buf := encode(&m)
	if len(buf) != m.EncodedSize() {
		t.Fatalf("EncodedSize = %d, actual = %d", m.EncodedSize(), len(buf))
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageRoundTripEmpty(t *testing.T) {
	m := Message{Kind: KindTrim}
	got, err := DecodeMessage(encode(&m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, m)
	}
}

func TestDecodeShortInputs(t *testing.T) {
	m := Message{Kind: KindPhase2, Value: Value{ID: 1, Data: []byte("xyz")}, Payload: []byte("p")}
	full := encode(&m)
	for i := 0; i < len(full); i++ {
		if _, err := DecodeMessage(full[:i]); err == nil {
			t.Fatalf("DecodeMessage accepted truncation at %d bytes", i)
		}
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(kind uint8, from, to, ring, ballot uint32, inst uint64, votes, count uint32, seq, vid uint64, skip bool, vcount uint32, data, payload []byte) bool {
		m := Message{
			Kind: Kind(kind), From: ProcessID(from), To: ProcessID(to),
			Ring: RingID(ring), Ballot: ballot, Instance: inst,
			Votes: votes, Count: count, Seq: seq,
			Value:   Value{ID: vid, Skip: skip, Count: vcount, Data: data},
			Payload: payload,
		}
		got, err := DecodeMessage(encode(&m))
		if err != nil {
			return false
		}
		// Decode yields nil for empty slices; normalize.
		if len(m.Value.Data) == 0 {
			m.Value.Data = nil
		}
		if len(m.Payload) == 0 {
			m.Payload = nil
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValueBatchedFlagRoundTrip(t *testing.T) {
	m := Message{Kind: KindPhase2, Value: Value{ID: 3, Batched: true, Count: 1, Data: []byte("packed")}}
	got, err := DecodeMessage(encode(&m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Value.Batched || got.Value.Skip {
		t.Errorf("flags lost: %+v", got.Value)
	}
	batch := []InstanceValue{{Instance: 1, Value: Value{ID: 9, Batched: true, Data: []byte("x")}}}
	dec, err := DecodeBatch(EncodeBatch(batch))
	if err != nil || !dec[0].Value.Batched {
		t.Errorf("batch flags lost: %+v, %v", dec, err)
	}
}

func TestMakeValueID(t *testing.T) {
	id := MakeValueID(5, 99)
	if id>>32 != 5 || id&0xffffffff != 99 {
		t.Errorf("MakeValueID(5, 99) = %x", id)
	}
}

func TestValueSpan(t *testing.T) {
	if (Value{}).Span() != 1 {
		t.Error("zero value should span 1 instance")
	}
	if (Value{Count: 5}).Span() != 5 {
		t.Error("Count=5 should span 5 instances")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	batch := []InstanceValue{
		{Instance: 1, Value: Value{ID: 10, Data: []byte("a")}},
		{Instance: 2, Value: Value{ID: 11, Skip: true, Count: 7}},
		{Instance: 9, Value: Value{ID: 12, Data: bytes.Repeat([]byte("x"), 100)}},
	}
	got, err := DecodeBatch(EncodeBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, got) {
		t.Errorf("batch round trip mismatch:\n got %+v\nwant %+v", got, batch)
	}
}

func TestBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected empty batch, got %d entries", len(got))
	}
}

func TestBatchDecodeCorrupt(t *testing.T) {
	batch := []InstanceValue{{Instance: 1, Value: Value{ID: 1, Data: []byte("abcdef")}}}
	full := EncodeBatch(batch)
	for i := 0; i < len(full); i++ {
		if _, err := DecodeBatch(full[:i]); err == nil && i < len(full) {
			t.Fatalf("DecodeBatch accepted truncation at %d bytes", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPhase2.String() != "Phase2" {
		t.Errorf("KindPhase2.String() = %q", KindPhase2.String())
	}
	if KindSkipRequest.String() != "SkipRequest" || !isRingKind(KindSkipRequest) {
		t.Errorf("KindSkipRequest: String() = %q, ring kind = %v", KindSkipRequest.String(), isRingKind(KindSkipRequest))
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind String() = %q", Kind(200).String())
	}
}

// TestKindNumbers pins the wire number of every message kind: a kind is
// one byte of every frame, so removing a constant from the middle of the
// iota (or the blank that reserves retired number 21) would silently
// renumber what peers of another build send.
func TestKindNumbers(t *testing.T) {
	want := []struct {
		k Kind
		n uint8
	}{
		{KindProposal, 1}, {KindPhase1A, 2}, {KindPhase2, 4},
		{KindDecision, 5}, {KindRetransmitReq, 6}, {KindRetransmitResp, 7},
		{KindSafeReq, 8}, {KindSafeResp, 9}, {KindTrim, 10}, {KindCommand, 11},
		{KindResponse, 12}, {KindCheckpointReq, 13}, {KindCheckpointResp, 14},
		{KindSnapshotReq, 15}, {KindSnapshotChunk, 16}, {KindReconfigPrepare, 17},
		{KindReconfigAck, 18}, {KindRangeReq, 19}, {KindRangeChunk, 20},
		{KindOverloaded, 22}, {KindLocalRead, 23}, {KindLocalReadResp, 24},
		{KindHeartbeat, 25}, {KindSkipRequest, 26},
	}
	if len(want) != len(kindNames) {
		t.Fatalf("table has %d kinds, kindNames %d", len(want), len(kindNames))
	}
	for _, w := range want {
		if uint8(w.k) != w.n {
			t.Errorf("%v = %d on the wire, want %d", w.k, uint8(w.k), w.n)
		}
		if _, ok := kindNames[w.k]; !ok {
			t.Errorf("kind %d has no name", w.n)
		}
	}
	for _, retired := range []Kind{3, 21} {
		if got := retired.String(); got != fmt.Sprintf("Kind(%d)", retired) || isRingKind(retired) {
			t.Errorf("retired kind %d: String() = %q, ring kind = %v; want unnamed and unrouted", retired, got, isRingKind(retired))
		}
	}
}

func BenchmarkMessageEncode(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	m := Message{Kind: KindPhase2, Instance: 1 << 40, Value: Value{ID: 7, Data: data}}
	buf := make([]byte, 0, m.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendEncode(buf[:0])
	}
}

func BenchmarkMessageDecode(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	m := Message{Kind: KindPhase2, Instance: 1 << 40, Value: Value{ID: 7, Data: data}}
	buf := encode(&m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// encode returns the binary encoding of m.
func encode(m *Message) []byte {
	return m.AppendEncode(make([]byte, 0, m.EncodedSize()))
}
