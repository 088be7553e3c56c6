package store

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"amcast/internal/transport"
)

func TestOpRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpRead, Key: "user42"},
		{Kind: OpScan, Key: "a", KeyHi: "z"},
		{Kind: OpUpdate, Key: "k", Value: []byte("value")},
		{Kind: OpInsert, Key: "k2", Value: []byte{}},
		{Kind: OpDelete, Key: "gone"},
		{Kind: OpBatch, Batch: []Op{
			{Kind: OpInsert, Key: "b1", Value: []byte("x")},
			{Kind: OpRead, Key: "b2"},
		}},
	}
	for _, op := range ops {
		t.Run(op.Kind.String(), func(t *testing.T) {
			got, err := DecodeOp(op.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != op.Kind || got.Key != op.Key || got.KeyHi != op.KeyHi ||
				string(got.Value) != string(op.Value) || len(got.Batch) != len(op.Batch) {
				t.Errorf("round trip: got %+v want %+v", got, op)
			}
		})
	}
}

func TestOpDecodeTruncated(t *testing.T) {
	full := (Op{Kind: OpUpdate, Key: "key", Value: []byte("value")}).Encode()
	for i := 0; i < len(full); i++ {
		if _, err := DecodeOp(full[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := Result{
		Status: StatusOK,
		Entries: []Entry{
			{Key: "a", Value: []byte("1")},
			{Key: "b", Value: []byte("2")},
		},
		Results: []Result{
			{Status: StatusNotFound},
			{Status: StatusOK, Entries: []Entry{{Key: "c", Value: []byte("3")}}},
		},
	}
	enc := r.Encode()
	if len(enc) != r.encodedLen() || cap(enc) != len(enc) {
		t.Errorf("Encode: len %d cap %d, encodedLen %d: the buffer is sized once, exactly", len(enc), cap(enc), r.encodedLen())
	}
	got, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestOpRoundTripQuick(t *testing.T) {
	f := func(kind uint8, key, keyHi string, value []byte) bool {
		if len(key) > 60000 || len(keyHi) > 60000 {
			return true
		}
		op := Op{Kind: OpKind(kind), Key: key, KeyHi: keyHi, Value: value}
		got, err := DecodeOp(op.Encode())
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Key == op.Key && got.KeyHi == op.KeyHi &&
			string(got.Value) == string(op.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOK.String() != "ok" || StatusNotFound.String() != "not-found" ||
		StatusExists.String() != "exists" || StatusBadRequest.String() != "bad-request" ||
		Status(99).String() != "unknown" {
		t.Error("status strings broken")
	}
	if OpRead.String() != "read" || OpKind(99).String() != "unknown" {
		t.Error("op kind strings broken")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := Schema{
		Kind:        RangePartitioned,
		GlobalGroup: 9,
		Partitions: []Partition{
			{Group: 1, Low: ""},
			{Group: 2, Low: "h"},
			{Group: 3, Low: "q"},
		},
	}
	got, err := DecodeSchema(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip: got %+v want %+v", got, s)
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{}).Validate(); err == nil {
		t.Error("empty schema accepted")
	}
	dup := Schema{Kind: HashPartitioned, Partitions: []Partition{{Group: 1}, {Group: 1}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate groups accepted")
	}
	collide := Schema{Kind: HashPartitioned, GlobalGroup: 1, Partitions: []Partition{{Group: 1}}}
	if err := collide.Validate(); err == nil {
		t.Error("global/partition collision accepted")
	}
	unsorted := Schema{Kind: RangePartitioned, Partitions: []Partition{{Group: 1, Low: ""}, {Group: 2, Low: "m"}, {Group: 3, Low: "c"}}}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted ranges accepted")
	}
	badFirst := Schema{Kind: RangePartitioned, Partitions: []Partition{{Group: 1, Low: "b"}, {Group: 2, Low: "m"}}}
	if err := badFirst.Validate(); err == nil {
		t.Error("first range not at empty key accepted")
	}
	good := RangeSchema([]transport.RingID{1, 2, 3}, 9)
	if err := good.Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestRangePartitionOf(t *testing.T) {
	s := Schema{
		Kind: RangePartitioned,
		Partitions: []Partition{
			{Group: 1, Low: ""},
			{Group: 2, Low: "h"},
			{Group: 3, Low: "q"},
		},
	}
	tests := []struct {
		key  string
		want transport.RingID
	}{
		{"", 1}, {"apple", 1}, {"gzzz", 1},
		{"h", 2}, {"hello", 2}, {"pzzz", 2},
		{"q", 3}, {"zebra", 3},
	}
	for _, tt := range tests {
		if got := s.PartitionOf(tt.key); got != tt.want {
			t.Errorf("PartitionOf(%q) = %d, want %d", tt.key, got, tt.want)
		}
	}
}

func TestHashPartitionOfStable(t *testing.T) {
	s := HashSchema([]transport.RingID{1, 2, 3}, 0)
	// Deterministic and within range.
	for _, key := range []string{"a", "b", "user1234", ""} {
		g1 := s.PartitionOf(key)
		g2 := s.PartitionOf(key)
		if g1 != g2 {
			t.Errorf("PartitionOf(%q) unstable", key)
		}
		if g1 < 1 || g1 > 3 {
			t.Errorf("PartitionOf(%q) = %d out of range", key, g1)
		}
	}
	// Distribution sanity: all partitions used.
	used := make(map[transport.RingID]int)
	for i := 0; i < 1000; i++ {
		used[s.PartitionOf(string(rune('a'+i%26))+string(rune('0'+i%10)))]++
	}
	if len(used) != 3 {
		t.Errorf("hash distribution used %d/3 partitions", len(used))
	}
}

func TestGroupsForScan(t *testing.T) {
	s := Schema{
		Kind: RangePartitioned,
		Partitions: []Partition{
			{Group: 1, Low: ""},
			{Group: 2, Low: "h"},
			{Group: 3, Low: "q"},
		},
	}
	tests := []struct {
		lo, hi string
		want   []transport.RingID
	}{
		{"a", "c", []transport.RingID{1}},
		{"a", "j", []transport.RingID{1, 2}},
		{"i", "k", []transport.RingID{2}},
		{"a", "z", []transport.RingID{1, 2, 3}},
		{"r", "z", []transport.RingID{3}},
	}
	for _, tt := range tests {
		got := s.GroupsForScan(tt.lo, tt.hi)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("GroupsForScan(%q,%q) = %v, want %v", tt.lo, tt.hi, got, tt.want)
		}
	}
	// Hash: always all groups.
	h := HashSchema([]transport.RingID{1, 2}, 0)
	if got := h.GroupsForScan("a", "b"); len(got) != 2 {
		t.Errorf("hash scan groups = %v", got)
	}
}

func TestSMExecute(t *testing.T) {
	sm := NewSM()
	exec := func(op Op) Result {
		res, err := DecodeResult(sm.Execute(1, op.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := exec(Op{Kind: OpRead, Key: "x"}); res.Status != StatusNotFound {
		t.Errorf("read missing = %v", res.Status)
	}
	if res := exec(Op{Kind: OpInsert, Key: "x", Value: []byte("1")}); res.Status != StatusOK {
		t.Errorf("insert = %v", res.Status)
	}
	if res := exec(Op{Kind: OpInsert, Key: "x", Value: []byte("1")}); res.Status != StatusExists {
		t.Errorf("double insert = %v", res.Status)
	}
	if res := exec(Op{Kind: OpUpdate, Key: "x", Value: []byte("2")}); res.Status != StatusOK {
		t.Errorf("update = %v", res.Status)
	}
	if res := exec(Op{Kind: OpUpdate, Key: "y", Value: []byte("2")}); res.Status != StatusNotFound {
		t.Errorf("update missing = %v", res.Status)
	}
	if res := exec(Op{Kind: OpRead, Key: "x"}); res.Status != StatusOK || string(res.Entries[0].Value) != "2" {
		t.Errorf("read = %+v", res)
	}
	if res := exec(Op{Kind: OpDelete, Key: "x"}); res.Status != StatusOK {
		t.Errorf("delete = %v", res.Status)
	}
	if res := exec(Op{Kind: OpDelete, Key: "x"}); res.Status != StatusNotFound {
		t.Errorf("double delete = %v", res.Status)
	}
	// Batch.
	res := exec(Op{Kind: OpBatch, Batch: []Op{
		{Kind: OpInsert, Key: "a", Value: []byte("1")},
		{Kind: OpInsert, Key: "b", Value: []byte("2")},
		{Kind: OpRead, Key: "a"},
	}})
	if res.Status != StatusOK || len(res.Results) != 3 || res.Results[2].Status != StatusOK {
		t.Errorf("batch = %+v", res)
	}
	// Scan.
	res = exec(Op{Kind: OpScan, Key: "a", KeyHi: "z"})
	if res.Status != StatusOK || len(res.Entries) != 2 {
		t.Errorf("scan = %+v", res)
	}
	// Garbage op.
	if r, err := DecodeResult(sm.Execute(1, []byte{0xff})); err != nil || r.Status != StatusBadRequest {
		t.Errorf("garbage op = %+v, %v", r, err)
	}
}

func TestSMSnapshotRestore(t *testing.T) {
	sm := NewSM()
	for i := 0; i < 50; i++ {
		op := Op{Kind: OpInsert, Key: string(rune('a'+i%26)) + string(rune('0'+i/26)), Value: []byte{byte(i)}}
		sm.Execute(1, op.Encode())
	}
	snap := sm.Snapshot()

	sm2 := NewSM()
	if err := sm2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if sm2.Len() != sm.Len() {
		t.Errorf("restored Len = %d, want %d", sm2.Len(), sm.Len())
	}
	if string(sm2.Snapshot()) != string(snap) {
		t.Error("snapshot of restored state differs")
	}
	if err := sm2.Restore([]byte{1, 2}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestSMExecuteBatchMatchesExecute checks the batch apply entry point is
// equivalent to per-op Execute, including error results and reads.
func TestSMExecuteBatchMatchesExecute(t *testing.T) {
	ops := [][]byte{
		Op{Kind: OpInsert, Key: "a", Value: []byte("1")}.Encode(),
		Op{Kind: OpInsert, Key: "a", Value: []byte("2")}.Encode(), // exists
		Op{Kind: OpRead, Key: "a"}.Encode(),
		Op{Kind: OpUpdate, Key: "a", Value: []byte("3")}.Encode(),
		Op{Kind: OpRead, Key: "a"}.Encode(),
		Op{Kind: OpDelete, Key: "a"}.Encode(),
		Op{Kind: OpRead, Key: "a"}.Encode(), // not found
		{0xFF},                              // undecodable
	}
	groups := make([]transport.RingID, len(ops))
	for i := range groups {
		groups[i] = 1
	}
	single, batched := NewSM(), NewSM()
	var want [][]byte
	for i, op := range ops {
		want = append(want, single.Execute(groups[i], op))
	}
	got := batched.ExecuteBatch(groups, ops)
	if len(got) != len(want) {
		t.Fatalf("results %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("result %d: batch %x, single %x", i, got[i], want[i])
		}
	}
}
