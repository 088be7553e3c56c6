package dlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"amcast/internal/recovery"
	"amcast/internal/transport"
)

func TestOpRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAppend, Log: 1, Value: []byte("entry")},
		{Kind: OpMultiAppend, Logs: []LogID{1, 2, 9}, Value: []byte("x")},
		{Kind: OpRead, Log: 2, Pos: 42},
		{Kind: OpTrim, Log: 3, Pos: 100},
	}
	for _, op := range ops {
		got, err := decodeOp(op.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(op, got) {
			t.Errorf("round trip: got %+v want %+v", got, op)
		}
	}
}

func TestOpDecodeTruncated(t *testing.T) {
	full := (Op{Kind: OpMultiAppend, Logs: []LogID{1, 2}, Value: []byte("value")}).Encode()
	for i := 0; i < len(full); i++ {
		if _, err := decodeOp(full[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, r := range []Result{
		{Status: StatusOK, Positions: map[LogID]uint64{1: 10, 7: 3}, Value: []byte("payload")},
		{Status: StatusOK, Positions: map[LogID]uint64{7: 3}}, // an append's reply
		{Status: StatusNotFound},
	} {
		got, err := decodeResult(encodeResult(r))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Errorf("round trip: got %+v want %+v", got, r)
		}
	}
	// Replicas must answer with identical bytes: ascending log ids.
	many := Result{Status: StatusOK, Positions: map[LogID]uint64{}}
	for l := LogID(64); l > 0; l-- {
		many.Positions[l] = uint64(l) * 3
	}
	enc := encodeResult(many)
	for i := 0; i < 64; i++ {
		if got := LogID(binary.LittleEndian.Uint32(enc[3+12*i:])); got != LogID(i+1) {
			t.Fatalf("position %d is log %d, want ascending ids", i, got)
		}
	}
}

func TestOpRoundTripQuick(t *testing.T) {
	f := func(kind uint8, logID uint32, pos uint64, value []byte) bool {
		op := Op{Kind: OpKind(kind), Log: LogID(logID), Pos: pos, Value: value}
		got, err := decodeOp(op.Encode())
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Log == op.Log && got.Pos == op.Pos &&
			bytes.Equal(got.Value, op.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func execOp(t *testing.T, sm *SM, op Op) Result {
	t.Helper()
	res, err := decodeResult(execute(sm, 1, op.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSMAppendReadTrim(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	r := execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte("a")})
	if r.Status != StatusOK || r.Positions[1] != 0 {
		t.Fatalf("first append = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte("b")})
	if r.Positions[1] != 1 {
		t.Fatalf("second append = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0})
	if r.Status != StatusOK || string(r.Value) != "a" {
		t.Fatalf("read = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 1})
	if r.Status != StatusOK {
		t.Fatalf("trim = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0}); r.Status != StatusNotFound {
		t.Errorf("read of trimmed pos = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 1}); r.Status != StatusOK {
		t.Errorf("read above trim = %+v", r)
	}
	if sm.LenOf(1) != 1 {
		t.Errorf("LenOf = %d", sm.LenOf(1))
	}
	if sm.LenOf(99) != 0 {
		t.Errorf("LenOf unknown log = %d", sm.LenOf(99))
	}
}

// TestSMReadEmptyValue: an appended empty value is an entry like any
// other, so reading it answers StatusOK with an empty value — before and
// after a snapshot round trip.
func TestSMReadEmptyValue(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte("a")})
	if r := execOp(t, sm, Op{Kind: OpAppend, Log: 1}); r.Status != StatusOK || r.Positions[1] != 1 {
		t.Fatalf("append of an empty value = %+v", r)
	}
	restored := NewSM(SMConfig{Hosted: []LogID{1}})
	if err := restored.Restore(snapshot(sm)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*SM{sm, restored} {
		if r := execOp(t, m, Op{Kind: OpRead, Log: 1, Pos: 1}); r.Status != StatusOK || len(r.Value) != 0 {
			t.Errorf("read of an empty value = %+v, want StatusOK and no bytes", r)
		}
	}
}

func TestSMUnhostedLog(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	if r := execOp(t, sm, Op{Kind: OpAppend, Log: 9, Value: []byte("x")}); r.Status != StatusNotFound {
		t.Errorf("append to unhosted = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpMultiAppend, Logs: []LogID{9}, Value: nil}); r.Status != StatusNotFound {
		t.Errorf("multi-append to unhosted = %+v", r)
	}
}

func TestSMMultiAppendSubset(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	r := execOp(t, sm, Op{Kind: OpMultiAppend, Logs: []LogID{1, 2, 3}, Value: []byte("m")})
	if r.Status != StatusOK || len(r.Positions) != 2 {
		t.Fatalf("multi-append = %+v", r)
	}
}

func TestSMSnapshotRestore(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	for i := 0; i < 10; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	execOp(t, sm, Op{Kind: OpAppend, Log: 2, Value: []byte("two")})
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 4})
	snap := snapshot(sm)

	sm2 := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	if err := sm2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if sm2.LenOf(1) != 6 || sm2.LenOf(2) != 1 {
		t.Fatalf("restored lens = %d, %d", sm2.LenOf(1), sm2.LenOf(2))
	}
	r := execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: 7})
	if r.Status != StatusOK || r.Value[0] != 7 {
		t.Fatalf("restored read = %+v", r)
	}
	// Appends continue at the right position.
	r = execOp(t, sm2, Op{Kind: OpAppend, Log: 1, Value: []byte("next")})
	if r.Positions[1] != 10 {
		t.Fatalf("append after restore = %+v", r)
	}
	if err := sm2.Restore([]byte{1}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestDLogRestoreRejectsCorrupt: a snapshot that claims more logs than its
// bytes can hold, a log whose next position lies below its base, or a log
// named twice is corrupt — and the claimed count must not size anything.
func TestDLogRestoreRejectsCorrupt(t *testing.T) {
	header := func(l LogID, base, next uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(l))
		b = binary.LittleEndian.AppendUint64(b, base)
		return binary.LittleEndian.AppendUint64(b, next)
	}
	logs := func(n uint32, parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{binary.LittleEndian.AppendUint32(nil, n)}, parts...), nil)
	}
	entry := []byte{1, 0, 0, 0, 'x'}
	for name, snap := range map[string][]byte{
		"count past the data": {0xff, 0xff, 0xff, 0xff},
		"next below base":     logs(1, header(1, 5, 4)),
		"entries past data":   logs(1, header(1, 0, 1<<40)),
		"duplicate log id":    logs(2, header(1, 0, 1), entry, header(1, 0, 1), entry),
	} {
		if err := NewSM(SMConfig{Hosted: []LogID{1}}).Restore(snap); !errors.Is(err, recovery.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCorrupt", name, err)
		}
	}
	// Four billion claimed logs in four bytes fail before anything is made.
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	if allocs := testing.AllocsPerRun(10, func() { _ = sm.Restore([]byte{0xff, 0xff, 0xff, 0xff}) }); allocs != 0 {
		t.Errorf("Restore of a bare count made %.0f allocations", allocs)
	}
}

// FuzzDLogRestore: arbitrary bytes either fail to restore, or restore into
// a state machine whose snapshot restores into one that serializes to the
// very same bytes.
func FuzzDLogRestore(f *testing.F) {
	sm := NewSM(SMConfig{Hosted: []LogID{2, 1}})
	for i := 0; i < 6; i++ {
		execute(sm, 1, Op{Kind: OpAppend, Log: LogID(1 + i%2), Value: bytes.Repeat([]byte{byte(i)}, i)}.Encode())
	}
	execute(sm, 1, Op{Kind: OpTrim, Log: 1, Pos: 2}.Encode())
	f.Add(snapshot(sm))
	f.Add(snapshot(NewSM(SMConfig{})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sm := NewSM(SMConfig{})
		if sm.Restore(data) != nil {
			return
		}
		snap := snapshot(sm)
		again := NewSM(SMConfig{})
		if err := again.Restore(snap); err != nil {
			t.Fatalf("Restore(Snapshot()) = %v", err)
		}
		if got := snapshot(again); !bytes.Equal(got, snap) {
			t.Fatalf("Snapshot after a round trip\n %x, want\n %x", got, snap)
		}
	})
}

// TestSMRefusesRepeatedLog: a multi-append that names a log twice, encoded
// by hand as any client could, is refused on every server before anything
// is appended, whether the server hosts the repeated log or not.
func TestSMRefusesRepeatedLog(t *testing.T) {
	op := []byte{byte(OpMultiAppend), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0}
	for _, l := range []uint32{1, 2, 1} {
		op = binary.LittleEndian.AppendUint32(op, l)
	}
	op = append(binary.LittleEndian.AppendUint32(op, 1), 'v')
	for _, hosted := range [][]LogID{{1, 2}, {2}, {3}} {
		sm := NewSM(SMConfig{Hosted: hosted})
		res, err := decodeResult(execute(sm, 1, op))
		if err != nil || res.Status != StatusBadRequest {
			t.Errorf("hosting %v: multi-append of logs 1, 2, 1 = %+v, %v; want StatusBadRequest", hosted, res, err)
		}
		for _, l := range hosted {
			if n := sm.LenOf(l); n != 0 {
				t.Errorf("hosting %v: log %d grew to %d entries", hosted, l, n)
			}
		}
	}
}

// FuzzDLogOp: any bytes applied as an operation neither panic nor answer
// two state machines differently, and a multi-append that names a log twice
// is refused.
func FuzzDLogOp(f *testing.F) {
	for _, op := range []Op{
		{Kind: OpAppend, Log: 1, Value: []byte("entry")},
		{Kind: OpMultiAppend, Logs: []LogID{2, 1}, Value: []byte("x")},
		{Kind: OpMultiAppend, Logs: []LogID{1, 1}, Value: []byte("x")},
		{Kind: OpRead, Log: 2, Pos: 0},
		{Kind: OpTrim, Log: 1, Pos: 1},
	} {
		f.Add(op.Encode())
	}
	f.Add([]byte{0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := NewSM(SMConfig{Hosted: []LogID{1, 2}}), NewSM(SMConfig{Hosted: []LogID{1, 2}})
		execute(a, 1, Op{Kind: OpAppend, Log: 1, Value: []byte("seed")}.Encode())
		execute(b, 1, Op{Kind: OpAppend, Log: 1, Value: []byte("seed")}.Encode())
		ra, rb := execute(a, 1, data), execute(b, 1, data)
		if !bytes.Equal(ra, rb) || !bytes.Equal(snapshot(a), snapshot(b)) {
			t.Fatalf("one operation, two answers: %x and %x", ra, rb)
		}
		op, ok := parseOp(data)
		if !ok || op.Kind != OpMultiAppend {
			return
		}
		for i := 0; i < len(op.logs)/4; i++ {
			for j := 0; j < i; j++ {
				if op.logAt(i) != op.logAt(j) {
					continue
				}
				if res, err := decodeResult(ra); err != nil || res.Status != StatusBadRequest {
					t.Fatalf("multi-append naming log %d twice = %+v, %v; want StatusBadRequest", op.logAt(i), res, err)
				}
				return
			}
		}
	})
}

func TestSMGarbageOp(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	res, err := decodeResult(execute(sm, 1, []byte{0xff, 0x01}))
	if err != nil || res.Status != StatusBadRequest {
		t.Errorf("garbage op = %+v, %v", res, err)
	}
}

// TestSMExecuteBatchMatchesExecute checks the dLog batch apply entry
// point is equivalent to applying each op as a batch of one.
func TestSMExecuteBatchMatchesExecute(t *testing.T) {
	ops := [][]byte{
		Op{Kind: OpAppend, Log: 1, Value: []byte("e0")}.Encode(),
		Op{Kind: OpAppend, Log: 1, Value: []byte("e1")}.Encode(),
		Op{Kind: OpRead, Log: 1, Pos: 0}.Encode(),
		Op{Kind: OpTrim, Log: 1, Pos: 1}.Encode(),
		Op{Kind: OpRead, Log: 1, Pos: 0}.Encode(),               // trimmed
		Op{Kind: OpAppend, Log: 9, Value: []byte("x")}.Encode(), // unhosted
		{0xFF}, // undecodable
	}
	groups := make([]transport.RingID, len(ops))
	for i := range groups {
		groups[i] = 1
	}
	single := NewSM(SMConfig{Hosted: []LogID{1}})
	batched := NewSM(SMConfig{Hosted: []LogID{1}})
	var want [][]byte
	for i, op := range ops {
		want = append(want, execute(single, groups[i], op))
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

// TestSMCaptureImmutableUnderAppends: a capture taken at one point must
// serialize to exactly that point's state even as the live log keeps
// appending and trimming (the cheap-capture contract of the non-blocking
// checkpoint pipeline).
func TestSMCaptureImmutableUnderAppends(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	snap := sm.CaptureSnapshot()

	// Keep moving after the capture.
	for i := 5; i < 20; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 10})

	sm2 := NewSM(SMConfig{Hosted: []LogID{1}})
	if err := sm2.Restore(snap.Serialize()); err != nil {
		t.Fatal(err)
	}
	if sm2.LenOf(1) != 5 {
		t.Fatalf("restored capture len = %d, want 5", sm2.LenOf(1))
	}
	for i := 0; i < 5; i++ {
		r := execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: uint64(i)})
		if r.Status != StatusOK || r.Value[0] != byte(i) {
			t.Fatalf("capture read %d = %+v", i, r)
		}
	}
}

// TestSMSnapshotDeterministic: two servers that applied the same commands
// must produce byte-identical snapshots (logs are serialized in ascending
// log-id order, not map order), so snapshot checksums are comparable.
func TestSMSnapshotDeterministic(t *testing.T) {
	build := func() *SM {
		sm := NewSM(SMConfig{Hosted: []LogID{5, 1, 9, 3, 7}})
		for _, l := range []LogID{9, 1, 7, 3, 5} {
			for i := 0; i < 3; i++ {
				execOp(t, sm, Op{Kind: OpAppend, Log: l, Value: []byte{byte(l), byte(i)}})
			}
		}
		return sm
	}
	a, b := snapshot(build()), snapshot(build())
	if !bytes.Equal(a, b) {
		t.Error("identical states serialized to different bytes")
	}
	// And repeated snapshots of one SM agree too.
	sm := build()
	if !bytes.Equal(snapshot(sm), snapshot(sm)) {
		t.Error("repeated snapshots differ")
	}
}

// TestExecuteBatchAllocs pins the append path: per 1 KB append a replica
// cuts the copy it stores from a 64 KB block and its 23-byte reply from a
// 4 KB block, and reuses the batch's result slice — measured 0.02, that is
// 1/64 + 23/4096 plus the log's entry index growing. It was 2.0 with an
// allocation for each of the two and a result slice per batch, and 5.0
// when the value was copied on decode and positions went through a map.
func TestExecuteBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts inflated under the race detector")
	}
	const batch = 512
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	value := make([]byte, 1024)
	ops := make([][]byte, batch)
	for i := range ops {
		ops[i] = Op{Kind: OpAppend, Log: LogID(1 + i%2), Value: value}.Encode()
	}
	sm.ExecuteBatch(nil, ops)
	perOp := testing.AllocsPerRun(20, func() { sm.ExecuteBatch(nil, ops) }) / batch
	t.Logf("%.2f allocs per append", perOp)
	if perOp > 0.1 {
		t.Errorf("ExecuteBatch: %.2f allocs per append, budget 0.1", perOp)
	}
}
