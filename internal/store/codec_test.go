package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// goldenOps is one operation of every kind and outcome, a scan, a nested
// batch and operations carrying sub-operations they do not execute; golden
// is what the encoder and a state machine owning everything produced for
// them, in this order, before operations were applied from the delivered
// bytes: {encoded operation, encoded reply}. Mixed-version clients and
// replicas, and stored fuzz corpora, depend on not one byte moving.
func goldenOps() []Op {
	return []Op{
		{Kind: OpInsert, Key: "k1", Value: []byte("one")},
		{Kind: OpInsert, Key: "k2", Value: []byte{}},
		{Kind: OpInsert, Key: "k1", Value: []byte("again")},
		{Kind: OpUpdate, Key: "k2", Value: []byte("two")},
		{Kind: OpUpdate, Key: "missing", Value: []byte("x")},
		{Kind: OpRead, Key: "k1"},
		{Kind: OpRead, Key: "missing"},
		{Kind: OpInsert, Key: "k3", Value: []byte("three")},
		{Kind: OpScan, Key: "k1", KeyHi: "k3"},
		{Kind: OpScan, Key: "x", KeyHi: "z"},
		{Kind: OpDelete, Key: "k3"},
		{Kind: OpDelete, Key: "k3"},
		{Kind: OpBatch, Batch: []Op{
			{Kind: OpInsert, Key: "b1", Value: []byte("x")},
			{Kind: OpRead, Key: "b1"},
			{Kind: OpBatch, Batch: []Op{
				{Kind: OpUpdate, Key: "b1", Value: []byte("y")},
				{Kind: OpScan, Key: "b", KeyHi: "c"},
				{Kind: OpDelete, Key: "nope"},
			}},
			{Kind: OpRead, Key: "k2"},
		}},
		{Kind: OpBatch},
		{Kind: OpRead, Key: "k1", Batch: []Op{{Kind: OpDelete, Key: "k1"}}},
		{Kind: OpSplit, Key: "k2", Value: SplitSpec{ID: 7, NewGroup: 9, InPlace: true}.Encode()},
		{Kind: OpSplit, Key: "k2", Value: SplitSpec{ID: 8, NewGroup: 9}.Encode()},
		{Kind: OpRead, Key: "k2"},
		{Kind: OpRead, Key: "k1"},
		{Kind: OpScan, Key: "a", KeyHi: "z"},
		{Kind: OpSplit, Key: "k2", Value: []byte("short")},
		{Kind: OpKind(99), Key: "k1"},
	}
}

var golden = [][2]string{
	{"0402006b310000030000006f6e650000", "010000000000000000"},
	{"0402006b320000000000000000", "010000000000000000"},
	{"0402006b31000005000000616761696e0000", "030000000000000000"},
	{"0302006b3200000300000074776f0000", "010000000000000000"},
	{"0307006d697373696e67000001000000780000", "020000000000000000"},
	{"0102006b310000000000000000", "010100000002006b31030000006f6e6500000000"},
	{"0107006d697373696e670000000000000000", "020000000000000000"},
	{"0402006b3300000500000074687265650000", "010000000000000000"},
	{"0202006b3102006b33000000000000", "010300000002006b31030000006f6e6502006b320300000074776f02006b3305000000746872656500000000"},
	{"0201007801007a000000000000", "010000000000000000"},
	{"0502006b330000000000000000", "010000000000000000"},
	{"0502006b330000000000000000", "020000000000000000"},
	{"060000000000000000040004020062310000010000007800000102006231000000000000000006000000000000000003000302006231000001000000790000020100620100630000000000000504006e6f706500000000000000000102006b320000000000000000", "010000000004000000010000000000000000010100000002006231010000007800000000010000000003000000010000000000000000010100000002006231010000007900000000020000000000000000010100000002006b320300000074776f00000000"},
	{"0600000000000000000000", "010000000000000000"},
	{"0102006b3100000000000001000502006b310000000000000000", "010100000002006b31030000006f6e6500000000"},
	{"0702006b3200000d000000070000000000000009000000010000", "010000000000000000"},
	{"0702006b3200000d000000080000000000000009000000000000", "010000000000000000"},
	{"0102006b320000000000000000", "050000000000000000"},
	{"0102006b310000000000000000", "010100000002006b31030000006f6e6500000000"},
	{"0201006101007a000000000000", "010200000002006231010000007902006b31030000006f6e6500000000"},
	{"0702006b3200000500000073686f72740000", "040000000000000000"},
	{"6302006b310000000000000000", "040000000000000000"},
}

const goldenSnapshot = "020000000000000002006231010000007902006b31030000006f6e6501000002006b3201000000080000000000000002006b320000010000000000000002006b320300000074776f"

func TestWireGolden(t *testing.T) {
	ops := goldenOps()
	if len(ops) != len(golden) {
		t.Fatalf("%d operations, %d golden rows", len(ops), len(golden))
	}
	seq, batched := NewSM(), NewSM()
	seq.SetOwnedRange("", "")
	batched.SetOwnedRange("", "")
	for i, op := range ops {
		enc := op.Encode()
		if got := hex.EncodeToString(enc); got != golden[i][0] {
			t.Errorf("op %d (%s) encodes to\n %s, want\n %s", i, op.Kind, got, golden[i][0])
		}
		if len(enc) != cap(enc) {
			t.Errorf("op %d: Encode len %d cap %d: the buffer is sized once, exactly", i, len(enc), cap(enc))
		}
		if got := hex.EncodeToString(seq.Execute(1, enc)); got != golden[i][1] {
			t.Errorf("op %d (%s) answers\n %s, want\n %s", i, op.Kind, got, golden[i][1])
		}
		if got := hex.EncodeToString(batched.ExecuteBatch(nil, [][]byte{enc})[0]); got != golden[i][1] {
			t.Errorf("op %d (%s) answers, batched,\n %s, want\n %s", i, op.Kind, got, golden[i][1])
		}
	}
	if got := hex.EncodeToString(seq.Snapshot()); got != goldenSnapshot {
		t.Errorf("snapshot\n %s, want\n %s", got, goldenSnapshot)
	}
	if !bytes.Equal(seq.Snapshot(), batched.Snapshot()) {
		t.Error("the batch path ended in another state")
	}
}

// TestClientRejectsWhatDoesNotEncode: a key or batch longer than its
// two-byte length prefix can say is refused with a typed error before
// anything is encoded or sent — the clients below have nothing to send
// with. Encoded regardless, a 65 541-byte key goes out with prefix 5.
func TestClientRejectsWhatDoesNotEncode(t *testing.T) {
	long, ok := strings.Repeat("k", maxKeyLen+1), strings.Repeat("k", maxKeyLen)
	c := &Client{}
	v := []byte("v")
	for _, tc := range []struct {
		name string
		call func() error
		want error
	}{
		{"Read", func() error { _, _, err := c.Read(long); return err }, ErrKeyTooLong},
		{"Insert", func() error { return c.Insert(long, v) }, ErrKeyTooLong},
		{"Update", func() error { return c.Update(long, v) }, ErrKeyTooLong},
		{"Delete", func() error { return c.Delete(long) }, ErrKeyTooLong},
		{"Scan", func() error { _, err := c.Scan(long, "z"); return err }, ErrKeyTooLong},
		{"Scan hi", func() error { _, err := c.Scan("a", long); return err }, ErrKeyTooLong},
		{"Batch key", func() error {
			_, err := c.Batch(1, []Op{{Kind: OpRead, Key: "a"}, {Kind: OpInsert, Key: long}})
			return err
		}, ErrKeyTooLong},
		{"Batch", func() error { _, err := c.Batch(1, make([]Op, maxBatchLen+1)); return err }, ErrBatchTooLarge},
		{"Batch nested", func() error {
			_, err := c.Batch(1, []Op{{Kind: OpBatch, Batch: make([]Op, maxBatchLen+1)}})
			return err
		}, ErrBatchTooLarge},
		{"ReadLocal", func() error { _, _, err := c.ReadLocal(long); return err }, ErrKeyTooLong},
		{"ReadLocalAt", func() error { _, _, err := c.ReadLocalAt(1, long); return err }, ErrKeyTooLong},
		{"ReadStale", func() error { _, _, err := c.ReadStale(long, 0); return err }, ErrKeyTooLong},
		{"ScanLocal", func() error { _, err := c.ScanLocal("a", long); return err }, ErrKeyTooLong},
	} {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := (Op{Kind: OpRead, Key: ok, KeyHi: ok, Batch: make([]Op, maxBatchLen)}).check(); err != nil {
		t.Errorf("the longest key and batch that do encode: %v", err)
	}
}

// TestWrappedKeyPrefixIsRefused: the frame an unchecked encoder produced
// for a 65 541-byte key — length prefix wrapped to 5, every byte behind it
// — must come back StatusBadRequest from every entry point, never as the
// value of the 5-byte key it happens to start with.
func TestWrappedKeyPrefixIsRefused(t *testing.T) {
	sm := NewSM()
	sm.Execute(1, Op{Kind: OpInsert, Key: "kkkkk", Value: []byte("someone else's")}.Encode())
	key := strings.Repeat("k", maxKeyLen+6)
	frame := Op{Kind: OpRead, Key: key}.appendTo(nil) // what Encode wrote before the client refused such keys
	if frame[1] != 5 || frame[2] != 0 || len(frame) < len(key) {
		t.Fatalf("frame starts % x, %d bytes: not the wrapped prefix this test is about", frame[:3], len(frame))
	}
	bad := hex.EncodeToString(statusEnc[StatusBadRequest])
	if got := hex.EncodeToString(sm.Execute(1, frame)); got != bad {
		t.Errorf("Execute = %s, want bad-request", got)
	}
	if got := hex.EncodeToString(sm.ExecuteBatch(nil, [][]byte{frame})[0]); got != bad {
		t.Errorf("ExecuteBatch = %s, want bad-request", got)
	}
	if _, ok := sm.ReadLocal(1, frame); ok {
		t.Error("ReadLocal served it")
	}
	if _, err := DecodeOp(frame); err == nil {
		t.Error("DecodeOp accepted it")
	}
}

// poison overwrites every delivered buffer the way the pool's -race guard
// poisons a recycled one.
func poison(ops [][]byte) {
	for _, op := range ops {
		for i := range op {
			op[i] = 0xDB
		}
	}
}

// TestAppliedOperationIsNotRetained: operations are applied from the
// delivered bytes, which are recycled when the batch returns. Nothing of
// them — not an inserted key, not a split bound — may live on in the state
// machine: after every batch its buffers are overwritten, and the state
// must still equal that of a machine whose buffers were left alone, through
// ExecuteBatch and through one-at-a-time Execute.
func TestAppliedOperationIsNotRetained(t *testing.T) {
	batches := func() [][][]byte {
		var out [][][]byte
		for b := 0; b < 6; b++ {
			var ops [][]byte
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("key-%03d-%s", (b*17+i*7)%90, strings.Repeat("x", i%40)) // some past any small-string shortcut
				switch (b + i) % 5 {
				case 0, 1:
					ops = append(ops, Op{Kind: OpInsert, Key: k, Value: []byte("ins-" + k)}.Encode())
				case 2:
					ops = append(ops, Op{Kind: OpUpdate, Key: k, Value: []byte(fmt.Sprintf("upd-%d-%s", b, k))}.Encode())
				case 3:
					ops = append(ops, Op{Kind: OpDelete, Key: k}.Encode())
				default:
					ops = append(ops, Op{Kind: OpBatch, Batch: []Op{
						{Kind: OpInsert, Key: k + "/b", Value: []byte("batched")},
						{Kind: OpRead, Key: k},
					}}.Encode())
				}
			}
			if b == 3 {
				ops = append(ops, Op{Kind: OpSplit, Key: "key-070", Value: SplitSpec{ID: 1, NewGroup: 2}.Encode()}.Encode())
			}
			out = append(out, ops)
		}
		return out
	}
	for _, mode := range []string{"sequential", "one-at-a-time"} {
		t.Run(mode, func(t *testing.T) {
			kept, scribbled := NewSM(), NewSM()
			kept.SetOwnedRange("", "")
			scribbled.SetOwnedRange("", "")
			run := func(sm *SM) func(ops [][]byte) [][]byte {
				if mode == "sequential" {
					return func(ops [][]byte) [][]byte { return sm.ExecuteBatch(nil, ops) }
				}
				return func(ops [][]byte) [][]byte {
					out := make([][]byte, len(ops))
					for i, op := range ops {
						out[i] = sm.Execute(1, op)
					}
					return out
				}
			}
			runKept, runScribbled := run(kept), run(scribbled)
			var replies [][]byte
			for _, ops := range batches() {
				replies = append(replies, runScribbled(ops)...)
				poison(ops)
			}
			i := 0
			for _, ops := range batches() {
				for _, want := range runKept(ops) {
					if !bytes.Equal(replies[i], want) {
						t.Fatalf("reply %d changed when its operation's buffer was overwritten:\n %x, want\n %x", i, replies[i], want)
					}
					i++
				}
			}
			if !bytes.Equal(scribbled.Snapshot(), kept.Snapshot()) {
				t.Error("state differs once the delivered buffers are overwritten: part of an operation was kept by reference")
			}
			if lo, hi, _ := scribbled.OwnedRange(); lo != "" || hi != "key-070" {
				t.Errorf("owned range after the split = [%q, %q), want [\"\", \"key-070\")", lo, hi)
			}
			if enc, ok := scribbled.OutgoingRange(1); !ok || !bytes.Contains(enc, []byte("key-070")) || bytes.Contains(enc, []byte{0xDB, 0xDB, 0xDB}) {
				t.Error("the split's stashed range kept a view of the marker's buffer")
			}
		})
	}
}

// TestReplyIsNotTheState: a read's reply is a buffer of its own. A reader
// that scribbles over it — on the in-process Network a client holds the
// replica's very slice until it has made its copy — changes neither the
// tree nor what the next read answers.
func TestReplyIsNotTheState(t *testing.T) {
	sm := NewSM()
	sm.Execute(1, Op{Kind: OpInsert, Key: "k", Value: []byte("value")}.Encode())
	before := sm.Snapshot()
	read := Op{Kind: OpRead, Key: "k"}.Encode()
	first := bytes.Clone(sm.Execute(1, read))
	local, _ := sm.ReadLocal(1, read)
	for _, reply := range [][]byte{sm.Execute(1, read), sm.ExecuteBatch(nil, [][]byte{read})[0], local} {
		if !bytes.Equal(reply, first) {
			t.Fatalf("reply %x, want %x", reply, first)
		}
		clear(reply)
	}
	if got := sm.Execute(1, read); !bytes.Equal(got, first) {
		t.Errorf("read after scribbling over earlier replies = %x, want %x", got, first)
	}
	if !bytes.Equal(sm.Snapshot(), before) {
		t.Error("scribbling over replies changed the state")
	}
	// A bare status is one shared encoding, which is why the client copies
	// what it is handed before anyone may write to it; its cap leaves no
	// room to append into.
	if r := sm.Execute(1, Op{Kind: OpDelete, Key: "nope"}.Encode()); cap(r) != len(r) {
		t.Errorf("shared status encoding has cap %d > len %d", cap(r), len(r))
	}
}

// TestParseReply: the client reads a reply in place. What it returns is a
// view of the response, capped so that an append cannot reach the bytes
// behind it.
func TestParseReply(t *testing.T) {
	enc := Result{Status: StatusOK, Entries: []Entry{{Key: "k", Value: []byte("value")}}}.Encode()
	r, err := parseReply(enc)
	if err != nil || r.Status != StatusOK || !r.Found || string(r.Value) != "value" {
		t.Fatalf("parseReply = %+v, %v", r, err)
	}
	if cap(r.Value) != len(r.Value) {
		t.Errorf("value view has cap %d > len %d", cap(r.Value), len(r.Value))
	}
	if &r.Value[0] != &enc[1+4+2+1+4] {
		t.Error("the value is a copy, not a view of the response")
	}
	if r, err := parseReply(statusEnc[StatusNotFound]); err != nil || r.Status != StatusNotFound || r.Found || r.Value != nil {
		t.Errorf("parseReply(not-found) = %+v, %v", r, err)
	}
	if r, err := parseReply(Result{Status: StatusOK, Entries: []Entry{{Key: "empty"}}}.Encode()); err != nil || !r.Found || len(r.Value) != 0 {
		t.Errorf("parseReply(empty value) = %+v, %v", r, err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := parseReply(enc[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
	// No replica answers a single-key operation with these: refused, not
	// half read.
	for name, res := range map[string]Result{
		"two entries": {Status: StatusOK, Entries: []Entry{{Key: "k"}, {Key: "l"}}},
		"sub-results": {Status: StatusOK, Results: []Result{{Status: StatusOK}}},
	} {
		if _, err := parseReply(res.Encode()); err == nil {
			t.Errorf("parseReply accepted a result with %s", name)
		}
	}
	if _, err := parseReply(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("parseReply accepted bytes behind the result")
	}
}

// FuzzStoreCodec: on arbitrary bytes the parser that reads in place and
// the exported decoder built on it agree — both fail, or both read the
// same operation and sub-operation extent — as do the client's in-place
// reader and DecodeResult on everything shaped like a single-key reply;
// nothing panics, a state machine answers every input with a well-formed
// result, the same through Execute and ExecuteBatch, and what decodes encodes back to the bytes it was read from.
func FuzzStoreCodec(f *testing.F) {
	for _, op := range goldenOps() {
		f.Add(op.Encode())
	}
	for _, row := range golden {
		reply, _ := hex.DecodeString(row[1])
		f.Add(reply)
	}
	f.Add([]byte{})
	f.Add(Op{Kind: OpRead, Key: strings.Repeat("k", maxKeyLen+6)}.appendTo(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, rest, err := decodeOp(data)
		v, subs, ok := parseRequest(data)
		if ok != (err == nil) {
			t.Fatalf("parseRequest ok=%v, DecodeOp err=%v", ok, err)
		}
		if ok {
			if v.Kind != op.Kind || string(v.Key) != op.Key || string(v.KeyHi) != op.KeyHi || !bytes.Equal(v.Value, op.Value) || v.n != len(op.Batch) {
				t.Fatalf("view %+v, decoded %+v", v, op)
			}
			if after, _ := skipOps(subs, v.n); len(after) != len(rest) {
				t.Fatalf("skipOps leaves %d bytes, DecodeOp %d", len(after), len(rest))
			}
			// Lengths that fit their prefixes round-trip (a key or batch
			// cannot be longer: it was read out of such a prefix).
			if enc := op.Encode(); !bytes.Equal(enc, data[:len(data)-len(rest)]) {
				t.Fatalf("Encode(DecodeOp(x)) = %x, x = %x", enc, data[:len(data)-len(rest)])
			}
			if err := op.check(); err != nil {
				t.Fatalf("decoded an operation the client would refuse to encode: %v", err)
			}
		}
		sm, batched := NewSM(), NewSM()
		seed := Op{Kind: OpInsert, Key: string(v.Key), Value: []byte("v")}.Encode()
		sm.Execute(1, seed)
		batched.Execute(1, seed)
		reply := sm.Execute(1, data)
		got, err := DecodeResult(reply)
		if err != nil || (!ok && got.Status != StatusBadRequest) {
			t.Fatalf("Execute answered %x (%+v, %v); the operation parsed: %v", reply, got, err, ok)
		}
		if b := batched.ExecuteBatch(nil, [][]byte{data})[0]; !bytes.Equal(b, reply) {
			t.Fatalf("ExecuteBatch answered %x, Execute %x", b, reply)
		}

		res, rrest, rerr := decodeResult(data)
		view, verr := parseReply(data)
		if single := rerr == nil && len(rrest) == 0 && len(res.Entries) <= 1 && len(res.Results) == 0; single != (verr == nil) {
			t.Fatalf("parseReply err=%v; DecodeResult = %+v, %d bytes left, err=%v", verr, res, len(rrest), rerr)
		}
		if verr == nil && (view.Status != res.Status || view.Found != (len(res.Entries) == 1) || (view.Found && !bytes.Equal(view.Value, res.Entries[0].Value))) {
			t.Fatalf("reply view %+v, decoded %+v", view, res)
		}
		if rerr == nil {
			if enc := res.Encode(); !bytes.Equal(enc, data[:len(data)-len(rrest)]) {
				t.Fatalf("Encode(DecodeResult(x)) = %x, x = %x", enc, data[:len(data)-len(rrest)])
			}
			again, err := DecodeResult(res.Encode())
			if err != nil || !reflect.DeepEqual(again, res) {
				t.Fatalf("DecodeResult(Encode(r)) = %+v, %v; r = %+v", again, err, res)
			}
		}
	})
}
