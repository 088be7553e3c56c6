package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"amcast/internal/transport"
)

// randOp draws one operation from a YCSB-A-flavoured mix extended with
// overlapping scan ranges, deletes and re-inserts of hot keys, and batches
// mixing point ops, occasionally with a scan among them.
func randOp(rng *rand.Rand, nested bool) Op {
	key := func() string { return fmt.Sprintf("user%03d", rng.Intn(200)) }
	roll := rng.Intn(100)
	switch {
	case roll < 35:
		return Op{Kind: OpRead, Key: key()}
	case roll < 65:
		return Op{Kind: OpUpdate, Key: key(), Value: []byte(fmt.Sprintf("v%d", rng.Int63()))}
	case roll < 75:
		return Op{Kind: OpInsert, Key: key(), Value: []byte(fmt.Sprintf("i%d", rng.Int63()))}
	case roll < 85:
		return Op{Kind: OpDelete, Key: key()}
	case roll < 93 && !nested:
		lo := rng.Intn(200)
		hi := lo + rng.Intn(60)
		return Op{Kind: OpScan, Key: fmt.Sprintf("user%03d", lo), KeyHi: fmt.Sprintf("user%03d", hi)}
	default:
		if nested {
			return Op{Kind: OpRead, Key: key()}
		}
		n := 2 + rng.Intn(3)
		b := Op{Kind: OpBatch}
		for i := 0; i < n; i++ {
			b.Batch = append(b.Batch, randOp(rng, true))
		}
		if rng.Intn(4) == 0 {
			b.Batch = append(b.Batch, Op{Kind: OpScan, Key: "user000", KeyHi: "user199"})
		}
		return b
	}
}

// TestBatchApplyEquivalence drives one randomized op stream, a scale-out
// split in the middle of it, through ExecuteBatch on one state machine and
// the one-at-a-time Execute reference on a fresh one. Replies, snapshots and checkpoint captures must match byte for byte
// at every batch boundary: replicas cut their batches at different points,
// and their bytes must not show it.
func TestBatchApplyEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounded bool
	}{
		{"unbounded", false},
		{"bounded", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xfeed))
			batchSM, oneSM := NewSM(), NewSM()
			if tc.bounded {
				batchSM.SetOwnedRange("user050", "user150")
				oneSM.SetOwnedRange("user050", "user150")
			}

			// Preload half the keyspace on both.
			for i := 0; i < 100; i++ {
				raw := Op{Kind: OpInsert, Key: fmt.Sprintf("user%03d", i*2), Value: []byte("seed")}.Encode()
				batchSM.Execute(1, raw)
				oneSM.Execute(1, raw)
			}

			const batches = 60
			for b := 0; b < batches; b++ {
				n := 1 + rng.Intn(64)
				groups := make([]transport.RingID, n)
				ops := make([][]byte, n)
				for i := 0; i < n; i++ {
					groups[i] = transport.RingID(1 + rng.Intn(3))
					ops[i] = randOp(rng, false).Encode()
				}
				if b == batches/2 {
					ops[n/2] = Op{Kind: OpSplit, Key: "user120", Value: SplitSpec{ID: 1, NewGroup: 2}.Encode()}.Encode()
				}

				batchOut := batchSM.ExecuteBatch(groups, ops)
				for i := range ops {
					if one := oneSM.Execute(groups[i], ops[i]); !bytes.Equal(batchOut[i], one) {
						op, _ := DecodeOp(ops[i])
						t.Fatalf("batch %d op %d (%+v): batched %x != one at a time %x", b, i, op, batchOut[i], one)
					}
				}
				if !bytes.Equal(batchSM.Snapshot(), oneSM.Snapshot()) {
					t.Fatalf("state diverged after batch %d", b)
				}
				bs, os := batchSM.CaptureSnapshot(), oneSM.CaptureSnapshot()
				if !bytes.Equal(bs.Serialize(), os.Serialize()) {
					t.Fatalf("checkpoint captures diverged after batch %d", b)
				}
			}
			if _, hi, _ := batchSM.OwnedRange(); hi != "user120" {
				t.Fatalf("owned range ends at %q, want the split key user120", hi)
			}
		})
	}
}
