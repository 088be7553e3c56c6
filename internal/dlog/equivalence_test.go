package dlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"amcast/internal/transport"
)

// TestBatchApplyEquivalence drives one randomized op stream — appends,
// reads of live positions and of positions appended earlier in the same
// batch, multi-appends, and trims — through ExecuteBatch on one state
// machine and the one-at-a-time Execute reference on a fresh one. Replies and snapshots must match byte for byte: replicas
// cut their batches at different points, and their bytes must not show it.
func TestBatchApplyEquivalence(t *testing.T) {
	const logs = 4
	rng := rand.New(rand.NewSource(0xd109))
	hosted := make([]LogID, logs)
	for i := range hosted {
		hosted[i] = LogID(i + 1)
	}
	batchSM := NewSM(SMConfig{Hosted: hosted})
	oneSM := NewSM(SMConfig{Hosted: hosted})

	next := make(map[LogID]uint64) // shadow of assigned positions
	trims := 0
	randOp := func() Op {
		l := LogID(1 + rng.Intn(logs))
		switch roll := rng.Intn(100); {
		case roll < 45:
			op := Op{Kind: OpAppend, Log: l, Value: []byte(fmt.Sprintf("e%d", rng.Int63()))}
			next[l]++
			return op
		case roll < 60:
			ls := []LogID{}
			for _, c := range hosted {
				if rng.Intn(2) == 0 {
					ls = append(ls, c)
					next[c]++
				}
			}
			if len(ls) == 0 {
				ls = append(ls, l)
				next[l]++
			}
			return Op{Kind: OpMultiAppend, Logs: ls, Value: []byte("multi")}
		case roll < 95:
			// Read a random position around the written range, so some
			// hit appends of the same batch, some older entries, and
			// some miss.
			hi := next[l] + 2
			return Op{Kind: OpRead, Log: l, Pos: rng.Uint64() % hi}
		default:
			trims++
			hi := next[l] + 1
			return Op{Kind: OpTrim, Log: l, Pos: rng.Uint64() % hi}
		}
	}

	for b := 0; b < 50; b++ {
		n := 1 + rng.Intn(48)
		groups := make([]transport.RingID, n)
		ops := make([][]byte, n)
		for i := 0; i < n; i++ {
			groups[i] = transport.RingID(1 + rng.Intn(logs))
			ops[i] = randOp().Encode()
		}
		batchOut := batchSM.ExecuteBatch(groups, ops)
		for i := range ops {
			if one := oneSM.Execute(groups[i], ops[i]); !bytes.Equal(batchOut[i], one) {
				op, _ := DecodeOp(ops[i])
				t.Fatalf("batch %d op %d (%+v): batched %x != one at a time %x", b, i, op, batchOut[i], one)
			}
		}
		if !bytes.Equal(batchSM.Snapshot(), oneSM.Snapshot()) {
			t.Fatalf("log state diverged after batch %d", b)
		}
	}
	if trims == 0 {
		t.Fatal("the stream drew no trim")
	}
}
