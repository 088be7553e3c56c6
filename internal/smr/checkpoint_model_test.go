package smr

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// ckptModelDepth bounds the schedules TestCheckpointModel explores.
const ckptModelDepth = 14

var ckptEventNames = [...]string{
	ckptBoundary:    "boundary",
	ckptDueBoundary: "due-boundary",
	ckptSerialized:  "serialized",
	ckptSaved:       "saved",
	ckptSaveFailed:  "save-failed",
}

// ckptModel is one state of the checkpoint pipeline's model: the decision
// state plus what the replica's goroutines hold, as the replica's feed
// keeps it. Cuts are named by the batch boundary that took them, 1, 2, …;
// 0 names none.
type ckptModel struct {
	state      ckptState
	batch      int    // batches applied: the state machine holds cut batch's state
	owed       int    // the owed cut
	queued     int    // the capture handed to the writer, not yet serialized
	saving     int    // the capture the writer serialized and is saving
	durable    uint32 // bit c is set once cut c is saved
	safe       int    // the cut safeVec holds
	captures   int
	serialized int
}

// enabled lists the events the replica's goroutines can feed in state m.
// The merge goroutine applies a batch at any time. The writer serializes
// the queued capture once it is done with the last one, and then saves it.
func (m ckptModel) enabled(writerOnly bool) []ckptEvent {
	var evs []ckptEvent
	if !writerOnly {
		evs = append(evs, ckptBoundary, ckptDueBoundary)
	}
	switch {
	case m.saving != 0:
		evs = append(evs, ckptSaved, ckptSaveFailed)
	case m.queued != 0:
		evs = append(evs, ckptSerialized)
	}
	return evs
}

// next feeds ev to the model, carries out the step's effect as feed does,
// and reports a breach of the pipeline's safety properties.
func (m ckptModel) next(ev ckptEvent) (ckptModel, error) {
	switch ev {
	case ckptBoundary, ckptDueBoundary:
		m.batch++
	case ckptSerialized:
		m.saving, m.queued = m.queued, 0
		m.serialized++
	case ckptSaved:
		m.durable |= 1 << m.saving
	}
	switch m.state.step(ev) {
	case fxCapture:
		if m.queued != 0 {
			return m, fmt.Errorf("captured cut %d while cut %d is unserialized", m.batch, m.queued)
		}
		m.queued = m.batch
		m.captures++
	case fxOwe:
		m.owed = m.batch
	case fxPayOwed:
		if m.queued != 0 {
			return m, fmt.Errorf("paid owed cut %d while cut %d is unserialized", m.owed, m.queued)
		}
		if m.owed != m.batch {
			return m, fmt.Errorf("paid owed cut %d with the state after batch %d", m.owed, m.batch)
		}
		m.queued, m.owed = m.owed, 0
		m.captures++
	case fxAdvance:
		if m.saving < m.safe {
			return m, fmt.Errorf("safeVec moved back from cut %d to cut %d", m.safe, m.saving)
		}
		m.safe = m.saving
	}
	if ev == ckptSaved || ev == ckptSaveFailed {
		m.saving = 0
	}
	return m, m.check()
}

// check asserts the properties every reachable state must have.
func (m ckptModel) check() error {
	newest := bits.Len32(m.durable) - 1 // the last durable cut, -1 if none
	switch {
	case m.captures-m.serialized > 1:
		return fmt.Errorf("%d captures unserialized", m.captures-m.serialized)
	case m.state.pending != (m.queued != 0):
		return fmt.Errorf("pending = %v with capture %d unserialized", m.state.pending, m.queued)
	case m.state.owed != (m.owed != 0):
		return fmt.Errorf("owed = %v with owed cut %d", m.state.owed, m.owed)
	case m.safe != 0 && m.durable&(1<<m.safe) == 0:
		return fmt.Errorf("safeVec at cut %d, which is not durable", m.safe)
	case m.safe > newest && m.safe != 0:
		// A trim computed from safeVec discards what recovery from the
		// newest durable checkpoint would need.
		return fmt.Errorf("a trim at cut %d passes the newest durable cut %d", m.safe, newest)
	}
	return nil
}

// drain feeds m the writer's events alone, in every order the writer can
// produce them, and reports a state where the writer has nothing left to
// do but a cut is still owed or a capture was never serialized.
func (m ckptModel) drain() error {
	stack := []ckptModel{m}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		evs := m.enabled(true)
		if len(evs) == 0 && (m.state.owed || m.captures != m.serialized) {
			return fmt.Errorf("the writer is idle, owing cut %d with %d of %d captures serialized",
				m.owed, m.serialized, m.captures)
		}
		for _, ev := range evs {
			n, err := m.next(ev)
			if err != nil {
				return fmt.Errorf("writer drain, %s: %w", ckptEventNames[ev], err)
			}
			stack = append(stack, n)
		}
	}
	return nil
}

// TestCheckpointModel walks every interleaving of up to ckptModelDepth
// pipeline events breadth-first over ckptState.step, the way a small TLA+
// model would. Over every reachable state it asserts:
//   - at most one capture is unserialized, and every capture is serialized
//     exactly once;
//   - safeVec is monotonic and is a durable cut, so a trim computed from it
//     never passes the newest durable tuple;
//   - an owed cut is paid with the state it was cut from;
//   - liveness: from every state that owes a cut, the writer's events alone
//     pay it.
func TestCheckpointModel(t *testing.T) {
	type edge struct {
		from ckptModel
		ev   ckptEvent
	}
	seen := map[ckptModel]edge{{}: {}}
	schedule := func(m ckptModel) string {
		var evs []string
		for m != (ckptModel{}) {
			e := seen[m]
			evs = append([]string{ckptEventNames[e.ev]}, evs...)
			m = e.from
		}
		return strings.Join(evs, ", ")
	}
	frontier := []ckptModel{{}}
	for depth := 0; depth < ckptModelDepth; depth++ {
		var next []ckptModel
		for _, m := range frontier {
			for _, ev := range m.enabled(false) {
				n, err := m.next(ev)
				if err != nil {
					t.Fatalf("schedule [%s, %s]: %v", schedule(m), ckptEventNames[ev], err)
				}
				if _, ok := seen[n]; ok {
					continue
				}
				seen[n] = edge{m, ev}
				if err := n.drain(); err != nil {
					t.Fatalf("schedule [%s]: %v", schedule(n), err)
				}
				next = append(next, n)
			}
		}
		frontier = next
	}
	t.Logf("%d states reachable within %d events", len(seen), ckptModelDepth)
}
