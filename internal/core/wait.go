package core

import (
	"time"

	"amcast/internal/transport"
)

// awaitTurn blocks until the ring whose turn it is (cur.Next) has a
// delivery; false means its stream ended or the node shut down. It waits on
// the node's wake channel, not on that ring alone, and on every wake looks
// at what the other rings hold. If one holds a value, this ring is a
// straggler — each instance it owes costs every learner the rest of a Δ
// window — so the merge names the instance that makes everything held
// deliverable (Cursor.skipTarget) and asks the ring's coordinator to skip
// there at once, once per new target. Nothing held, nothing sent: an idle
// deployment stays silent and the Δ tick levels it. The clock readings
// time the wait for telemetry; the request depends on none.
func (n *Node) awaitTurn(cur *Cursor, groups []transport.RingID, srcs []*ringSource) bool {
	s, g := srcs[cur.Next], groups[cur.Next]
	start := nowNanos()
	for !s.ready() {
		if s.closed {
			return false
		}
		held := n.heldScratch[:0]
		for _, o := range srcs {
			held = append(held, o.held())
		}
		n.heldScratch = held
		if t, ok := cur.skipTarget(uint64(n.cfg.M), s.frontier, held); ok {
			s.rn.RequestSkip(t)
		}
		select {
		case <-n.wake:
		case <-n.done:
			return false
		}
	}
	n.observeMergeStall(g, time.Duration(nowNanos()-start))
	return true
}
