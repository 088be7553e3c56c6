package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"amcast/internal/smr"
)

// The split model drives two real state machines through every schedule of
// ordered commands and local events within the budgets below. R, the
// reference, executes the ordered commands only. C, the replica under test,
// executes them too, and it also captures and serializes checkpoints,
// releases stashes and crashes: a crash restores C from its newest
// serialized checkpoint and replays the ordered commands since its capture.
//
// Four keys lie on both sides of three split keys, so splits move data and
// three fresh splits fill the stash past its cap of two. A marker's id takes
// any place in the order of the ids minted before, or repeats one of them:
// a restarted controller, or one on a lower process id, mints ids below
// earlier ones, and a controller restarted on the same process mints its
// ids again.
var (
	splitModelKeys = [...]string{"b", "d", "g", "n"}
	splitModelCuts = [...]string{"m", "f", "c"}
)

// splitBudget bounds the events of one exploration of the model. Replayed
// and in-place markers, and writes the partition no longer owns, change
// nothing or only re-key a stash, so they are free.
type splitBudget struct {
	name                                       string
	writes, mints, captures, releases, crashes int // mints: scale-out and retried markers
}

// splitModelStateCap fails a budget that stops bounding the walk before it
// runs for minutes.
const splitModelStateCap = 100_000

type splitEventKind uint8

const (
	evWrite   splitEventKind = iota // insert an absent key, update it, then delete it
	evSplit                         // a scale-out marker below the owned bound, newly minted id
	evRetry                         // a scale-out marker at the owned bound, newly minted id
	evReplay                        // a marker delivered before, delivered again
	evInPlace                       // an in-place marker: no state changes
	evCapture
	evSerialize // the oldest pending capture
	evRelease
	evCrash
)

var splitEventNames = [...]string{"write", "split", "retry", "replay", "in-place", "capture", "serialize", "release", "crash"}

type splitEvent struct {
	kind  splitEventKind
	key   string
	id    uint64
	op    OpKind // a write's
	value byte   // an insert's or an update's
}

func (e splitEvent) String() string {
	switch e.kind {
	case evWrite:
		return fmt.Sprintf("%s(%s %c)", e.op, e.key, e.value)
	case evCapture, evSerialize, evCrash:
		return splitEventNames[e.kind]
	case evRelease:
		return fmt.Sprintf("release(%d)", e.id)
	}
	return fmt.Sprintf("%s(%s %d)", splitEventNames[e.kind], e.key, e.id)
}

// encode is the ordered command e delivers.
func (e splitEvent) encode() []byte {
	if e.kind == evWrite {
		op := Op{Kind: e.op, Key: e.key}
		if e.op != OpDelete {
			op.Value = []byte{e.value}
		}
		return op.Encode()
	}
	return Op{Kind: OpSplit, Key: e.key, Value: SplitSpec{ID: e.id, NewGroup: 2, InPlace: e.kind == evInPlace}.Encode()}.Encode()
}

// splitModel is what the schedule so far implies. It is comparable, so it
// is part of a state's key.
type splitModel struct {
	hi       string                    // the owned upper bound, "" while unbounded
	vals     [len(splitModelKeys)]byte // each key's latest value, 0 when absent
	updated  [len(splitModelKeys)]bool // whether the next write deletes it
	minted   [16]string                // the key each id was minted at
	lastID   uint64                    // the newest split's latest id
	gone     bool                      // whether C released the newest split's stash
	released uint16                    // ids released at C and not minted since
	dropped  bool                      // whether C released anything
	back     uint16                    // released ids a crash's restore or replay gave back to C
	used     [evCrash + 1]int          // events so far, by kind
}

// owns reports whether the partition still owns key.
func (m *splitModel) owns(key string) bool { return m.hi == "" || key < m.hi }

// order applies an ordered command to the model and returns the status both
// replicas must answer with.
func (m *splitModel) order(e splitEvent) Status {
	switch e.kind {
	case evWrite:
		i := slices.Index(splitModelKeys[:], e.key)
		if !m.owns(e.key) {
			return StatusWrongPartition // changes nothing, so it costs no budget
		}
		m.used[e.kind]++
		m.vals[i], m.updated[i] = e.value, e.op == OpUpdate
	case evSplit:
		m.used[e.kind]++
		m.hi, m.minted[e.id], m.lastID, m.gone = e.key, e.key, e.id, false
		m.released &^= 1 << e.id
	case evRetry:
		m.used[e.kind]++
		m.minted[e.id], m.lastID = e.key, e.id
		m.released &^= 1 << e.id // re-keys the newest split's stash, unless gone
	case evReplay:
		if e.key == m.hi { // to the state machine, a retry: the stash's id differs
			m.lastID = e.id
		}
	}
	return StatusOK
}

// writes lists the write the next ordered command may make to each key.
func (m *splitModel) writes() []splitEvent {
	var evs []splitEvent
	value := byte('a' + m.used[evWrite] + len(splitModelKeys)) // fresh, so a stale copy shows
	for i, k := range splitModelKeys {
		e := splitEvent{kind: evWrite, key: k, op: OpInsert, value: value}
		switch {
		case m.updated[i]:
			e.op, e.value = OpDelete, 0
		case m.vals[i] != 0:
			e.op = OpUpdate
		}
		evs = append(evs, e)
	}
	return evs
}

// mintIDs lists the ids a marker may carry: each id minted so far, and one
// id for each place a fresh id may take in their order, halving the gaps of
// 1..15.
func (m *splitModel) mintIDs() []uint64 {
	var ids []uint64
	for id := range m.minted {
		if m.minted[id] != "" {
			ids = append(ids, uint64(id))
		}
	}
	if len(ids) == 0 {
		return []uint64{8}
	}
	fresh := []uint64{ids[0] / 2, (ids[len(ids)-1] + 16) / 2}
	for i := 1; i < len(ids); i++ {
		fresh = append(fresh, (ids[i-1]+ids[i])/2)
	}
	return append(fresh, ids...)
}

// splitCapture is a capture of C's state, with the bytes it must serialize
// to, the ids it stashes and the number of ordered commands executed before
// it.
type splitCapture struct {
	snap  smr.StateSnapshot
	want  []byte
	ids   uint16
	order int
}

// splitWorld is one state of the model: the two replicas, the ordered
// commands so far, C's pending captures and its newest checkpoint.
type splitWorld struct {
	r, c    *SM
	log     []splitEvent
	pending []splitCapture
	ckpt    *splitCapture
	m       splitModel
	budget  splitBudget
}

// newSplitWorld boots both replicas, each owning the whole key space and
// holding half of the keys.
func newSplitWorld(budget splitBudget) (*splitWorld, error) {
	w := &splitWorld{r: newSplitReplica(), c: newSplitReplica(), budget: budget}
	for i, k := range splitModelKeys {
		if i%2 == 0 {
			if err := w.step(splitEvent{kind: evWrite, key: k, op: OpInsert, value: byte('a' + i)}); err != nil {
				return nil, err
			}
		}
	}
	w.m.used[evWrite] = 0
	return w, nil
}

func newSplitReplica() *SM {
	sm := NewSM()
	sm.SetOwnedRange("", "")
	return sm
}

// liveBytes is what a checkpoint of sm would hold now, read without a
// capture, so checking a replica does not change what it shares with its
// captures.
func liveBytes(sm *SM) []byte {
	return dbSnapshot{db: btreeSnapshot{sm.db.root, sm.db.Len()}, bounded: sm.bounded, lo: sm.lo, hi: sm.hi, stash: sm.stash}.Serialize()
}

// stashIDs is the set of ids sm stashes.
func stashIDs(sm *SM) uint16 {
	var ids uint16
	for _, out := range sm.stash {
		ids |= 1 << out.id
	}
	return ids
}

// step applies one event. It checks the replies and what a serialized
// capture holds; check checks the state it leads to.
func (w *splitWorld) step(e splitEvent) error {
	switch e.kind {
	case evCapture:
		w.m.used[e.kind]++
		w.pending = append(w.pending, splitCapture{snap: w.c.CaptureSnapshot(), want: liveBytes(w.c), ids: stashIDs(w.c), order: len(w.log)})
	case evSerialize:
		p := w.pending[0]
		w.pending = w.pending[1:]
		if got := p.snap.Serialize(); !bytes.Equal(got, p.want) {
			return fmt.Errorf("capture isolation: serialized\n %x, captured\n %x", got, p.want)
		}
		w.ckpt = &p
	case evRelease:
		w.m.used[e.kind]++
		w.m.released |= 1 << e.id
		w.m.dropped = true
		w.m.gone = w.m.gone || e.id == w.m.lastID
		w.m.back &^= 1 << e.id
		w.c.ReleaseOutgoing(e.id)
	case evCrash:
		w.m.used[e.kind]++
		c, back, err := w.restart(w.ckpt)
		if err != nil {
			return err
		}
		w.c, w.pending, w.m.back = c, nil, back&w.m.released
	default:
		want := w.m.order(e)
		raw := e.encode()
		for i, sm := range [...]*SM{w.r, w.c} {
			if res, _ := DecodeResult(sm.Execute(1, raw)); res.Status != want {
				return fmt.Errorf("%c answered %v with %s, want %s", "RC"[i], e, res.Status, want)
			}
		}
		w.log = append(w.log, e)
	}
	return nil
}

// restart boots a replica from ckpt (from nothing when nil) and replays the
// ordered commands since its capture. It also returns the ids the replica
// may hold again: those ckpt stashes and those the replay mints or re-keys.
func (w *splitWorld) restart(ckpt *splitCapture) (*SM, uint16, error) {
	sm, since, ids := newSplitReplica(), w.log, uint16(0)
	if ckpt != nil {
		if err := sm.Restore(ckpt.want); err != nil {
			return nil, 0, fmt.Errorf("restore: %w", err)
		}
		since, ids = w.log[ckpt.order:], ckpt.ids
	}
	for _, e := range since {
		sm.Execute(1, e.encode())
		if e.kind != evWrite && e.kind != evInPlace {
			ids |= 1 << e.id
		}
	}
	return sm, ids, nil
}

// check asserts, for the state w is in:
//   - conservation: each key's latest value is in exactly one place — the
//     live tree while owned, else the stash whose range holds it — unless
//     that stash is gone (released, or dropped by the cap);
//   - at most two stashes, under distinct ids, the newest split's among them
//     under its latest id; at C, unless released;
//   - a released stash is back at C only through a crash whose checkpoint
//     or replay holds it;
//   - determinism: while C has released nothing, C holds what R holds and
//     serializes to the same bytes, however it crashed.
func (w *splitWorld) check() error {
	for _, rep := range []struct {
		name string
		sm   *SM
	}{{"R", w.r}, {"C", w.c}} {
		sm := rep.sm
		if len(sm.stash) > 2 {
			return fmt.Errorf("%s: %d stashes", rep.name, len(sm.stash))
		}
		if len(sm.stash) == 2 && sm.stash[0].id == sm.stash[1].id {
			return fmt.Errorf("%s: two stashes under id %d", rep.name, sm.stash[0].id)
		}
		if err := w.conserved(sm); err != nil {
			return fmt.Errorf("%s: %w", rep.name, err)
		}
		newest := slices.IndexFunc(sm.stash, func(o outgoingRange) bool { return o.lo == w.m.hi })
		switch {
		case w.m.lastID == 0:
		case newest >= 0 && sm.stash[newest].id != w.m.lastID:
			return fmt.Errorf("%s: newest split's stash under id %d, want %d", rep.name, sm.stash[newest].id, w.m.lastID)
		case newest < 0 && (sm == w.r || !w.m.gone):
			return fmt.Errorf("%s: newest split's stash (id %d) is gone", rep.name, w.m.lastID)
		}
	}
	if ids := stashIDs(w.c) & w.m.released &^ w.m.back; ids != 0 {
		return fmt.Errorf("C: released ids %b came back", ids)
	}
	if !w.m.dropped {
		if got, want := liveBytes(w.c), liveBytes(w.r); !bytes.Equal(got, want) {
			return fmt.Errorf("determinism: C holds\n %x, R holds\n %x", got, want)
		}
	}
	return nil
}

// conserved checks where sm keeps each key.
func (w *splitWorld) conserved(sm *SM) error {
	for i, k := range splitModelKeys {
		val, live := sm.db.Get([]byte(k))
		var where []string
		var found []byte
		if live {
			where, found = append(where, "live tree"), val
		}
		covered := false
		for _, out := range sm.stash {
			covered = covered || k >= out.lo && (out.hi == "" || k < out.hi)
			out.snap.All(func(key string, v []byte) bool {
				if key == k {
					where, found = append(where, fmt.Sprintf("stash %d", out.id)), v
				}
				return true
			})
		}
		want := 0
		if w.m.vals[i] != 0 && (w.m.owns(k) || covered) {
			want = 1
		}
		switch {
		case len(where) != want:
			return fmt.Errorf("key %s in %v, want %d place(s)", k, where, want)
		case want == 1 && w.m.owns(k) != live:
			return fmt.Errorf("key %s in %v, owned %v", k, where, w.m.owns(k))
		case want == 1 && !bytes.Equal(found, []byte{w.m.vals[i]}):
			return fmt.Errorf("key %s holds %q, latest %q", k, found, w.m.vals[i])
		}
	}
	return nil
}

// events lists the events enabled in w.
func (w *splitWorld) events() []splitEvent {
	var evs []splitEvent
	used, budget := &w.m.used, &w.budget
	if used[evWrite] < budget.writes {
		evs = append(evs, w.m.writes()...)
	}
	if used[evSplit]+used[evRetry] < budget.mints {
		for _, id := range w.m.mintIDs() {
			for _, cut := range splitModelCuts {
				if w.m.owns(cut) {
					evs = append(evs, splitEvent{kind: evSplit, key: cut, id: id})
				}
			}
			if w.m.hi != "" && id != w.m.lastID { // the same id again is a replay
				evs = append(evs, splitEvent{kind: evRetry, key: w.m.hi, id: id})
			}
		}
	}
	for id, key := range w.m.minted {
		if key != "" {
			evs = append(evs, splitEvent{kind: evReplay, key: key, id: uint64(id)})
		}
	}
	evs = append(evs, splitEvent{kind: evInPlace, key: splitModelCuts[1]})
	if used[evCapture] < budget.captures {
		evs = append(evs, splitEvent{kind: evCapture})
	}
	if len(w.pending) > 0 { // the replica serializes its captures in order
		evs = append(evs, splitEvent{kind: evSerialize})
	}
	if used[evRelease] < budget.releases {
		for _, out := range w.c.stash {
			evs = append(evs, splitEvent{kind: evRelease, id: out.id})
		}
	}
	if used[evCrash] < budget.crashes {
		evs = append(evs, splitEvent{kind: evCrash})
	}
	return evs
}

// key identifies w's state: the model, what each replica holds and what
// each pending capture must serialize to. While C may still crash, it also
// holds, for C's checkpoint and each pending capture, what a restart from
// it would hold now: that stands in for the ordered commands since the
// capture, which would otherwise tell every schedule apart.
func (w *splitWorld) key() ([sha256.Size]byte, error) {
	b := fmt.Appendf(nil, "%v|%x|%x", w.m, liveBytes(w.r), liveBytes(w.c))
	for _, p := range w.pending {
		b = fmt.Appendf(b, "|%x", p.want)
	}
	if w.m.used[evCrash] < w.budget.crashes {
		caps := []*splitCapture{w.ckpt}
		for i := range w.pending {
			caps = append(caps, &w.pending[i])
		}
		for _, p := range caps {
			sm, ids, err := w.restart(p)
			if err != nil {
				return [sha256.Size]byte{}, err
			}
			b = fmt.Appendf(b, "|%x/%b", liveBytes(sm), ids)
		}
	}
	return sha256.Sum256(b), nil
}

// exploreSplits walks every schedule of the split model breadth first,
// deduplicating states, and checks every state it reaches. It returns the
// number of states.
func exploreSplits(budget splitBudget) (int, error) {
	build := func(path []splitEvent) (*splitWorld, error) {
		w, err := newSplitWorld(budget)
		for _, e := range path {
			if err != nil {
				break
			}
			err = w.step(e)
		}
		return w, err
	}
	type state struct {
		path []splitEvent
		evs  []splitEvent
	}
	init, err := build(nil)
	if err == nil {
		err = init.check()
	}
	if err != nil {
		return 0, err
	}
	k, err := init.key()
	if err != nil {
		return 0, err
	}
	seen := map[[sha256.Size]byte]bool{k: true}
	for frontier := []state{{nil, init.events()}}; len(frontier) > 0; {
		var next []state
		for _, s := range frontier {
			for _, e := range s.evs {
				path := append(slices.Clip(s.path), e)
				w, err := build(path) // the path's prefix was checked when first reached
				if err == nil {
					err = w.check()
				}
				if err == nil {
					k, err = w.key()
				}
				if err != nil {
					return len(seen), fmt.Errorf("schedule %v: %w", path, err)
				}
				if !seen[k] {
					seen[k] = true
					next = append(next, state{path, w.events()})
				}
			}
		}
		if len(seen) > splitModelStateCap {
			return len(seen), fmt.Errorf("more than %d states: the budgets do not bound", splitModelStateCap)
		}
		frontier = next
	}
	return len(seen), nil
}

// TestSplitModel checks every state the split model reaches (see check);
// serializing a capture checks that it encodes C's state at capture time.
// Each budget aims at one part of the stash:
//   - ids: three splits and retries with ids in every relative order, and
//     repeated, across captures and a crash (retention, order, the retry
//     rule);
//   - data: writes around a split, a retry and a capture (conservation,
//     capture isolation);
//   - release: a release among splits, a capture and a crash (what a
//     restore may bring back).
func TestSplitModel(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine drives the model: the race detector has nothing to check, and it slows the walk tenfold")
	}
	total := 0
	for _, b := range []splitBudget{
		{name: "ids", mints: 3, captures: 2, crashes: 1},
		{name: "data", writes: 2, mints: 2, captures: 1, crashes: 1},
		{name: "release", mints: 3, captures: 1, releases: 1, crashes: 1},
	} {
		n, err := exploreSplits(b)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		t.Logf("%s: %d states", b.name, n)
		total += n
	}
	t.Logf("%d states", total)
}
