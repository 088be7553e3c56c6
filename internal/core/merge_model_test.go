package core

import (
	"fmt"
	"slices"
	"testing"

	"amcast/internal/recovery"
	"amcast/internal/ring"
	"amcast/internal/transport"
)

// mergeModelConfig is one configuration TestMergeModel explores: the
// entries each ring decides, in instance order from 1 — "v" a plain value,
// "p" a value packing two messages, "s3" a skip of three instances (it
// overshoots a turn for M ≤ 2), "M" the armed marker — and the ring
// indices the marker switches the subscription to.
type mergeModelConfig struct {
	name  string
	m     int
	rings [][]string
	after []int
}

var mergeModelConfigs = []mergeModelConfig{
	{name: "2 rings, M=1", m: 1, rings: [][]string{{"v", "s3", "p", "v"}, {"s3", "v", "M", "v"}}, after: []int{0, 1}},
	{name: "2 rings, M=2", m: 2, rings: [][]string{{"v", "s3", "p", "v"}, {"s3", "v", "M", "v"}}, after: []int{0, 1}},
	{name: "3 rings, M=1", m: 1, rings: [][]string{{"v", "p", "s3", "v"}, {"s3", "v", "M", "v"}, {"v", "s3", "p", "v"}}, after: []int{0, 1}},
	{name: "3 rings, M=2", m: 2, rings: [][]string{{"v", "p", "s3", "v"}, {"s3", "v", "M", "v"}, {"v", "s3", "p", "v"}}, after: []int{0, 1}},
}

// mergeModel holds one configuration's decided entries, the order every
// learner must deliver, and the restore points already replayed.
type mergeModel struct {
	m       int
	decided [][]ring.Delivery // by ring index; ring r is group r+1
	after   []transport.RingID
	marker  uint64
	ref     []Delivery          // the merged order, values only
	markAt  int                 // ref index of the marker
	checked map[[12]uint64]bool // epoch, next, remaining, deliveries, then frontier and credit by ring
}

func newMergeModel(cfg mergeModelConfig) *mergeModel {
	mm := &mergeModel{m: cfg.m, markAt: -1, checked: map[[12]uint64]bool{}}
	for r, entries := range cfg.rings {
		var ds []ring.Delivery
		inst := uint64(1)
		for k, e := range entries {
			id := uint64(r+1)*100 + uint64(k+1)*10
			v := transport.Value{ID: id, Count: 1, Data: []byte(e)}
			switch e {
			case "s3":
				v = transport.Value{ID: id, Skip: true, Count: 3}
			case "p":
				v.Batched = true
				v.Data = transport.EncodeBatch([]transport.InstanceValue{
					{Value: transport.Value{ID: id + 1, Count: 1, Data: []byte("p1")}},
					{Value: transport.Value{ID: id + 2, Count: 1, Data: []byte("p2")}},
				})
			case "M":
				mm.marker = id
			}
			ds = append(ds, ring.Delivery{Ring: transport.RingID(r + 1), Instance: inst, Value: v})
			inst += v.Span()
		}
		mm.decided = append(mm.decided, ds)
	}
	for _, r := range cfg.after {
		mm.after = append(mm.after, transport.RingID(r+1))
	}
	return mm
}

// spec is the merged order by definition (Section 4): ring after ring in
// ascending order, M instances per turn, every instance of a skip a filler
// that delivers nothing. The marker ends the epoch: the round-robin
// restarts at the first ring of the new set, and a skip in progress is
// consumed whole.
func (mm *mergeModel) spec() []Delivery {
	type cell struct {
		entry int
		ds    []Delivery
	}
	cells := make([][]cell, len(mm.decided))
	for r, ds := range mm.decided {
		for k, d := range ds {
			if d.Value.Skip {
				for range d.Value.Span() {
					cells[r] = append(cells[r], cell{entry: k})
				}
				continue
			}
			c := cell{entry: k, ds: []Delivery{{Group: d.Ring, Instance: d.Instance, ValueID: d.Value.ID, Data: d.Value.Data}}}
			if d.Value.Batched {
				c.ds, _ = unpack(nil, d.Ring, d, 0)
			}
			cells[r] = append(cells[r], c)
		}
	}
	pos := make([]int, len(cells))
	order := make([]int, len(cells))
	for r := range order {
		order[r] = r
	}
	var out []Delivery
	for t := 0; ; t = (t + 1) % len(order) {
		r := order[t]
		for range mm.m {
			if pos[r] == len(cells[r]) {
				return out
			}
			c := cells[r][pos[r]]
			pos[r]++
			out = append(out, c.ds...)
			if slices.ContainsFunc(c.ds, func(d Delivery) bool { return d.ValueID == mm.marker }) {
				order = order[:0]
				for _, g := range mm.after {
					order = append(order, int(g)-1)
				}
				for x := range cells {
					for pos[x] > 0 && pos[x] < len(cells[x]) && cells[x][pos[x]].entry == cells[x][pos[x]-1].entry {
						pos[x]++
					}
				}
				t = -1
				break
			}
		}
	}
}

func sameDelivery(a, b Delivery) bool {
	return a.Group == b.Group && a.Instance == b.Instance && a.ValueID == b.ValueID && string(a.Data) == string(b.Data)
}

// mergeLearner runs one mergeState the way Node.merge does: it consumes
// while the ring whose turn it is has an entry, and otherwise flushes and
// blocks, asking st on every arrival whether to request a skip.
type mergeLearner struct {
	mm      *mergeModel
	st      *mergeState
	arrived []int    // entries decided so far, by ring index
	asked   []uint64 // last skip target requested, by ring index
	got     int      // deliveries so far; ref[:got] when recording
	record  bool     // build mm.ref instead of checking against it
	blocked bool
	out     []Delivery
}

func (mm *mergeModel) learner(m int, cur Cursor, start recovery.Vector, got int) *mergeLearner {
	l := &mergeLearner{mm: mm, st: newMergeState(m, cur, start), arrived: make([]int, len(mm.decided)), asked: make([]uint64, len(mm.decided)), got: got}
	if mm.markAt < 0 || got <= mm.markAt {
		l.st.marker = mm.marker
	}
	return l
}

// entry returns ring r's decided entry at instance inst, if it arrived.
func (l *mergeLearner) entry(r int, inst uint64) (ring.Delivery, bool) {
	for k, d := range l.mm.decided[r][:l.arrived[r]] {
		if d.Instance == inst {
			return l.mm.decided[r][k], true
		}
	}
	return ring.Delivery{}, false
}

// advance runs the merge until it blocks, checking a flush after every
// entry.
func (l *mergeLearner) advance() error {
	for {
		i := l.st.turn()
		d, ok := l.entry(int(l.st.cur.Groups[i])-1, l.st.frontier[i])
		if !ok {
			if !l.blocked {
				l.blocked = true
				if err := l.flush(); err != nil {
					return err
				}
			}
			return l.checkStall()
		}
		l.blocked = false
		var act mergeAction
		l.out, act = l.st.step(l.out[:0], d)
		hit := false
		for _, got := range l.out {
			hit = hit || got.ValueID == l.mm.marker
			if l.record {
				l.mm.ref = append(l.mm.ref, got)
			} else if l.got >= len(l.mm.ref) || !sameDelivery(got, l.mm.ref[l.got]) {
				return fmt.Errorf("delivery %d is %d@%d:%d, the order has %v", l.got, got.ValueID, got.Group, got.Instance, l.mm.ref[l.got:])
			}
			l.got++
		}
		if hit != (act == mergeCut) {
			return fmt.Errorf("instance %d of ring %d: marker delivered %v, action %d", d.Instance, d.Ring, hit, act)
		}
		if act == mergeCut {
			if last := l.out[len(l.out)-1]; last.ValueID != l.mm.marker {
				return fmt.Errorf("the batch ends at %d, not right after the marker", last.ValueID)
			}
			l.st.resubscribe(l.mm.after, nil)
			l.st.marker = 0
		}
		// A batch bound can end a batch after any entry.
		if err := l.flush(); err != nil {
			return err
		}
	}
}

// flush checks a published (vector, cursor): a learner restarted from it
// with every entry decided delivers the rest of the order.
func (l *mergeLearner) flush() error {
	if l.record {
		return nil
	}
	vec := recovery.Vector{}
	for i, g := range l.st.cur.Groups {
		vec[g] = l.st.frontier[i] - 1
	}
	key := [12]uint64{l.st.cur.Epoch, uint64(l.st.cur.Next), l.st.cur.Remaining, uint64(l.got)}
	for i := range l.st.frontier {
		key[4+2*i], key[5+2*i] = l.st.frontier[i], l.st.cur.Credits[i]
	}
	if l.mm.checked[key] {
		return nil
	}
	l.mm.checked[key] = true
	r := l.mm.learner(l.mm.m, l.st.cur.Clone(), vec, l.got)
	for i := range r.arrived {
		r.arrived[i] = len(l.mm.decided[i])
	}
	if err := r.advance(); err != nil {
		return fmt.Errorf("restored from %+v at frontiers %v: %w", l.st.cur, l.st.frontier, err)
	}
	if r.got != len(l.mm.ref) {
		return fmt.Errorf("restored from %+v at frontiers %v: delivered through %d of %d", l.st.cur, l.st.frontier, r.got, len(l.mm.ref))
	}
	return nil
}

// checkStall checks the blocked merge's skip request against what the
// cursor arithmetic gives: fed one-instance skips by the blocked ring, the
// held entries by the others and then skips, how far must the blocked
// ring go before every held value is delivered?
func (l *mergeLearner) checkStall() error {
	i := l.st.cur.Next
	last := make([]uint64, len(l.st.cur.Groups))
	held := false
	for j, g := range l.st.cur.Groups {
		for _, d := range l.mm.decided[g-1][:l.arrived[g-1]] {
			if !d.Value.Skip {
				last[j] = d.Instance
			}
		}
		held = held || j != i && last[j] >= l.st.frontier[j]
	}
	target, ask := l.st.stall(last)
	r := int(l.st.cur.Groups[i]) - 1
	if !held {
		if ask {
			return fmt.Errorf("blocked on ring %d with nothing held, asked for %d", r+1, target)
		}
		return nil
	}
	sim := &mergeState{m: l.st.m, cur: l.st.cur.Clone(), frontier: slices.Clone(l.st.frontier), asked: slices.Clone(l.st.asked)}
	for steps := 0; ; steps++ {
		done := true
		for j := range last {
			done = done && (j == i || sim.frontier[j] > last[j])
		}
		if done {
			break
		}
		if steps > 1000 {
			return fmt.Errorf("blocked on ring %d: the held values never deliver", r+1)
		}
		t := sim.turn()
		d, ok := l.entry(int(sim.cur.Groups[t])-1, sim.frontier[t])
		if t == i || !ok || d.Instance > last[t] {
			d = ring.Delivery{Instance: sim.frontier[t], Value: transport.Value{Skip: true, Count: 1}}
		}
		l.out, _ = sim.step(l.out[:0], d)
	}
	if want := sim.frontier[i] - 1; target != want {
		return fmt.Errorf("blocked on ring %d (cursor %+v, frontiers %v, last values %v): skip target %d, want %d", r+1, l.st.cur, l.st.frontier, last, target, want)
	}
	if want := target > l.asked[r]; ask != want {
		return fmt.Errorf("blocked on ring %d: asked = %v for target %d after asking for %d", r+1, ask, target, l.asked[r])
	}
	if ask {
		l.asked[r] = target
	}
	return nil
}

// check builds the order from one learner that has every entry decided,
// compares it with spec, and then runs one learner per arrival schedule:
// every interleaving of the rings' decisions. The learner of schedule skew
// (-1: none) runs with M off by one. It returns the schedules explored.
func (mm *mergeModel) check(skew int) (int, error) {
	groups := make([]transport.RingID, len(mm.decided))
	for r := range groups {
		groups[r] = transport.RingID(r + 1)
	}
	fresh := Cursor{Groups: groups, Credits: make([]uint64, len(groups))}
	ref := mm.learner(mm.m, fresh.Clone(), nil, 0)
	ref.record = true
	for r := range ref.arrived {
		ref.arrived[r] = len(mm.decided[r])
	}
	if err := ref.advance(); err != nil {
		return 0, err
	}
	mm.markAt = slices.IndexFunc(mm.ref, func(d Delivery) bool { return d.ValueID == mm.marker })
	if spec := mm.spec(); !slices.EqualFunc(mm.ref, spec, sameDelivery) {
		return 0, fmt.Errorf("the merge delivers %v, the definition %v", mm.ref, spec)
	}
	schedules := 0
	var schedule []int
	left := make([]int, len(mm.decided))
	for r := range left {
		left[r] = len(mm.decided[r])
	}
	var walk func() error
	walk = func() error {
		if len(schedule) == cap(schedule) {
			m := mm.m
			if schedules == skew {
				m++
			}
			schedules++
			l := mm.learner(m, fresh.Clone(), nil, 0)
			if err := l.advance(); err != nil {
				return fmt.Errorf("schedule %v, before any arrival: %w", schedule, err)
			}
			for k, r := range schedule {
				l.arrived[r]++
				if err := l.advance(); err != nil {
					return fmt.Errorf("schedule %v, arrival %d: %w", schedule, k, err)
				}
			}
			if l.got != len(mm.ref) {
				return fmt.Errorf("schedule %v delivered %d of %d", schedule, l.got, len(mm.ref))
			}
			return nil
		}
		for r := range left {
			if left[r] == 0 {
				continue
			}
			left[r]--
			schedule = append(schedule, r)
			err := walk()
			schedule = schedule[:len(schedule)-1]
			left[r]++
			if err != nil {
				return err
			}
		}
		return nil
	}
	total := 0
	for _, ds := range mm.decided {
		total += len(ds)
	}
	schedule = make([]int, 0, total)
	return schedules, walk()
}

// TestMergeModel walks every arrival schedule of each configuration's
// decided entries over mergeState, one learner per schedule, and asserts:
//   - the merge delivers the order the definition gives, and every
//     schedule delivers that one order;
//   - a learner restarted from any flushed (vector, cursor) delivers the
//     rest of it;
//   - a blocked merge requests exactly the skip target that lets every
//     held value deliver, once per new target, and nothing when no other
//     ring holds a value;
//   - the batch ends right after the marker.
func TestMergeModel(t *testing.T) {
	total := 0
	for _, cfg := range mergeModelConfigs {
		mm := newMergeModel(cfg)
		n, err := mm.check(-1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		t.Logf("%s: %d schedules, %d restore points, %d deliveries", cfg.name, n, len(mm.checked), len(mm.ref))
		total += n
	}
	t.Logf("%d schedules explored", total)
}

// TestMergeModelCatchesSkewedM plants a bug: one learner of each
// configuration runs with M off by one. The model must see it.
func TestMergeModelCatchesSkewedM(t *testing.T) {
	for _, cfg := range mergeModelConfigs {
		if _, err := newMergeModel(cfg).check(7); err == nil {
			t.Fatalf("%s: a learner with M=%d passed the model", cfg.name, cfg.m+1)
		} else {
			t.Logf("%s: %v", cfg.name, err)
		}
	}
}

// TestMergeStepAllocs: consuming a skip, a plain value or a packed value
// allocates nothing (the output batch has room).
func TestMergeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	var packed []transport.InstanceValue
	for id := uint64(1); id <= 16; id++ {
		packed = append(packed, transport.InstanceValue{Value: transport.Value{ID: id, Count: 1, Data: []byte("x")}})
	}
	st := newMergeState(2, Cursor{Groups: []transport.RingID{1, 2}, Credits: make([]uint64, 2)}, nil)
	out := make([]Delivery, 0, 64)
	for _, tc := range []struct {
		name string
		v    transport.Value
		want mergeAction
	}{
		{"skip", transport.Value{ID: 1, Skip: true, Count: 3}, mergeConsume},
		{"plain", transport.Value{ID: 2, Count: 1, Data: []byte("plain")}, mergeDeliver},
		{"packed", transport.Value{ID: 3, Batched: true, Count: 1, Data: transport.EncodeBatch(packed)}, mergeDeliver},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			i := st.turn()
			var act mergeAction
			if out, act = st.step(out[:0], ring.Delivery{Instance: st.frontier[i], Value: tc.v}); act != tc.want {
				t.Fatalf("%s: action %d, want %d", tc.name, act, tc.want)
			}
		})
		if allocs != 0 {
			t.Errorf("consuming a %s entry allocates %.2f times, want 0", tc.name, allocs)
		}
	}
}
