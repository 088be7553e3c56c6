// Package trace provides per-value distributed tracing for the multicast
// stack: a compact trace context (trace id, parent span id, sampled bit)
// is stamped at client submit, rides protocol frames as an optional
// trailing header, and every hop that touches the value records a span
// into a per-process lock-cheap ring buffer. A Collector assembles the
// spans of one trace id across every registered recorder into a single
// causal timeline naming each hop, ring and fsync the value waited on.
//
// The package is dependency-free (stdlib only) and imports nothing from
// this repository, so transport can depend on it without a cycle. All
// Recorder methods are nil-receiver safe: an unwired component simply
// records nothing.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlagSampled marks a context whose value should record spans at every
// hop. Unsampled contexts propagate as zero values and cost nothing.
const FlagSampled = 1 << 0

// Context is the compact trace context carried on protocol frames:
// 17 bytes on the wire (trace id, parent span id, flags).
type Context struct {
	TraceID uint64
	SpanID  uint64 // parent span id for spans recorded under this context
	Flags   byte
}

// Sampled reports whether spans should be recorded for this context.
func (c Context) Sampled() bool {
	return c.TraceID != 0 && c.Flags&FlagSampled != 0
}

// Span is one recorded hop of a traced value's journey.
type Span struct {
	TraceID  uint64        `json:"trace_id"`
	SpanID   uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id"`
	Name     string        `json:"name"`    // hop name: submit, forward, wal-commit, vote, decide, merge, apply
	Process  string        `json:"process"` // recorder (process) name
	Ring     uint32        `json:"ring"`
	Instance uint64        `json:"instance"`
	ValueID  uint64        `json:"value_id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// Recorder is a per-process span sink: a fixed-capacity ring buffer of
// atomically published span pointers. Recording is lock-free (one
// atomic add + one atomic pointer store) so it can sit next to the
// protocol hot path; when the buffer wraps, the oldest spans are
// overwritten.
type Recorder struct {
	name  string
	slots []atomic.Pointer[Span]
	idx   atomic.Uint64
	ids   atomic.Uint64
	seed  uint64
	// every is the sampling divisor for roots started at this recorder:
	// 0 disables sampling, 1 samples everything, N samples every Nth
	// submit (counter-based — no randomness near deterministic code).
	every atomic.Uint64
	ctr   atomic.Uint64
}

// DefaultCapacity is the span ring size used when NewRecorder is given
// a non-positive capacity.
const DefaultCapacity = 4096

// NewRecorder returns a recorder named for its process, with sampling
// disabled until SetSampling is called.
func NewRecorder(name string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{name: name, slots: make([]atomic.Pointer[Span], capacity)}
	// Seed id generation from the process name and start time so ids
	// from distinct recorders (and distinct runs) do not collide. This
	// runs at construction, never on a deterministic replica path.
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r.seed = mix(h ^ uint64(time.Now().UnixNano()))
	return r
}

// mix is splitmix64's finalizer: spreads sequential ids across the
// 64-bit space so truncated displays stay distinguishable.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Name returns the recorder's process name ("" for nil).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// SetSampling sets the root-sampling divisor: 0 disables tracing, 1
// samples every submit, n samples every nth.
func (r *Recorder) SetSampling(n uint64) {
	if r == nil {
		return
	}
	r.every.Store(n)
}

// NextID returns a fresh non-zero span/trace id.
func (r *Recorder) NextID() uint64 {
	if r == nil {
		return 0
	}
	id := mix(r.seed + r.ids.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// StartRoot decides (counter-based) whether this submit is sampled and,
// if so, returns a fresh sampled context whose SpanID is the root span
// id. The zero Context means "not sampled".
func (r *Recorder) StartRoot() Context {
	if r == nil {
		return Context{}
	}
	every := r.every.Load()
	if every == 0 {
		return Context{}
	}
	if every > 1 && r.ctr.Add(1)%every != 0 {
		return Context{}
	}
	return Context{TraceID: r.NextID(), SpanID: r.NextID(), Flags: FlagSampled}
}

// Record publishes a span into the ring buffer. No-op on a nil recorder
// or an unsampled trace id.
func (r *Recorder) Record(s Span) {
	if r == nil || s.TraceID == 0 {
		return
	}
	if s.SpanID == 0 {
		s.SpanID = r.NextID()
	}
	s.Process = r.name
	i := (r.idx.Add(1) - 1) % uint64(len(r.slots))
	r.slots[i].Store(&s)
}

// Add records one child span under ctx: a hop named name that started
// at start and lasted d. No-op when ctx is unsampled.
func (r *Recorder) Add(ctx Context, name string, ring uint32, instance, valueID uint64, start time.Time, d time.Duration) {
	if r == nil || !ctx.Sampled() {
		return
	}
	r.Record(Span{
		TraceID:  ctx.TraceID,
		ParentID: ctx.SpanID,
		Name:     name,
		Ring:     ring,
		Instance: instance,
		ValueID:  valueID,
		Start:    start,
		Duration: d,
	})
}

// Spans snapshots the buffer's current contents (unordered).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Collector aggregates the recorders of every process in a deployment
// and assembles per-trace causal timelines. In-process clusters register
// one recorder per simulated process; a multi-process deployment would
// register one per scraped peer.
type Collector struct {
	mu   sync.Mutex
	recs []*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Register adds a recorder to the collector. Nil recorders are ignored.
func (c *Collector) Register(r *Recorder) {
	if c == nil || r == nil {
		return
	}
	c.mu.Lock()
	c.recs = append(c.recs, r)
	c.mu.Unlock()
}

// Recorders returns the registered recorder names.
func (c *Collector) Recorders() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, len(c.recs))
	for i, r := range c.recs {
		names[i] = r.Name()
	}
	return names
}

func (c *Collector) snapshot() []*Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Recorder(nil), c.recs...)
}

// Trace assembles the causal timeline of one trace id: every span
// recorded for it anywhere in the deployment, ordered causally (parents
// before children, then by start time — all in-process recorders share
// one clock, so start-time order is the causal order within a trace).
func (c *Collector) Trace(id uint64) []Span {
	if c == nil || id == 0 {
		return nil
	}
	var out []Span
	for _, r := range c.snapshot() {
		for _, s := range r.Spans() {
			if s.TraceID == id {
				out = append(out, s)
			}
		}
	}
	sortCausal(out)
	return out
}

// TraceIDs lists the distinct trace ids currently held across all
// recorders, newest-start first, capped at limit (<=0 means all).
func (c *Collector) TraceIDs(limit int) []uint64 {
	if c == nil {
		return nil
	}
	latest := make(map[uint64]time.Time)
	for _, r := range c.snapshot() {
		for _, s := range r.Spans() {
			if t, ok := latest[s.TraceID]; !ok || s.Start.After(t) {
				latest[s.TraceID] = s.Start
			}
		}
	}
	ids := make([]uint64, 0, len(latest))
	for id := range latest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return latest[ids[i]].After(latest[ids[j]]) })
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

// sortCausal orders spans parents-first: root spans (ParentID 0) lead,
// then children by start time, name and process for a stable display.
func sortCausal(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if (a.ParentID == 0) != (b.ParentID == 0) {
			return a.ParentID == 0
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Process < b.Process
	})
}
