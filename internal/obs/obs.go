// Package obs is the process-wide observability surface: a pull-based
// metric registry unifying the counters, gauges, EWMAs and histograms
// scattered across the stack under stable dotted names with labels, and
// an HTTP mux exporting them as Prometheus text (/metrics) alongside
// JSON debug views (/debug/rings, /debug/traces, /debug/trace/<id>) and
// the standard pprof profiles (/debug/pprof/...).
//
// The registry is read-at-scrape: components register a read function
// over instrumentation they already maintain (atomic counters, gauge
// snapshots), so registration adds no cost to any hot path — the only
// work happens when a scraper asks.
//
// It stays apart from internal/metrics: obs imports net/http/pprof, whose
// init registers handlers on http.DefaultServeMux, plus trace and
// bufpool, while metrics is a leaf the protocol packages (ring, storage,
// core, smr, store) use on their hot paths. Folding metrics in here would
// pull an HTTP mux into every one of them.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"

	"amcast/internal/trace"
)

// Kind classifies a metric for exposition.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time level that can go up and down.
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// entry is one registered metric: a stable dotted name, constant labels
// (fp is their fingerprint, the scrape's sort key) and a read function
// sampled at scrape time.
type entry struct {
	name   string
	kind   Kind
	labels map[string]string
	fp     string
	read   func() float64
}

// Sample is one scraped metric value.
type Sample struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Registry is the process-wide metric registry. All methods are safe for
// concurrent use and nil-receiver safe, so components can register
// unconditionally and an unwired deployment pays nothing.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers a cumulative metric under a dotted name. read is
// called at scrape time; labels are constant for the metric's lifetime.
func (r *Registry) Counter(name string, labels map[string]string, read func() float64) {
	r.register(name, KindCounter, labels, read)
}

// Gauge registers a level metric under a dotted name.
func (r *Registry) Gauge(name string, labels map[string]string, read func() float64) {
	r.register(name, KindGauge, labels, read)
}

func (r *Registry) register(name string, kind Kind, labels map[string]string, read func() float64) {
	if r == nil || read == nil {
		return
	}
	var copied map[string]string
	if len(labels) > 0 {
		copied = make(map[string]string, len(labels))
		for k, v := range labels {
			copied[k] = v
		}
	}
	r.mu.Lock()
	r.entries = append(r.entries, entry{name: name, kind: kind, labels: copied, fp: labelFingerprint(copied), read: read})
	r.mu.Unlock()
}

// Samples scrapes every registered metric, sorted by name then label
// fingerprint for stable output.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].fp < entries[j].fp
	})
	out := make([]Sample, len(entries))
	for i, e := range entries {
		out[i] = Sample{Name: e.name, Kind: e.kind.String(), Labels: e.labels, Value: e.read()}
	}
	return out
}

func labelFingerprint(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(',')
	}
	return b.String()
}

// promName maps a dotted metric name to the Prometheus charset
// (dots and dashes become underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format v0.0.4: one # TYPE line per metric name, then each labeled
// series, stably ordered.
func (r *Registry) WritePrometheus(w io.Writer) {
	samples := r.Samples()
	lastName := ""
	for _, s := range samples {
		pn := promName(s.Name)
		if s.Name != lastName {
			fmt.Fprintf(w, "# TYPE %s %s\n", pn, s.Kind)
			lastName = s.Name
		}
		if len(s.Labels) == 0 {
			fmt.Fprintf(w, "%s %s\n", pn, formatValue(s.Value))
			continue
		}
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%q", promName(k), s.Labels[k])
		}
		fmt.Fprintf(w, "%s{%s} %s\n", pn, strings.Join(parts, ","), formatValue(s.Value))
	}
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DebugProvider produces a JSON-serializable snapshot for one
// /debug/<name> endpoint (e.g. per-ring protocol state for /debug/rings).
type DebugProvider func() any

// NewMux builds the observability mux:
//
//	/metrics            Prometheus text exposition of reg
//	/debug/<name>       JSON from each debug provider (e.g. /debug/rings)
//	/debug/traces       recent trace ids + registered recorders
//	/debug/trace/<id>   one assembled causal timeline (hex or decimal id)
//	/debug/pprof/...    standard net/http/pprof profiles
//
// Any of reg/col may be nil; the matching endpoints then serve empty
// documents rather than 404, so scrapers stay config-independent.
func NewMux(reg *Registry, col *trace.Collector, debug map[string]DebugProvider) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Samples())
	})
	for name, provider := range debug {
		p := provider
		mux.HandleFunc("/debug/"+name, func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, p())
		})
	}
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		ids := col.TraceIDs(100)
		hexIDs := make([]string, len(ids))
		for i, id := range ids {
			hexIDs[i] = strconv.FormatUint(id, 16)
		}
		writeJSON(w, map[string]any{
			"traces":    hexIDs,
			"recorders": col.Recorders(),
		})
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, req *http.Request) {
		raw := strings.TrimPrefix(req.URL.Path, "/debug/trace/")
		id, err := strconv.ParseUint(raw, 16, 64)
		if err != nil {
			if id, err = strconv.ParseUint(raw, 10, 64); err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
		}
		spans := col.Trace(id)
		writeJSON(w, map[string]any{
			"trace_id": strconv.FormatUint(id, 16),
			"spans":    spans,
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
