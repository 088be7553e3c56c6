package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"amcast/internal/trace"
)

func TestRegistryPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mrp.wal.fsyncs", map[string]string{"process": "p1r1", "ring": "1"}, func() float64 { return 42 })
	reg.Counter("mrp.wal.fsyncs", map[string]string{"process": "p1r2", "ring": "1"}, func() float64 { return 7 })
	reg.Gauge("mrp.ring.lambda", map[string]string{"ring": "1"}, func() float64 { return 9000 })
	reg.Gauge("mrp.merge.stall.mean_seconds", nil, func() float64 { return 0.0015 })

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE mrp_wal_fsyncs counter\n",
		"mrp_wal_fsyncs{process=\"p1r1\",ring=\"1\"} 42\n",
		"mrp_wal_fsyncs{process=\"p1r2\",ring=\"1\"} 7\n",
		"# TYPE mrp_ring_lambda gauge\n",
		"mrp_ring_lambda{ring=\"1\"} 9000\n",
		"mrp_merge_stall_mean_seconds 0.0015\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per name, not per series.
	if n := strings.Count(out, "# TYPE mrp_wal_fsyncs"); n != 1 {
		t.Fatalf("TYPE line repeated %d times", n)
	}
}

// TestSamplesAllocationsDoNotGrowWithSeries pins the scrape's cost: the
// sort key of a series is built when it registers, so a scrape allocates
// its two slices and the sort's closure, not a label string per
// comparison (a 200-series registry used to cost ~3 000 allocations a
// scrape, and a harness that scrapes inside its measured window saw every
// newly registered series as allocations per operation).
func TestSamplesAllocationsDoNotGrowWithSeries(t *testing.T) {
	reg := NewRegistry()
	for p := 0; p < 9; p++ {
		for m := 0; m < 24; m++ {
			reg.Counter("mrp.m"+strconv.Itoa(m), map[string]string{"process": "p" + strconv.Itoa(p), "ring": "1"}, func() float64 { return 1 })
		}
	}
	var got []Sample
	if n := testing.AllocsPerRun(10, func() { got = reg.Samples() }); n > 8 {
		t.Errorf("one scrape of %d series = %.0f allocations, want <= 8", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Name > b.Name || a.Name == b.Name && a.Labels["process"] >= b.Labels["process"] {
			t.Fatalf("samples out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x", nil, func() float64 { return 1 })
	if s := reg.Samples(); s != nil {
		t.Fatalf("nil registry returned samples: %v", s)
	}
	var b strings.Builder
	reg.WritePrometheus(&b) // must not panic
}

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mrp.core.delivered", nil, func() float64 { return 123 })

	rec := trace.NewRecorder("p1r1", 64)
	rec.SetSampling(1)
	ctx := rec.StartRoot()
	rec.Record(trace.Span{TraceID: ctx.TraceID, SpanID: ctx.SpanID, Name: "submit", Start: time.Now()})
	rec.Add(ctx, "merge", 1, 5, 99, time.Now(), 0)
	col := trace.NewCollector()
	col.Register(rec)

	srv := httptest.NewServer(NewMux(reg, col, map[string]DebugProvider{
		"rings": func() any { return map[string]any{"ring": 1} },
	}))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics", http.StatusOK)
	if !strings.Contains(body, "mrp_core_delivered 123") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	body = get(t, srv.URL+"/debug/rings", http.StatusOK)
	if !strings.Contains(body, "\"ring\": 1") {
		t.Fatalf("/debug/rings wrong body: %s", body)
	}

	var list struct {
		Traces    []string `json:"traces"`
		Recorders []string `json:"recorders"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/traces", http.StatusOK)), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || len(list.Recorders) != 1 || list.Recorders[0] != "p1r1" {
		t.Fatalf("unexpected /debug/traces: %+v", list)
	}
	if got, want := list.Traces[0], strconv.FormatUint(ctx.TraceID, 16); got != want {
		t.Fatalf("trace id %s != %s", got, want)
	}

	var tr struct {
		Spans []trace.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/trace/"+list.Traces[0], http.StatusOK)), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "submit" || tr.Spans[1].Name != "merge" {
		t.Fatalf("unexpected spans: %+v", tr.Spans)
	}

	get(t, srv.URL+"/debug/trace/not-an-id", http.StatusBadRequest)
	get(t, srv.URL+"/debug/pprof/", http.StatusOK)
}

func get(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
