package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/trace"
)

// TestEndToEndTraceAndMetrics boots a live multi-ring MRP-Store cluster
// with 100% trace sampling, performs one write, and asserts over the
// actual HTTP surface that (a) /metrics exposes the unified catalog and
// (b) /debug/trace/<id> assembles one cluster-wide causal timeline with
// the full hop sequence submit → forward → wal-commit → vote → decide →
// merge → apply.
func TestEndToEndTraceAndMetrics(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	d.SetTraceSampling(1)
	const globalLambda = 1000 // the global ring's λ override; the partition rings keep fastRing's
	c, err := d.StartStore(StoreOptions{Partitions: 2, Replicas: 3, Global: true, Ring: fastRing(), GlobalLambda: globalLambda})
	if err != nil {
		t.Fatal(err)
	}
	sc, raw, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	if err := sc.Insert("trace-key", []byte("trace-value")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(c.ObsMux())
	defer srv.Close()

	// Metrics: the catalog must expose replica, ring and client series.
	metrics := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE mrp_replica_executed_total counter",
		"# TYPE mrp_core_delivered_total counter",
		"# TYPE mrp_ring_decided_total counter",
		"# TYPE mrp_ring_lambda gauge",
		"# TYPE mrp_merge_stall_seconds_total counter",
		"# TYPE mrp_client_retransmits_total counter",
		`mrp_replica_executed_total{process="p1r1"}`,
		`mrp_ring_decided_total{process="p2r3",ring="2"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q\n%s", want, metrics)
		}
	}

	// The executed write must show up as a non-zero counter somewhere.
	if !strings.Contains(metrics, "mrp_replica_executed_total{process=\"p") {
		t.Fatal("no executed counters exposed")
	}

	// Debug ring state. Every replica merges its partition's ring with the
	// global ring, so sequential writes are held behind the idle global
	// ring's frontier and its coordinator skips on demand: the operator's
	// view must show who asked, who skipped, and nobody left waiting.
	for i := 0; i < 50; i++ {
		if err := sc.Update("trace-key", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var rings struct {
		Servers []struct {
			Process string `json:"process"`
			Rings   []struct {
				Ring             uint64  `json:"ring"`
				Applied          uint64  `json:"applied"`
				Lambda           int     `json:"lambda"`
				Frontier         *uint64 `json:"frontier"`
				Waiting          *bool   `json:"waiting"`
				AwaitedInstance  *uint64 `json:"awaited_instance"`
				SkipRequestsSent *uint64 `json:"skip_requests_sent"`
				SkipsOnDemand    *uint64 `json:"skips_on_demand"`
			} `json:"rings"`
		} `json:"servers"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/rings")), &rings); err != nil {
		t.Fatal(err)
	}
	if len(rings.Servers) != 6 {
		t.Fatalf("/debug/rings lists %d servers, want 6", len(rings.Servers))
	}
	var requests, onDemand uint64
	for _, s := range rings.Servers {
		if len(s.Rings) != 2 {
			t.Fatalf("/debug/rings: %s merges %d rings, want 2", s.Process, len(s.Rings))
		}
		for _, r := range s.Rings {
			if r.Frontier == nil || r.Waiting == nil || r.AwaitedInstance == nil || r.SkipRequestsSent == nil || r.SkipsOnDemand == nil {
				t.Fatalf("/debug/rings: %s ring %d lacks a skip-on-stall field: %+v", s.Process, r.Ring, r)
			}
			if *r.Frontier != r.Applied+1 {
				t.Fatalf("/debug/rings: %s ring %d frontier %d, applied %d", s.Process, r.Ring, *r.Frontier, r.Applied)
			}
			want := fastRing().Lambda
			if r.Ring == uint64(GlobalRing) {
				want = globalLambda
			}
			if r.Lambda != want {
				t.Fatalf("/debug/rings: %s ring %d lambda %d, want the configured %d", s.Process, r.Ring, r.Lambda, want)
			}
			requests += *r.SkipRequestsSent
			onDemand += *r.SkipsOnDemand
		}
	}
	if requests == 0 || onDemand == 0 {
		t.Fatalf("/debug/rings shows %d skip requests and %d on-demand skips after 50 sequential writes, want both > 0", requests, onDemand)
	}
	metrics = httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE mrp_ring_skip_requests_sent_total counter",
		"# TYPE mrp_ring_skips_on_demand_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Trace assembly: the write's trace must exist and carry the full
	// causally-ordered hop sequence.
	var list struct {
		Traces []string `json:"traces"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/traces")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("no traces collected")
	}

	want := []string{"submit", "forward", "wal-commit", "vote", "decide", "merge", "apply"}
	var best []trace.Span
	for _, id := range list.Traces {
		var tr struct {
			Spans []trace.Span `json:"spans"`
		}
		if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/trace/"+id)), &tr); err != nil {
			t.Fatal(err)
		}
		if coversAll(tr.Spans, want) {
			best = tr.Spans
			break
		}
	}
	if best == nil {
		t.Fatalf("no trace covers the full hop sequence %v", want)
	}
	if len(best) < 6 {
		t.Fatalf("assembled trace has %d spans, want >= 6", len(best))
	}
	// Causal order: the root submit span leads, and every other span
	// starts inside its duration (all recorders share one clock here).
	if best[0].Name != "submit" || best[0].ParentID != 0 {
		t.Fatalf("first span is %q (parent %d), want root submit", best[0].Name, best[0].ParentID)
	}
	rootEnd := best[0].Start.Add(best[0].Duration)
	for _, s := range best[1:] {
		if s.ParentID != best[0].SpanID {
			t.Fatalf("span %q has parent %d, want root %d", s.Name, s.ParentID, best[0].SpanID)
		}
		if s.Start.Before(best[0].Start) || s.Start.After(rootEnd.Add(time.Second)) {
			t.Fatalf("span %q at %v outside root window [%v, %v]", s.Name, s.Start, best[0].Start, rootEnd)
		}
	}
	// Spans after the root are start-time ordered (sortCausal).
	for i := 2; i < len(best); i++ {
		if best[i].Start.Before(best[i-1].Start) {
			t.Fatalf("spans out of causal order: %q before %q", best[i].Name, best[i-1].Name)
		}
	}
}

func coversAll(spans []trace.Span, names []string) bool {
	seen := make(map[string]bool, len(spans))
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, n := range names {
		if !seen[n] {
			return false
		}
	}
	return true
}

// TestTraceSamplingDivisor checks the every-Nth sampling knob: at
// divisor 3, roughly one third of submissions root a trace.
func TestTraceSamplingDivisor(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	d.SetTraceSampling(3)
	c, err := d.StartStore(StoreOptions{Partitions: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc, raw, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for i := 0; i < 9; i++ {
		if err := sc.Insert(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ids := d.Trace.TraceIDs(0)
	if len(ids) != 3 {
		t.Fatalf("divisor 3 over 9 submits rooted %d traces, want 3", len(ids))
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPackedValuesGauge: mrp.ring.packed_values_mean — messages per
// proposed instance at a ring's coordinator (Section 4 packing) — reads
// exactly 1 while proposals reach the coordinator one at a time and rises
// above 1 once concurrent clients make bursts; /debug/rings shows the
// same figure next to the coordinator's queue depth.
func TestPackedValuesGauge(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 1, Replicas: 3,
		Ring: core.RingOptions{BatchBytes: 32 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator's series is the only non-zero one.
	packed := func() float64 {
		v, found := 0.0, false
		for _, s := range d.Obs.Samples() {
			if s.Name == "mrp.ring.packed_values_mean" && s.Labels["ring"] == "1" {
				found = true
				v = max(v, s.Value)
			}
		}
		if !found {
			t.Fatal("mrp.ring.packed_values_mean is not registered")
		}
		return v
	}

	sc, raw, err := c.NewClient(netem.SiteLocal)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for i := 0; i < 10; i++ {
		if err := sc.Insert(fmt.Sprintf("single-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := packed(); got != 1 {
		t.Fatalf("packed_values_mean = %v after singleton proposals, want exactly 1", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wsc, wraw, err := c.NewClient(netem.SiteLocal)
		if err != nil {
			t.Fatal(err)
		}
		defer wraw.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = wsc.Insert(fmt.Sprintf("burst-%d-%d", w, i), []byte("v"))
			}
		}(w)
	}
	deadline := time.Now().Add(15 * time.Second)
	for packed() <= 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := packed(); got <= 1 {
		t.Fatalf("packed_values_mean = %v after concurrent bursts, want > 1", got)
	}

	var rings struct {
		Servers []struct {
			Rings []struct {
				PackedMean float64 `json:"packed_mean"`
				Flow       *struct{ QueueDepth *int }
			} `json:"rings"`
		} `json:"servers"`
	}
	srv := httptest.NewServer(c.ObsMux())
	defer srv.Close()
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/rings")), &rings); err != nil {
		t.Fatal(err)
	}
	shown := 0.0
	for _, s := range rings.Servers {
		for _, r := range s.Rings {
			if r.Flow == nil || r.Flow.QueueDepth == nil {
				t.Fatal("/debug/rings does not show the coordinator's queue depth")
			}
			shown = max(shown, r.PackedMean)
		}
	}
	if shown <= 1 {
		t.Fatalf("/debug/rings packed_mean = %v, want > 1", shown)
	}
}
