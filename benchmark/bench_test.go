package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke drives all six workloads for 300 ms each, plain and traced, and
// checks that every output check passes, that no operation fails, and that
// every metric BENCHMARK.json declares is emitted on every workload (runOnce
// refuses to return a result that differs from the declaration either way).
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	probes, err := runProbes(17*probeRepeats*10*time.Millisecond, 1, scratch)
	if err != nil {
		t.Fatal(err)
	}
	pl := plan{warmup: 100 * time.Millisecond, window: 300 * time.Millisecond, probes: probes}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, det, err := runOnce(sp, w, 1, pl, true, scratch, filepath.Join(scratch, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(res.Metrics), len(sp.PerLayer))
			}
			if res.Metrics["trace.sampled"].Value == 0 {
				t.Error("the traced trial assembled no complete trace")
			}
			for _, d := range sp.EndToEnd {
				for k, trial := range det.Trials {
					if v, ok := trial[d.Name]; !ok || v <= 0 {
						t.Errorf("trial %d: end-to-end metric %s = %v, want > 0", k, d.Name, v)
					}
				}
			}
			if len(det.Trials[0]) != len(sp.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(det.Trials[0]), len(sp.EndToEnd))
			}
		})
	}
}

// TestIQRShare pins the quartile rule to Python's statistics.quantiles(n=4),
// which the driver gates with: quantiles([1..10]) = [2.75, 5.5, 8.25].
func TestIQRShare(t *testing.T) {
	got := iqrShare([]float64{3, 1, 2, 5, 4, 8, 7, 6, 10, 9})
	if want := (8.25 - 2.75) / 5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
