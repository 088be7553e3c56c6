// Command benchmark is the one instrument this repository's performance
// claims are measured with: six workloads under open-loop load, end-to-end
// metrics with tracing off, and a per-layer split (counters, a traced
// trial, isolated probes) that says which layer an end-to-end move came
// from. See README.md beside this file and BENCHMARK.json at the root.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, result on the last line; exit 1 if an output check failed
//	benchmark -out FILE [-runs R] [-seed N] [-seconds S]     every workload R times, into FILE
//	benchmark -compare A.json B.json                         gate B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// trialsPerRun fresh deployments share a run's measuring time, and a run
// reports the median trial. Five, because some deployments boot into another
// regime (dlog-multiring: one in five, see README.md) and the median of three
// then lands in it in one run out of ten.
const trialsPerRun = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: where and how the run was taken, and the
// value of every trial behind each reported median.
type detail struct {
	Meta   meta                 `json:"meta"`
	Trials []map[string]float64 `json:"trials"`
}

// meta stamps a result with what is needed to compare it with another.
type meta struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	HostCores  int     `json:"host_cores"`
	Workload   string  `json:"workload,omitempty"`
	Rate       int     `json:"rate_ops_per_s,omitempty"`
	Seed       int64   `json:"seed"`
	Trials     int     `json:"trials"`
	WarmupS    float64 `json:"warmup_s"`
	MeasureS   float64 `json:"measure_s"`
}

func newMeta(seed int64, pl plan) meta {
	m := meta{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: "100", HostCores: runtime.NumCPU(), Seed: seed, Trials: trialsPerRun,
	}
	if v := os.Getenv("GOGC"); v != "" {
		m.GOGC = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	m.WarmupS, m.MeasureS = pl.warmup.Seconds(), pl.window.Seconds()
	return m
}

// plan is how one run spends its time.
type plan struct {
	warmup, window time.Duration      // per trial, each on a fresh deployment
	probes         map[string]float64 // probe results to report; nil = run them for half a window
}

// planFor splits the `seconds` a run measures into one window per trial,
// each after a warm-up at the same rate.
func planFor(seconds int) plan {
	window := time.Duration(seconds) * time.Second / trialsPerRun
	return plan{warmup: min(time.Second, window/4), window: window}
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, with a traced trial and the probes")
		out      = flag.String("out", "", "run every workload -runs times (and once traced) and write all results to this file")
		runs     = flag.Int("runs", 10, "runs per workload with -out")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration")
		scratch  = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for WALs, checkpoints and traces")
		traceOut = flag.String("trace-out", "", "file for the traced trial's spans (default: trace-<workload>.json in the scratch directory)")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.json B.json"))
		}
		regressed, err := compareFiles(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *out != "":
		if err := suite(*out, *runs, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			fatal(err)
		}
		if *traceOut == "" {
			*traceOut = filepath.Join(*scratch, "trace-"+w.name+".json")
		}
		res, det, err := runOnce(sp, w, *seed, planFor(*seconds), *traced == 1, *scratch, *traceOut)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, res, det)
		if !res.Correct {
			os.Exit(1) // the result is printed all the same, with "correct": false
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOnce is one run of one workload. Untraced, it is trialsPerRun trials
// and the median of each end-to-end metric. Traced, it is one untraced trial
// for the counters, one traced trial for the segments, and the probes.
func runOnce(sp *spec, w workload, seed int64, pl plan, traced bool, scratch, traceOut string) (*result, *detail, error) {
	det := &detail{Meta: newMeta(seed, pl)}
	det.Meta.Workload, det.Meta.Rate = w.name, w.rate
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	values := make(map[string]float64)

	add := func(t *trial, kind string) {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.checkErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s trial: output check failed: %v\n", w.name, kind, t.checkErr)
		}
	}
	declared := sp.EndToEnd
	if !traced {
		for k := 0; k < trialsPerRun; k++ {
			t, err := runTrial(w, seed+int64(k), pl, false, scratch)
			if err != nil {
				return nil, nil, err
			}
			add(t, "untraced")
			det.Trials = append(det.Trials, t.e2e)
		}
		for name := range det.Trials[0] {
			var vs []float64
			for _, t := range det.Trials {
				vs = append(vs, t[name])
			}
			values[name] = median(vs)
		}
	} else {
		declared = sp.PerLayer
		plain, err := runTrial(w, seed, pl, false, scratch)
		if err != nil {
			return nil, nil, err
		}
		add(plain, "untraced")
		withTrace, err := runTrial(w, seed+1, pl, true, scratch)
		if err != nil {
			return nil, nil, err
		}
		add(withTrace, "traced")
		probes := pl.probes
		if probes == nil {
			if probes, err = runProbes(pl.window/2, seed, scratch); err != nil {
				return nil, nil, fmt.Errorf("probes: %w", err)
			}
		}
		for _, m := range []map[string]float64{plain.layer, traceMetrics(withTrace.spans), probes} {
			for k, v := range m {
				values[k] = v
			}
		}
		values["trace.overhead_share"] = 0
		if base := plain.e2e["lat_p50_ms"]; base > 0 {
			values["trace.overhead_share"] = withTrace.e2e["lat_p50_ms"]/base - 1
		}
		det.Trials = []map[string]float64{plain.e2e, withTrace.e2e}
		if err := writeSpans(traceOut, withTrace.spans); err != nil {
			return nil, nil, err
		}
	}

	// What is printed is exactly what BENCHMARK.json declares.
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but not measured", w.name, d.Name)
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return nil, nil, fmt.Errorf("%s: metric %s is measured but not declared in BENCHMARK.json", w.name, name)
	}
	return res, det, nil
}

// printRun writes every metric by name with its unit, then the two JSON
// lines: the run's detail and, last, its result.
func printRun(f *os.File, res *result, det *detail) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s: %d attempted, %d failed, outputs correct: %v\n", det.Meta.Workload, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(f, "  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, v := range []any{det, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fatal(err) // NaN or Inf in a metric: a bug in the benchmark
		}
		fmt.Fprintln(f, string(line))
	}
}
