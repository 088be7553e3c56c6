package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// suiteFile is what -out writes: every run of every workload, so that two
// files can be compared the way the driver compares two commits.
type suiteFile struct {
	Meta      meta                      `json:"meta"`
	Runs      int                       `json:"runs"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Rate      int `json:"rate_ops_per_s"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd holds, per metric, each run's value (a run's value is the
	// median of its trials, which Trials keeps).
	EndToEnd map[string]*suiteMetric `json:"end_to_end"`
	Trials   [][]map[string]float64  `json:"trials"`
	PerLayer map[string]metric       `json:"per_layer"`
}

type suiteMetric struct {
	Unit     string    `json:"unit"`
	Runs     []float64 `json:"runs"`
	Median   float64   `json:"median"`
	IQRShare float64   `json:"iqr_share"` // (Q3 − Q1) ÷ median over the runs
}

// suite runs every workload `runs` times untraced (seeds seed, seed+100, …)
// and once traced, each in a process of its own as the driver does, and
// fails if any output check or operation failed.
func suite(out string, runs int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Meta: newMeta(seed, planFor(seconds)), Runs: runs, Workloads: make(map[string]*suiteWorkload)}
	var bad []string
	for _, w := range workloads {
		sw := &suiteWorkload{Rate: w.rate, EndToEnd: make(map[string]*suiteMetric), PerLayer: make(map[string]metric)}
		file.Workloads[w.name] = sw
		for k := 0; k <= runs; k++ {
			traced, traceArg := k == runs, "0"
			if traced {
				traceArg = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+100*int64(k), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output() // exit 1 with a result: an output check failed, counted below
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			var det detail
			if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &res) != nil || json.Unmarshal(lines[len(lines)-2], &det) != nil {
				return fmt.Errorf("%s run %d: no result on the last two lines of output (%v)", w.name, k, runErr)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d: attempted %d failed %d correct %v\n", w.name, k+1, runs+1, res.Attempted, res.Failed, res.Correct)
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			if !res.Correct || res.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s run %d", w.name, k))
			}
			if traced {
				sw.PerLayer = res.Metrics
				continue
			}
			sw.Trials = append(sw.Trials, det.Trials)
			for name, m := range res.Metrics {
				if sw.EndToEnd[name] == nil {
					sw.EndToEnd[name] = &suiteMetric{Unit: m.Unit}
				}
				sw.EndToEnd[name].Runs = append(sw.EndToEnd[name].Runs, m.Value)
			}
		}
		for _, m := range sw.EndToEnd {
			m.Median, m.IQRShare = median(m.Runs), iqrShare(m.Runs)
		}
	}
	buf, err := json.Marshal(file)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed operations or output checks in: %v", bad)
	}
	return nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4),
// which is what the driver computes.
func iqrShare(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 || median(s) == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// compareFiles gates file b against file a: one row per workload and
// end-to-end metric, direction-aware, against the bounds BENCHMARK.json
// fixes. A pairing whose run-to-run spread exceeds its bound on either
// side is unresolved, not unchanged.
func compareFiles(sp *spec, a, b string, w io.Writer) (regressed bool, err error) {
	var fa, fb suiteFile
	for path, f := range map[string]*suiteFile{a: &fa, b: &fb} {
		buf, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(buf, f); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d, %d runs\nB: %s  commit %s seed %d, %d runs\n",
		a, fa.Meta.Commit, fa.Meta.Seed, fa.Runs, b, fb.Meta.Commit, fb.Meta.Seed, fb.Runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA spread\tB median\tB spread\tworse by\tbound\tverdict\t")
	for _, wl := range sp.Workloads {
		wa, wb := fa.Workloads[wl.Name], fb.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from one file", wl.Name)
		}
		for _, d := range sp.EndToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil || mb == nil || ma.Median == 0 {
				return false, fmt.Errorf("%s: metric %s is missing or zero in one file", wl.Name, d.Name)
			}
			worse := (mb.Median - ma.Median) / ma.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.IQRShare > d.Bound || mb.IQRShare > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.1f%%\t%.4f\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, d.Name, d.Unit, ma.Median, 100*ma.IQRShare, mb.Median, 100*mb.IQRShare, 100*worse, 100*d.Bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d\t\t%d\t\t\t\tREGRESSION\t\n", wl.Name, wa.Failed, wb.Failed)
			regressed = true
		}
	}
	return regressed, tw.Flush()
}
