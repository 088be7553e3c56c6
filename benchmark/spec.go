package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is what this program reads of BENCHMARK.json: the declaration the
// driver reads and the one place a metric's unit, direction and bound are
// written down.
type spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []specWhy  `json:"workloads"`
	EndToEnd   []specDecl `json:"end_to_end"`
	PerLayer   []specDecl `json:"per_layer"`
}

type specWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates the declaration: name and unit syntax, the
// 8 / 16 / 128 limits, and that it names exactly this program's workloads.
func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("%s: %d workloads, want 2 to 8", path, n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		return nil, fmt.Errorf("%s: %d end-to-end metrics, want 1 to 16", path, n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		return nil, fmt.Errorf("%s: %d per-layer metrics, want 1 to 128", path, n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		return nil, fmt.Errorf("%s: run_seconds %d, want 1 to 60", path, sp.RunSeconds)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) || seen[name] {
			return fmt.Errorf("%s: name %q is malformed or used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return nil, err
		}
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("%s: workload %q is not one this program runs", path, w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s: declares %d workloads, the program runs %d", path, len(sp.Workloads), len(workloads))
	}
	for _, list := range [][]specDecl{sp.EndToEnd, sp.PerLayer} {
		for _, d := range list {
			if err := use(d.Name); err != nil {
				return nil, err
			}
			if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				return nil, fmt.Errorf("%s: metric %s: bad unit %q or direction %q", path, d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range sp.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			return nil, fmt.Errorf("%s: metric %s: bound %v, want (0, 0.25]", path, d.Name, d.Bound)
		}
	}
	return &sp, nil
}
