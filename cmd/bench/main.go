// Command bench regenerates the paper's evaluation figures (Section 8)
// and the design-choice ablations against this repository's
// implementation. The repository's regression benchmark is benchmark/
// (bash benchmark/run.sh), not this command.
//
// Usage:
//
//	bench -fig 3            # one figure (3..8)
//	bench -fig all          # every figure
//	bench -ablation all     # design-choice ablations (merge-M, skips,
//	                        # batching, global-ring)
//	bench -duration 5s -scale 0.5 -clients 100 -records 5000
//
// Scale < 1 shrinks emulated device and WAN latencies proportionally so
// runs finish quickly while preserving the ratios between configurations;
// scale=1 uses realistic 2014-era hardware numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"amcast/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "", "figure to regenerate: 3,4,5,6,7,8 or 'all'")
	ablation := flag.String("ablation", "", "ablation to run: merge-m, skip, batch, global-ring or 'all'")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per configuration")
	scale := flag.Float64("scale", 0.25, "emulated latency scale (1.0 = realistic hardware)")
	clients := flag.Int("clients", 100, "maximum client threads")
	records := flag.Int("records", 2000, "YCSB database records")
	flag.Parse()

	o := bench.Options{
		Out:      os.Stdout,
		Duration: *duration,
		Scale:    *scale,
		Clients:  *clients,
		Records:  *records,
	}
	if *fig == "" && *ablation == "" {
		flag.Usage()
		return fmt.Errorf("pass -fig or -ablation")
	}

	runFig := func(name string) error {
		switch name {
		case "3":
			_, err := bench.Fig3(o)
			return err
		case "4":
			_, err := bench.Fig4(o)
			return err
		case "5":
			_, err := bench.Fig5(o)
			return err
		case "6":
			_, err := bench.Fig6(o)
			return err
		case "7":
			_, err := bench.Fig7(o)
			return err
		case "8":
			// The recovery timeline wants a longer window.
			o8 := o
			if o8.Duration < 10*time.Second {
				o8.Duration = 10 * time.Second
			}
			_, err := bench.Fig8(o8)
			return err
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
	}
	runAblation := func(name string) error {
		switch name {
		case "merge-m":
			_, err := bench.AblationMergeM(o)
			return err
		case "skip":
			_, err := bench.AblationSkip(o)
			return err
		case "batch":
			_, err := bench.AblationBatch(o)
			return err
		case "global-ring":
			_, err := bench.AblationGlobalRing(o)
			return err
		default:
			return fmt.Errorf("unknown ablation %q", name)
		}
	}

	switch *fig {
	case "":
	case "all":
		for _, f := range []string{"3", "4", "5", "6", "7", "8"} {
			if err := runFig(f); err != nil {
				return err
			}
		}
	default:
		if err := runFig(*fig); err != nil {
			return err
		}
	}
	switch *ablation {
	case "":
	case "all":
		for _, a := range []string{"merge-m", "skip", "batch", "global-ring"} {
			if err := runAblation(a); err != nil {
				return err
			}
		}
	default:
		if err := runAblation(*ablation); err != nil {
			return err
		}
	}
	return nil
}
