// Command lightor-bench regenerates every table and figure of the paper's
// evaluation section on simulated data and prints the same rows/series the
// paper reports:
//
//	lightor-bench                  # run everything at paper scale
//	lightor-bench -scale quick     # small, seconds-fast configuration
//	lightor-bench -run fig6a,table1
//
// See the README's "Benchmarks" section.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lightor/internal/experiments"
)

type runner struct {
	name string
	run  func(experiments.Config) (interface{ Render() string }, error)
}

func wrap[T interface{ Render() string }](f func(experiments.Config) (T, error)) func(experiments.Config) (interface{ Render() string }, error) {
	return func(c experiments.Config) (interface{ Render() string }, error) {
		return f(c)
	}
}

func main() {
	scale := flag.String("scale", "default", "experiment scale: default|quick")
	run := flag.String("run", "all", "comma-separated experiment ids (fig2a,fig2b,fig3,fig6a,fig6b,fig7a,fig7b,fig8,fig9,fig10,fig11,table1,ablations,classifier,windows,delta,online) or 'all'")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "default":
		cfg = experiments.Default()
	case "quick":
		cfg = experiments.Quick()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	all := []runner{
		{"fig2a", wrap(experiments.Figure2a)},
		{"fig2b", wrap(experiments.Figure2b)},
		{"fig3", wrap(experiments.Figure3)},
		{"fig6a", wrap(experiments.Figure6a)},
		{"fig6b", wrap(experiments.Figure6b)},
		{"fig7a", wrap(experiments.Figure7a)},
		{"fig7b", wrap(experiments.Figure7b)},
		{"fig8", wrap(experiments.Figure8)},
		{"fig9", wrap(experiments.Figure9)},
		{"fig10", wrap(experiments.Figure10)},
		{"fig11", wrap(experiments.Figure11)},
		{"table1", wrap(experiments.Table1)},
		// Beyond the paper: ablations and design-choice sweeps.
		{"ablations", wrap(experiments.Ablations)},
		{"classifier", wrap(experiments.ClassifierAccuracy)},
		{"windows", wrap(experiments.WindowSweep)},
		{"delta", wrap(experiments.DeltaSweep)},
		{"online", wrap(experiments.OnlineVsOffline)},
	}

	selected := map[string]bool{}
	if *run != "all" {
		for _, id := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(id)] = true
		}
		for id := range selected {
			found := false
			for _, r := range all {
				if r.name == id {
					found = true
					break
				}
			}
			if !found {
				log.Fatalf("unknown experiment %q", id)
			}
		}
	}

	failed := false
	for _, r := range all {
		if *run != "all" && !selected[r.name] {
			continue
		}
		start := time.Now()
		res, err := r.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", r.name, err)
			failed = true
			continue
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", r.name, time.Since(start).Seconds(), res.Render())
	}
	if failed {
		os.Exit(1)
	}
}
