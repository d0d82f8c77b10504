// Command perfbench is LIGHTOR's end-to-end benchmark. It builds nothing
// itself (run.sh builds it and lightor-server from the checkout); it
// starts the server as a child process with a fresh durable data
// directory, drives one workload over loopback TCP from this process,
// checks every answer against a single-process reference, and prints its
// metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "live_broadcast, viewer_interactions or dot_readers")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the corpus, the model and every request body derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds: the fixed-rate phase, then the capacity phase")
	trace := flag.Int("trace", 0, "1 runs the traced in-process stack and reports per-layer metrics instead")
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/lightor-server", "lightor-server binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/runs", "working directory for data dirs and logs")
	serve := flag.String("serve", "", "internal: serve the traced stack with this data directory")
	traceOut := flag.String("trace-out", "", "internal: with -serve, write spans here at shutdown (empty = untraced)")
	addr := flag.String("addr", "", "internal: with -serve, listen address")
	flag.Parse()

	if *serve != "" {
		if err := serveTraced(*addr, *serve, cfg.seed, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *trace == 1
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.selfBin = self
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
