// Tailtune shows how a developer uses MUTEXEE's futex timeout to trade
// throughput for bounded tail latency (§5.1 / Figure 10). It is a thin
// CLI wrapper over the registered fig10_tail experiment — the full
// timeout × threads percentile grid runs through the parallel sweep
// engine, so the walkthrough and `lockbench -experiment fig10_tail`
// print the same table instead of maintaining two sweep
// implementations.
package main

import (
	"flag"
	"fmt"
	"os"

	"lockin/internal/bench/opts"
	"lockin/internal/experiments"
	"lockin/internal/sweep"
)

func main() {
	o := sweep.DefaultOptions()
	opts.BindRunFlags(flag.CommandLine, &o)
	flag.Parse()

	e, err := experiments.Find("fig10_tail")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n(paper: %s)\n\n", e.Title, e.Paper)
	for _, t := range e.Run(o) {
		fmt.Println(t)
	}
	fmt.Println("Shorter timeouts bound the tail (max latency ≈ the timeout) but")
	fmt.Println("surrender the unfairness that makes MUTEXEE fast (paper Figure 10).")
}
