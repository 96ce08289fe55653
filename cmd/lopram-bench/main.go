// Command lopram-bench runs the LoPRAM reproduction suite and prints each
// experiment's regenerated table with a PASS/FAIL verdict against the
// paper's claim. The output of a full run is the body of EXPERIMENTS.md.
//
// Usage:
//
//	lopram-bench            # full suite, E1…E18 + ablations A1…A8
//	lopram-bench -exp E5    # a single experiment
//	lopram-bench -quick     # trimmed parameter sweeps
//	lopram-bench -list      # list experiment ids and titles
//	lopram-bench -jobs 8    # dispatch the suite through the job queue
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lopram/internal/experiments"
	"lopram/internal/jobqueue"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment by id (e.g. E5, A2)")
	quick := flag.Bool("quick", false, "trim parameter sweeps for a fast pass")
	list := flag.Bool("list", false, "list experiment ids")
	jobs := flag.Int("jobs", 0, "run the suite through the jobqueue dispatcher with this many workers (0 = sequential)")
	flag.Parse()

	if *list {
		for _, r := range experiments.All(true) {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	var reports []experiments.Report
	if *exp != "" {
		r, ok := experiments.ByID(*exp, *quick)
		if !ok {
			fmt.Fprintf(os.Stderr, "lopram-bench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		reports = []experiments.Report{r}
	} else if *jobs > 0 {
		// Dispatch the suite across a worker pool: the reproduction
		// suite doubling as a load test of internal/jobqueue.
		q := jobqueue.New(jobqueue.Config{Workers: *jobs, DefaultTimeout: 30 * time.Minute})
		var err error
		reports, err = experiments.QueueSuite(q, *quick)
		q.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lopram-bench: %v\n", err)
			os.Exit(1)
		}
		m := q.Snapshot()
		fmt.Printf("dispatched %d experiments over %d workers: exec p50 %.0fms p95 %.0fms\n\n",
			m.Completed, m.Workers, m.Wall.P50, m.Wall.P95)
	} else {
		reports = experiments.All(*quick)
	}

	failed := 0
	for _, r := range reports {
		fmt.Println(r.String())
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lopram-bench: %d of %d experiments FAILED\n", failed, len(reports))
		os.Exit(1)
	}
	fmt.Printf("all %d experiments PASS\n", len(reports))
}
