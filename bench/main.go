// Command servebench is the serving benchmark of lopramd: it builds the
// daemon from the source tree, starts it with its default flags, drives
// one workload over real HTTP from a single process holding one
// connection per client, checks every answer it samples against a direct
// run of the engine, and prints each metric as "name value unit",
// followed by a machine stamp line and one JSON result line.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh --workload ingest-tiny --seed 1 --seconds 20 --trace 0
//
// -trace 1 makes the traced run instead: the per-layer metrics, from the
// daemon's flight record and in-process probes of each layer. -runs N
// repeats the run on seeds seed..seed+N-1 and prints medians and
// quartiles. -addr targets a daemon that is already running. See
// bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "seed every input of the workload is derived from")
		seconds = flag.Float64("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
		runs    = flag.Int("runs", 1, "repeat the run on this many consecutive seeds and report medians and quartiles")
		addr    = flag.String("addr", "", `base URL of a running daemon to drive instead of building one (e.g. "http://127.0.0.1:8080"); untraced runs only`)
		root    = flag.String("root", "..", "root of the source tree that holds cmd/lopramd")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "servebench: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if (*trace != 0 && *trace != 1) || *runs < 1 || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "servebench: want -trace 0|1, -runs >= 1, -seconds > 0 and no positional arguments")
		return 2
	}
	cfg := config{seconds: *seconds, setups: 5, calibN: 30,
		probe: min(max(time.Duration(*seconds*float64(time.Second))/5, 500*time.Millisecond), 3*time.Second)}

	gated := endToEnd
	var launch launcher
	if *addr != "" {
		launch = externalLauncher(*addr)
		// Another host's daemon: its CPU time and memory are not readable.
		gated = slices.DeleteFunc(slices.Clone(endToEnd), func(d metricDef) bool {
			return strings.HasPrefix(d.name, "server_")
		})
	} else {
		out := filepath.Join(*root, ".bench_build")
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 1
		}
		bin, err := buildDaemon(*root, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 1
		}
		launch = daemonLauncher(bin, out)
	}

	var reps []*report
	for i := 0; i < *runs; i++ {
		w, err := buildWorkload(*name, *seed+uint64(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 2
		}
		var rep *report
		if *trace == 1 {
			rep, err = runTraced(cfg, w, launch)
		} else {
			rep, err = runUntraced(cfg, w, launch)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s run %d: %v\n", *name, i+1, err)
			return 1
		}
		reps = append(reps, rep)
	}

	st := machineStamp(*root)
	st.Workload, st.Seed, st.Seconds, st.Trace, st.Runs = *name, *seed, *seconds, *trace == 1, *runs
	shown := append(slices.Clone(endToEnd), ungated...)
	if *trace == 1 {
		shown, gated = perLayer, perLayer
	}
	correct, err := printReports(os.Stdout, reps, shown, gated, st)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "servebench: failed jobs or oracle mismatches (see the # lines)")
		return 1
	}
	return 0
}
