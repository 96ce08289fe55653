// Command lopramd is the LoPRAM simulation-job dispatch daemon: it serves
// concurrent "run algorithm A at size n with p processors on engine E"
// requests over HTTP/JSON, scheduling them across a sharded bounded
// worker pool with idle-shard work stealing, per-priority-class admission
// control and a CLOCK result cache (internal/jobqueue). See
// ARCHITECTURE.md for the layer diagram and docs/API.md for the full
// HTTP reference.
//
// Serve mode (default). -classes replaces the default interactive/batch
// priority pair with an arbitrary weighted class set (strict classes
// drain first; weighted classes share dequeues in proportion to weight);
// -shards is only the starting shard count — the placement table resizes
// live via POST /v1/resize, or continuously when -autoscale enables the
// contention-driven controller:
//
//	lopramd -addr :8080 -workers 8 -shards 4
//	lopramd -classes gold:strict:1,silver:2:0.5,bronze:1:0.25
//	lopramd -autoscale 1:8            # grow/shrink shards between 1 and 8
//	lopramd -autoscale 1:8:100ms:4:0.5
//
// -dequeue-policy and -admission-policy swap the queue's decision layer
// (default, fcfs, sjf, edf / default, token-bucket[:RATE[:BURST]]); the
// defaults are byte-identical to the pre-policy daemon:
//
//	lopramd -dequeue-policy sjf -admission-policy token-bucket:64:16
//
// -pprof starts a second, debug-only HTTP listener serving the standard
// net/http/pprof surface (profiles stay off the public API port). With
// -mutex-profile-fraction and -block-profile-rate the runtime samples
// lock contention and blocking, which is how the queue's completion path
// is profiled under load; /v1/metrics reports the cumulative
// runtime_mutex_wait_seconds either way:
//
//	lopramd -pprof localhost:6060 -mutex-profile-fraction 100
//	go tool pprof http://localhost:6060/debug/pprof/mutex
//
//	POST /v1/jobs               {"algorithm":"mergesort","n":65536,"engine":"sim","seed":7}
//	                            ?wait=1 blocks until the job settles
//	POST /v1/jobs:batch         a JSON array of specs through the pooled
//	                            batch ingest path; answers with one
//	                            result array once every job settles
//	POST /v1/jobs:stream        persistent NDJSON submit connection: one
//	                            spec per line in, one indexed result
//	                            line out (micro-batched)
//	GET  /v1/jobs/{id}          job status + result; ?wait=1 blocks until done
//	GET  /v1/jobs?limit=50      recent jobs, newest first
//	POST /v1/resize             {"shards":4} — live placement-table resize
//	GET  /v1/algorithms         the catalogue: algorithm → supported engines
//	GET  /v1/classes            the configured priority-class set
//	                            (name, weight, quota, default deadline)
//	GET  /v1/policies           the active dequeue/admission policies and
//	                            the available policy names
//	GET  /v1/scenarios          the built-in load-scenario catalogue
//	GET  /v1/scenarios/{name}   one scenario's full declarative spec
//	POST /v1/scenarios/{name}/run  execute a builtin against a sandboxed
//	                            queue, streaming NDJSON progress +
//	                            final report (?trace=1 adds per-job
//	                            completion records, ?jobs=N caps the
//	                            stream, ?progress_ms=N the interval)
//	POST /v1/scenarios/run      the same for a posted scenario spec
//	GET  /v1/metrics            serving statistics (placement epoch,
//	                            per-shard table, per-class latency
//	                            percentiles, hit rate, per-shard steals,
//	                            palrt work-stealing scheduler counters)
//	GET  /healthz               liveness
//
// Every error response is the uniform JSON envelope {"error": <message>,
// "code": <machine-readable code>} — see docs/API.md for the code table.
//
// -trace-out attaches the flight recorder in serve or scenario mode:
// every job the queue settles or refuses appends one JSONL completion
// record (see internal/jobtrace) to the file, and cmd/tracediff
// compares two such traces as a replay A/B gate:
//
//	lopramd -scenario cache-friendly-repeat -trace-out head.jsonl
//
// Scenario mode replays a declarative load scenario (a built-in name or a
// JSON spec file) through a fresh queue and prints the serving report
// with per-priority-class latency percentiles — the load-test harness:
//
//	lopramd -scenario priority-inversion-probe
//	lopramd -scenario all-engines-sweep              # whole catalogue, all engines
//	lopramd -scenario my-traffic.json -workers 8 -shards 4
//	lopramd -list-scenarios
//
// A scenario spec file sets its own seed, mix and duplicate fraction, so
// ad-hoc smoke loads are scenario files too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
	"lopram/internal/lopramhttp"
	"lopram/internal/scenario"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "serve mode: HTTP listen address")
		workers    = flag.Int("workers", 0, "total worker count across shards (0 = one per hardware core)")
		shards     = flag.Int("shards", 0, "queue shards (0 = 1; placement is by spec-key hash)")
		queueDepth = flag.Int("queue-depth", 1024, "base admission capacity across all shards (each priority class rides in its own quota×depth lane)")
		batchShare = flag.Float64("batch-share", 0.5, "admission quota of the default class set's batch lane, as a fraction of -queue-depth (ignored when -classes is set)")
		classesCSV = flag.String("classes", "", `priority classes as name:weight[:quota],... — weight "strict" or an integer (dequeue share), quota in (0,1] (admission lane fraction, default 1); empty keeps the default interactive:strict:1,batch:1:<batch-share>`)
		cacheSize  = flag.Int("cache", 512, "result cache entries across all shards, evicted by CLOCK, an approximate LRU (-1 disables)")
		timeout    = flag.Duration("timeout", 60*time.Second, "default per-job deadline")
		autoscaleS = flag.String("autoscale", "", `serve mode: contention-driven shard autoscaling as min:max[:interval[:high[:low]]] (e.g. "1:8" or "1:8:250ms:4:0.5"); empty keeps the shard count fixed unless POST /v1/resize moves it`)
		deqPolicy  = flag.String("dequeue-policy", "", `dequeue policy: default (strict-then-DWRR), fcfs, sjf (predicted-cost shortest job first) or edf (earliest deadline first); empty keeps the default`)
		admPolicy  = flag.String("admission-policy", "", `admission policy: default (static lane quotas) or token-bucket[:RATE[:BURST]] (per-class rate limit + deadline-infeasibility shedding); empty keeps the default`)
		scenarioID = flag.String("scenario", "", "scenario mode: replay a built-in scenario by name, or a JSON spec file by path, and exit")
		listScen   = flag.Bool("list-scenarios", false, "print the built-in scenario catalogue and exit")
		traceOut   = flag.String("trace-out", "", "attach the flight recorder and write one JSONL completion record per job to this file (serve and scenario modes)")
		pprofAddr  = flag.String("pprof", "", `debug listen address for net/http/pprof (e.g. "localhost:6060"); empty disables the profiling listener (all modes)`)
		mutexFrac  = flag.Int("mutex-profile-fraction", 0, "sample 1/N of mutex contention events for /debug/pprof/mutex (runtime.SetMutexProfileFraction; 0 keeps sampling off)")
		blockRate  = flag.Int("block-profile-rate", 0, "sample blocking events of at least N ns for /debug/pprof/block (runtime.SetBlockProfileRate; 0 keeps sampling off)")
	)
	flag.Parse()
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	cfg := jobqueue.Config{
		Workers:        *workers,
		Shards:         *shards,
		QueueDepth:     *queueDepth,
		BatchShare:     *batchShare,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
	}
	if *classesCSV != "" {
		classes, err := jobqueue.ParseClassSet(*classesCSV)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lopramd: -classes: %v\n", err)
			os.Exit(2)
		}
		cfg.Classes = classes
	}
	if *autoscaleS != "" {
		auto, err := parseAutoscale(*autoscaleS)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lopramd: -autoscale: %v\n", err)
			os.Exit(2)
		}
		cfg.Autoscale = auto
	}
	// Validate the policy names here so a typo is a clean exit-2 usage
	// error listing the valid names, not a New panic later.
	if _, err := jobqueue.ParseDequeuePolicy(*deqPolicy); err != nil {
		fmt.Fprintf(os.Stderr, "lopramd: -dequeue-policy: %v\n", err)
		os.Exit(2)
	}
	if _, err := jobqueue.ParseAdmissionPolicy(*admPolicy); err != nil {
		fmt.Fprintf(os.Stderr, "lopramd: -admission-policy: %v\n", err)
		os.Exit(2)
	}
	cfg.Policies = jobqueue.Policies{Dequeue: *deqPolicy, Admission: *admPolicy}
	// Profiling rates apply with or without the listener (a later SIGQUIT
	// dump or an attached debugger still sees the samples).
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("lopramd: pprof debug listener on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, newDebugMux()); err != nil {
				log.Printf("lopramd: pprof listener: %v", err)
			}
		}()
	}
	// closeTrace flushes and closes the -trace-out file; called after
	// the queue is closed (the mode helpers close it on return), which
	// is when the recorder has drained every record into the writer.
	closeTrace := func() {}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lopramd: -trace-out: %v\n", err)
			os.Exit(2)
		}
		tw := jobtrace.NewWriter(f)
		cfg.TraceSink = tw
		closeTrace = func() {
			err := tw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "lopramd: writing trace %s: %v\n", *traceOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "lopramd: trace: %d records -> %s\n", tw.Count(), *traceOut)
		}
	}

	switch {
	case *listScen:
		for _, sp := range scenario.Builtins() {
			fmt.Printf("%-26s %4d jobs, %-6s arrival  %s\n", sp.Name, sp.Jobs, arrivalOf(sp), sp.Description)
		}
		return
	case *scenarioID != "":
		if err := runScenario(cfg, setFlags, *scenarioID); err != nil {
			fmt.Fprintf(os.Stderr, "lopramd: %v\n", err)
			os.Exit(1)
		}
		closeTrace()
		return
	}
	err := serve(cfg, *addr)
	closeTrace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lopramd: %v\n", err)
		os.Exit(1)
	}
}

func arrivalOf(sp scenario.Spec) string {
	if sp.Arrival == "" {
		return scenario.ArrivalClosed
	}
	return sp.Arrival
}

// parseAutoscale parses the -autoscale flag: "min:max" with optional
// ":interval" (a Go duration) and ":high:low" contention thresholds, all
// defaulting as documented on jobqueue.AutoscaleConfig.
func parseAutoscale(s string) (*jobqueue.AutoscaleConfig, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 2 || len(fields) > 5 || len(fields) == 4 {
		return nil, fmt.Errorf("%q: want min:max[:interval[:high:low]]", s)
	}
	var cfg jobqueue.AutoscaleConfig
	var err error
	if cfg.Min, err = strconv.Atoi(strings.TrimSpace(fields[0])); err != nil {
		return nil, fmt.Errorf("min %q is not an integer", fields[0])
	}
	if cfg.Max, err = strconv.Atoi(strings.TrimSpace(fields[1])); err != nil {
		return nil, fmt.Errorf("max %q is not an integer", fields[1])
	}
	if len(fields) >= 3 {
		if cfg.Interval, err = time.ParseDuration(strings.TrimSpace(fields[2])); err != nil {
			return nil, fmt.Errorf("interval %q is not a duration", fields[2])
		}
	}
	if len(fields) == 5 {
		if cfg.ImbalanceHigh, err = strconv.ParseFloat(strings.TrimSpace(fields[3]), 64); err != nil {
			return nil, fmt.Errorf("high threshold %q is not a number", fields[3])
		}
		if cfg.ImbalanceLow, err = strconv.ParseFloat(strings.TrimSpace(fields[4]), 64); err != nil {
			return nil, fmt.Errorf("low threshold %q is not a number", fields[4])
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// ---- scenario mode ----

// loadScenario resolves the -scenario argument: a built-in name first,
// else a path to a JSON spec file.
func loadScenario(nameOrPath string) (scenario.Spec, error) {
	if sp, ok := scenario.Builtin(nameOrPath); ok {
		return sp, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		var names []string
		for _, sp := range scenario.Builtins() {
			names = append(names, sp.Name)
		}
		return scenario.Spec{}, fmt.Errorf("%q is neither a built-in scenario (%s) nor a readable spec file: %v",
			nameOrPath, strings.Join(names, ", "), err)
	}
	var sp scenario.Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return scenario.Spec{}, fmt.Errorf("parsing scenario file %s: %w", nameOrPath, err)
	}
	if err := sp.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return sp, nil
}

// runScenario replays one scenario on a fresh queue and prints the
// serving report. Queue shape precedence: explicit command-line flags,
// then the scenario's own shard/worker targets, then defaults.
func runScenario(flagCfg jobqueue.Config, setFlags map[string]bool, nameOrPath string) error {
	sp, err := loadScenario(nameOrPath)
	if err != nil {
		return err
	}
	cfg := scenario.QueueConfig(sp)
	// The flight recorder rides along whatever queue shape wins: the
	// -trace-out sink is not a shape flag, it always applies.
	cfg.TraceSink = flagCfg.TraceSink
	cfg.TraceBuffer = flagCfg.TraceBuffer
	if setFlags["workers"] {
		cfg.Workers = flagCfg.Workers
	}
	if setFlags["shards"] {
		cfg.Shards = flagCfg.Shards
	}
	if setFlags["queue-depth"] {
		cfg.QueueDepth = flagCfg.QueueDepth
	}
	if setFlags["batch-share"] {
		cfg.BatchShare = flagCfg.BatchShare
	}
	if setFlags["classes"] {
		// Explicit flags win over the scenario's own class set; a mix
		// pinned to classes the override lacks fails loudly at submit.
		cfg.Classes = flagCfg.Classes
	}
	if setFlags["cache"] {
		cfg.CacheSize = flagCfg.CacheSize
	}
	if setFlags["timeout"] {
		cfg.DefaultTimeout = flagCfg.DefaultTimeout
	}
	if setFlags["dequeue-policy"] {
		cfg.Policies.Dequeue = flagCfg.Policies.Dequeue
	}
	if setFlags["admission-policy"] {
		cfg.Policies.Admission = flagCfg.Policies.Admission
	}
	q := jobqueue.New(cfg)
	defer q.Close()
	rep, err := scenario.Run(context.Background(), q, sp)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	m := q.Snapshot()
	fmt.Printf("  queue: %d workers × %d shards · palrt scheduler: spawned %d (stolen %d) · inlined %d\n",
		m.Workers, m.Shards, m.Scheduler.Spawned, m.Scheduler.Stolen, m.Scheduler.Inlined)
	return nil
}

// ---- serve mode ----

func serve(cfg jobqueue.Config, addr string) error {
	q := jobqueue.New(cfg)
	defer q.Close()
	mux := newMux(q)

	srv := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("lopramd: serving on %s (%d workers)", addr, q.Snapshot().Workers)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-stop:
		log.Printf("lopramd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// newMux builds the daemon's HTTP surface over one queue: the handler
// set lives in internal/lopramhttp so it is testable (and fuzzable)
// without the daemon's flag plumbing or a bound listener.
func newMux(q *jobqueue.Queue) *http.ServeMux { return lopramhttp.NewMux(q) }

// newDebugMux builds the -pprof listener's handler: the standard
// net/http/pprof surface mounted explicitly on a fresh mux, so the
// profiling endpoints never leak onto the public API listener (importing
// net/http/pprof for side effects would register them on
// http.DefaultServeMux, which nothing here serves).
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
