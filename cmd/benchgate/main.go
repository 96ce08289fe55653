// Command benchgate is the benchmark-regression gate the CI bench job runs:
// it parses `go test -bench` output, compares selected benchmarks against a
// committed baseline (BENCH_BASELINE.json), and exits non-zero when
// throughput regressed beyond the tolerance — a benchstat-style comparison
// with a pass/fail verdict instead of a table.
//
// Gate a bench run (fails on >20% ops/sec regression by default; the
// default -match gates both dispatch matrices, BenchmarkJobQueueThroughput
// and BenchmarkJobQueueClasses, plus the CacheHit and Settle completion
// benchmarks — every BenchmarkJobQueue* family):
//
//	go test -run='^$' -bench=BenchmarkJobQueue -benchmem -count=3 . | \
//	    go run ./cmd/benchgate -baseline BENCH_BASELINE.json
//
// Refresh the baseline on the machine class that runs the gate:
//
//	go test -run='^$' -bench=BenchmarkJobQueue -benchmem -count=3 . | \
//	    go run ./cmd/benchgate -baseline BENCH_BASELINE.json -update
//
// The baseline records the machine it was made on (CPU count,
// GOMAXPROCS, Go version: benchgate's own, which are the bench run's
// when the output is piped straight in), and a gate run prints it beside
// the machine it is gating on.
//
// Same-machine A/B (immune to machine-class skew — CI uses this for pull
// requests, benching the merge-base in a worktree and the head in place;
// benchmarks missing from the baseline run are reported, not gated):
//
//	go test -run='^$' -bench=BenchmarkJobQueue -benchmem -count=3 . > head.txt   # on HEAD
//	go run ./cmd/benchgate -baseline-bench base.txt < head.txt
//
// With -count > 1 the gate scores each benchmark by its best run (max
// ops/sec), which filters scheduler noise the way benchstat's median does
// for larger sample counts. When the run was made with -benchmem, B/op and
// allocs/op from the best run ride along in the baseline and the report —
// informational (the pass/fail verdict is ops/sec only), so allocation
// regressions are visible in the CI artifact without flaking the gate.
//
// -min-ratio "num,den,min" (repeatable) gates a relationship within the
// head run itself: benchmark num's ops/sec must be at least min times
// benchmark den's. Both sides come from the same process on the same
// machine in the same run, so the gate is immune to machine-class skew —
// it pins speedup claims ("binary wire must stay 2x the NDJSON stream,
// batch ingest 3x single-shot") rather than absolute numbers:
//
//	go run ./cmd/benchgate -baseline BENCH_BASELINE.json \
//	    -min-ratio 'BenchmarkJobQueueHTTPJobsPerSec/mode=binary,BenchmarkJobQueueHTTPJobsPerSec/mode=stream,2.0' \
//	    -min-ratio 'BenchmarkJobQueueHTTPJobsPerSec/mode=batch,BenchmarkJobQueueHTTPJobsPerSec/mode=single,3.0' < head.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference: best-run ops/sec per benchmark, plus
// the environment it was recorded on (informational).
type Baseline struct {
	// Note describes where the numbers came from.
	Note string `json:"note,omitempty"`
	// Machine is the host the numbers were recorded on; nil in baselines
	// that predate the field.
	Machine *Machine `json:"machine,omitempty"`
	// OpsPerSec maps full benchmark names (including sub-benchmarks, with
	// the -cpu suffix stripped) to their best observed ops/sec.
	OpsPerSec map[string]float64 `json:"ops_per_sec"`
	// BytesPerOp and AllocsPerOp carry the -benchmem numbers from each
	// benchmark's best run, when the recording run captured them.
	// Informational: the gate's verdict is ops/sec only.
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// Machine identifies a benchmarking host. Numbers from different
// machines are not comparable, so the gate shows both sides.
type Machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// thisMachine describes the host benchgate runs on.
func thisMachine() Machine {
	return Machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func (m *Machine) String() string {
	if m == nil {
		return "an unrecorded machine"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s", m.NProc, m.GOMAXPROCS, m.GoVersion)
}

// newBaseline turns a parsed run on machine m into the baseline -update
// writes.
func newBaseline(got map[string]*benchStat, m Machine) Baseline {
	b := Baseline{
		Note:      "best-run ops/sec per benchmark on the machine below; an absolute floor only - the sensitive regression signal is CI's same-machine merge-base comparison; refresh with cmd/benchgate -update from the gating machine class",
		Machine:   &m,
		OpsPerSec: make(map[string]float64, len(got)),
	}
	for name, st := range got {
		b.OpsPerSec[name] = st.ops
		if st.hasMem {
			if b.BytesPerOp == nil {
				b.BytesPerOp = make(map[string]float64)
				b.AllocsPerOp = make(map[string]float64)
			}
			b.BytesPerOp[name] = st.bytes
			b.AllocsPerOp[name] = st.allocs
		}
	}
	return b
}

// writeBaseline and readBaseline store and load a baseline file.
func writeBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("bad baseline: %w", err)
	}
	return b, nil
}

// benchStat is one benchmark's best observed run.
type benchStat struct {
	ops           float64 // ops/sec, derived from ns/op
	bytes, allocs float64 // -benchmem B/op and allocs/op of the best run
	hasMem        bool
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName/sub=1-8   1234   56789 ns/op   2 MB/s ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+)\s+ns/op`)

// memStats matches the -benchmem tail of a result line. go test appends
// the pair after every custom metric, so anchoring on the unit names is
// robust against ReportMetric columns in between.
var memStats = regexp.MustCompile(`([0-9.eE+]+)\s+B/op\s+([0-9.eE+]+)\s+allocs/op`)

func parse(r io.Reader, echo io.Writer) (map[string]*benchStat, error) {
	best := make(map[string]*benchStat)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line) // pass the raw log through for the CI transcript
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		nsPerOp, err := strconv.ParseFloat(m[3], 64)
		if err != nil || nsPerOp <= 0 {
			continue
		}
		st := &benchStat{ops: 1e9 / nsPerOp}
		if mm := memStats.FindStringSubmatch(line); mm != nil {
			if st.bytes, err = strconv.ParseFloat(mm[1], 64); err == nil {
				if st.allocs, err = strconv.ParseFloat(mm[2], 64); err == nil {
					st.hasMem = true
				}
			}
		}
		if prev, ok := best[m[1]]; !ok || st.ops > prev.ops {
			best[m[1]] = st
		}
	}
	return best, sc.Err()
}

// ratioGate is one -min-ratio constraint: the num benchmark's ops/sec must
// be at least min times the den benchmark's, both taken from the head run.
type ratioGate struct {
	num, den string
	min      float64
}

// parseRatio parses one -min-ratio value, "num,den,min". Benchmark names
// never contain commas (slashes and = only), so a plain split is exact.
func parseRatio(s string) (ratioGate, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return ratioGate{}, fmt.Errorf(`want "numBench,denBench,minRatio", got %q`, s)
	}
	g := ratioGate{num: strings.TrimSpace(parts[0]), den: strings.TrimSpace(parts[1])}
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || min <= 0 {
		return ratioGate{}, fmt.Errorf("min ratio must be a positive number, got %q", parts[2])
	}
	if g.num == "" || g.den == "" || g.num == g.den {
		return ratioGate{}, fmt.Errorf("need two distinct benchmark names, got %q", s)
	}
	g.min = min
	return g, nil
}

// checkRatios evaluates every -min-ratio gate against the head run and
// returns one report line per gate; failures are the lines prefixed FAIL.
func checkRatios(got map[string]*benchStat, gates []ratioGate) (lines []string, failed int) {
	for _, g := range gates {
		num, den := got[g.num], got[g.den]
		switch {
		case num == nil || den == nil:
			missing := g.num
			if num != nil {
				missing = g.den
			}
			failed++
			lines = append(lines, fmt.Sprintf("FAIL ratio %s / %s: benchmark %s missing from the run", g.num, g.den, missing))
		case num.ops < g.min*den.ops:
			failed++
			lines = append(lines, fmt.Sprintf("FAIL ratio %s / %s = %.2fx, want >= %.2fx (%.1f vs %.1f ops/sec)",
				g.num, g.den, num.ops/den.ops, g.min, num.ops, den.ops))
		default:
			lines = append(lines, fmt.Sprintf("ok   ratio %s / %s = %.2fx (>= %.2fx)",
				g.num, g.den, num.ops/den.ops, g.min))
		}
	}
	return lines, failed
}

// memColumn renders a benchmark's -benchmem numbers for the report, empty
// when the run did not capture them.
func memColumn(st *benchStat) string {
	if !st.hasMem {
		return ""
	}
	return fmt.Sprintf("  [%.0f B/op %.0f allocs/op]", st.bytes, st.allocs)
}

func main() {
	var (
		baselinePath  = flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (or write with -update)")
		baselineBench = flag.String("baseline-bench", "", "compare against raw `go test -bench` output in this file instead of the JSON baseline — for same-machine A/B runs (e.g. merge-base vs head in one CI job)")
		match         = flag.String("match", "BenchmarkJobQueue", "only gate benchmarks whose name contains this substring (default covers the dispatch, cache-hit and settle matrices); others are reported informationally")
		tolerance     = flag.Float64("tolerance", 0.20, "maximum allowed fractional ops/sec regression before failing")
		update        = flag.Bool("update", false, "write the observed numbers as the new baseline instead of gating")
	)
	var ratios []ratioGate
	flag.Func("min-ratio", `gate benchmark "num,den,min": num's ops/sec must be at least min times den's within this run (repeatable)`, func(s string) error {
		g, err := parseRatio(s)
		if err != nil {
			return err
		}
		ratios = append(ratios, g)
		return nil
	})
	flag.Parse()

	got, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading bench output: %v\n", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(2)
	}
	// Ratio gates compare within the observed run, independent of any
	// baseline — they hold in -update mode too, so a baseline that breaks
	// a pinned speedup claim can never be recorded.
	ratioLines, ratioFailed := checkRatios(got, ratios)

	if *update {
		m := thisMachine()
		if err := writeBaseline(*baselinePath, newBaseline(got, m)); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks recorded on %s to %s\n", len(got), &m, *baselinePath)
		for _, line := range ratioLines {
			fmt.Printf("benchgate: %s\n", line)
		}
		if ratioFailed > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %d ratio gate(s) failed on the recording run\n", ratioFailed)
			os.Exit(1)
		}
		return
	}

	var base Baseline
	if *baselineBench != "" {
		f, err := os.Open(*baselineBench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		baseStats, err := parse(f, io.Discard)
		f.Close()
		if err != nil || len(baseStats) == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: no benchmark results in %s (err=%v)\n", *baselineBench, err)
			os.Exit(2)
		}
		base.OpsPerSec = make(map[string]float64, len(baseStats))
		for name, st := range baseStats {
			base.OpsPerSec[name] = st.ops
		}
	} else {
		if base, err = readBaseline(*baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v (run with -update to create it)\n", err)
			os.Exit(2)
		}
		here := thisMachine()
		fmt.Printf("benchgate: baseline recorded on %s; gating on %s\n", base.Machine, &here)
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		ref, ok := base.OpsPerSec[name]
		gated := strings.Contains(name, *match)
		mem := memColumn(got[name])
		switch {
		case !ok:
			fmt.Printf("benchgate: %-60s %12.1f ops/sec (no baseline)%s\n", name, got[name].ops, mem)
		case !gated:
			fmt.Printf("benchgate: %-60s %12.1f ops/sec vs %.1f (info only, %+.1f%%)%s\n",
				name, got[name].ops, ref, 100*(got[name].ops-ref)/ref, mem)
		case got[name].ops < ref*(1-*tolerance):
			failed++
			fmt.Printf("benchgate: FAIL %-55s %12.1f ops/sec vs baseline %.1f (%.1f%% below, tolerance %.0f%%)%s\n",
				name, got[name].ops, ref, 100*(ref-got[name].ops)/ref, 100**tolerance, mem)
		default:
			fmt.Printf("benchgate: ok   %-55s %12.1f ops/sec vs baseline %.1f (%+.1f%%)%s\n",
				name, got[name].ops, ref, 100*(got[name].ops-ref)/ref, mem)
		}
	}
	for _, line := range ratioLines {
		fmt.Printf("benchgate: %s\n", line)
	}
	if failed > 0 || ratioFailed > 0 {
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed more than %.0f%%\n", failed, 100**tolerance)
		}
		if ratioFailed > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %d ratio gate(s) failed\n", ratioFailed)
		}
		os.Exit(1)
	}
}
