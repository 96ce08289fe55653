package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of lopramd sees, measured untraced;
// BENCHMARK.json gates each of them.
var endToEnd = []metricDef{
	{"jobs_per_sec", "jobs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"server_cpu_ms_per_kjob", "ms"},
	{"server_rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// ungated are end-to-end metrics that read 0 on a healthy run, so they
// cannot carry a relative bound: printed, never gated. A failed or
// refused job also makes the run report correct=false.
var ungated = []metricDef{
	{"slo_miss_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"wire.spec_encode_ns", "ns"},
	{"wire.spec_decode_ns", "ns"},
	{"wire.result_encode_ns", "ns"},
	{"wire.result_decode_ns", "ns"},
	{"wire.bytes_per_job", "bytes"},
	{"lopramhttp.us_per_job", "us"},
	{"lopramhttp.self_us_per_job", "us"},
	{"jobqueue.us_per_job", "us"},
	{"jobqueue.submit_ns_per_job", "ns"},
	{"jobqueue.self_us_per_job", "us"},
	{"jobqueue.hit_frac", "ratio"},
	{"jobqueue.coalesce_frac", "ratio"},
	{"jobqueue.exec_per_job", "ratio"},
	{"jobqueue.queue_wait_ms_p50", "ms"},
	{"jobqueue.queue_wait_ms_p99", "ms"},
	{"jobqueue.run_ms_p50", "ms"},
	{"jobqueue.run_ms_p99", "ms"},
	{"jobqueue.settle_lag_ms_p50", "ms"},
	{"jobqueue.settle_lag_ms_p99", "ms"},
	{"jobqueue.reject_frac", "ratio"},
	{"jobqueue.timeout_frac", "ratio"},
	{"jobqueue.mutex_wait_ms_per_kjob", "ms"},
	{"core.us_per_job", "us"},
	{"core.sim.run_us_mean", "us"},
	{"core.palrt.run_us_mean", "us"},
	{"core.pram.run_us_mean", "us"},
	{"palrt.steal_frac", "ratio"},
	{"palrt.spawn_frac", "ratio"},
	{"jobtrace.overhead_frac", "ratio"},
	{"jobtrace.dropped_frac", "ratio"},
	{"budget.e2e_us_per_job", "us"},
	{"budget.transport_us_per_job", "us"},
	{"budget.residual_frac", "ratio"},
	{"gen.cpu_ms_per_kjob", "ms"},
	{"host.calib_ms", "ms"},
}

// report is one run's metrics and what else the run observed.
type report struct {
	values     map[string]float64
	attempted  int
	failed     int
	mismatches []string
	notes      []string
	calibMS    float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// stamp records the machine and build a report came from; the shared
// host's speed (host_calib_ms) is the noise floor of every number.
type stamp struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Runs       int       `json:"runs"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	Kernel     string    `json:"kernel"`
	Commit     string    `json:"commit"`
	CalibMS    []float64 `json:"host_calib_ms"`
}

func machineStamp(root string) stamp {
	st := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(data))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	return st
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the spreads printed here are the ones a checker in Python sees.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// result is the final line's schema.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReports writes the runs' notes, one "name value unit" line per
// metric (the median and quartiles across runs when there are several),
// the stamp, and last the result line, whose metrics are the gated set.
// It reports whether every run was correct.
func printReports(out io.Writer, reps []*report, shown, gated []metricDef, st stamp) (bool, error) {
	res := result{Metrics: make(map[string]metricValue)}
	for i, r := range reps {
		for _, n := range r.notes {
			fmt.Fprintf(out, "# run %d: %s\n", i+1, n)
		}
		for _, m := range r.mismatches {
			fmt.Fprintf(out, "# run %d: oracle mismatch: %s\n", i+1, m)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed + len(r.mismatches)
		st.CalibMS = append(st.CalibMS, r.calibMS)
	}
	res.Correct = res.Failed == 0
	for _, d := range shown {
		var vals []float64
		for _, r := range reps {
			if v, ok := r.values[d.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false, fmt.Errorf("metric %s is not finite: %v", d.name, vals)
			}
		}
		q1, q2, q3 := quartiles(vals)
		if len(vals) == 1 {
			fmt.Fprintf(out, "%s %s %s\n", d.name, formatValue(q2), d.unit)
		} else {
			fmt.Fprintf(out, "%s %s %s  # quartiles %s .. %s over %d runs\n",
				d.name, formatValue(q2), d.unit, formatValue(q1), formatValue(q3), len(vals))
		}
		res.Metrics[d.name] = metricValue{q2, d.unit}
	}
	gatedOnly := make(map[string]metricValue)
	for _, d := range gated {
		v, ok := res.Metrics[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", d.name)
		}
		gatedOnly[d.name] = v
	}
	res.Metrics = gatedOnly
	sj, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		return false, err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n%s\n", sj, rj)
	return res.Correct, nil
}
