package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
	"lopram/internal/lopramhttp"
)

// inProcessLauncher serves lopramhttp over a queue configured like
// lopramd's defaults inside the test process, so the test needs no
// daemon binary; a traced server writes its flight record into dir.
func inProcessLauncher(dir string) launcher {
	return func(traced bool) (*server, error) {
		cfg := lopramdDefaults()
		srv := &server{pid: os.Getpid()}
		var (
			f  *os.File
			tw *jobtrace.Writer
		)
		if traced {
			srv.tracePath = filepath.Join(dir, "trace.jsonl")
			var err error
			if f, err = os.Create(srv.tracePath); err != nil {
				return nil, err
			}
			tw = jobtrace.NewWriter(f)
			cfg.TraceSink = tw
		}
		q := jobqueue.New(cfg)
		hs := httptest.NewServer(lopramhttp.NewMux(q))
		srv.base = hs.URL
		srv.stop = func() error {
			hs.Close()
			q.Close()
			if tw == nil {
				return nil
			}
			err := tw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
		return srv, nil
	}
}

// benchmarkFile is the part of BENCHMARK.json the test compares with.
type benchmarkFile struct {
	Workloads []entry `json:"workloads"`
	EndToEnd  []entry `json:"end_to_end"`
	PerLayer  []entry `json:"per_layer"`
}

type entry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func namesOf[T any](xs []T, name func(T) string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, name(x))
	}
	return out
}

// TestWorkloadsReportEveryMetric runs every workload briefly against an
// in-process server, untraced and traced, and checks that each run emits
// every metric BENCHMARK.json names with a finite value, fails no job and
// meets no oracle mismatch.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	byName := func(e entry) string { return e.Name + " " + e.Unit }
	byDef := func(d metricDef) string { return d.name + " " + d.unit }
	if got, want := namesOf(bf.EndToEnd, byName), namesOf(endToEnd, byDef); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json end_to_end = %v, the benchmark reports %v", got, want)
	}
	if got, want := namesOf(bf.PerLayer, byName), namesOf(perLayer, byDef); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json per_layer = %v, the benchmark reports %v", got, want)
	}
	if got := namesOf(bf.Workloads, func(e entry) string { return e.Name }); !slices.Equal(got, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads = %v, the benchmark runs %v", got, workloadNames)
	}

	cfg := config{seconds: 0.2, setups: 2, probe: 50 * time.Millisecond, calibN: 1}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			launch := inProcessLauncher(t.TempDir())
			for _, traced := range []bool{false, true} {
				run, want := runUntraced, endToEnd
				if traced {
					run, want = runTraced, perLayer
				}
				rep, err := run(cfg, w, launch)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.failed != 0 || len(rep.mismatches) != 0 {
					t.Errorf("traced=%v: %d failed jobs, oracle mismatches %v; notes %v", traced, rep.failed, rep.mismatches, rep.notes)
				}
				for _, d := range want {
					v, ok := rep.values[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s = %v (reported: %v)", traced, d.name, v, ok)
					}
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // extrapolates beyond the data, as Python does
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
