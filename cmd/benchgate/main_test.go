package main

import (
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
BenchmarkJobQueueThroughput/workers=4-8         	     100	   5000000 ns/op	     12800 jobs/sec
BenchmarkJobQueueThroughput/workers=4-8         	     120	   4000000 ns/op	     16000 jobs/sec	     512 B/op	       8 allocs/op
BenchmarkPalrtSpawn/p=2/sched=steal             	 4244977	        85.27 ns/op	      16 B/op	       1 allocs/op
PASS
`
	got, err := parse(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Best of the two runs: 1e9/4e6 = 250 ops/sec, -cpu suffix stripped.
	tp := got["BenchmarkJobQueueThroughput/workers=4"]
	if tp == nil || tp.ops < 249.9 || tp.ops > 250.1 {
		t.Fatalf("throughput = %+v, want 250 ops/sec (best of runs)", tp)
	}
	// The -benchmem pair rides along from the best run, past the custom
	// jobs/sec metric.
	if !tp.hasMem || tp.bytes != 512 || tp.allocs != 8 {
		t.Fatalf("throughput mem stats = %+v, want 512 B/op, 8 allocs/op", tp)
	}
	sp := got["BenchmarkPalrtSpawn/p=2/sched=steal"]
	if sp == nil {
		t.Fatal("spawn benchmark not parsed")
	}
	if !sp.hasMem || sp.bytes != 16 || sp.allocs != 1 {
		t.Fatalf("spawn mem stats = %+v, want 16 B/op, 1 allocs/op", sp)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestParseRatio(t *testing.T) {
	g, err := parseRatio("Bench/mode=binary, Bench/mode=stream, 2.0")
	if err != nil {
		t.Fatal(err)
	}
	if g.num != "Bench/mode=binary" || g.den != "Bench/mode=stream" || g.min != 2 {
		t.Fatalf("parsed %+v", g)
	}
	for _, bad := range []string{"", "a,b", "a,b,c,d", "a,b,zero", "a,b,0", "a,b,-1", "a,a,2", ",b,2", "a,,2"} {
		if _, err := parseRatio(bad); err == nil {
			t.Errorf("parseRatio(%q) accepted, want error", bad)
		}
	}
}

func TestCheckRatios(t *testing.T) {
	got := map[string]*benchStat{
		"B/mode=binary": {ops: 300000},
		"B/mode=stream": {ops: 140000},
		"B/mode=single": {ops: 17000},
	}
	// 300k/140k = 2.14x: a 2.0x gate passes, a 2.5x gate fails, and a
	// gate naming an absent benchmark fails rather than passing silently.
	lines, failed := checkRatios(got, []ratioGate{
		{num: "B/mode=binary", den: "B/mode=stream", min: 2.0},
		{num: "B/mode=binary", den: "B/mode=stream", min: 2.5},
		{num: "B/mode=batch", den: "B/mode=single", min: 3.0},
	})
	if failed != 2 || len(lines) != 3 {
		t.Fatalf("failed = %d (want 2), lines:\n%s", failed, strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[0], "ok   ratio") {
		t.Errorf("passing gate line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "FAIL") || !strings.Contains(lines[1], "2.14x") {
		t.Errorf("failing gate line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "missing") {
		t.Errorf("absent benchmark line = %q", lines[2])
	}
	if lines, failed := checkRatios(got, nil); failed != 0 || len(lines) != 0 {
		t.Fatalf("no gates must produce no lines, got %d/%v", failed, lines)
	}
}

// TestBaselineMachineRoundTrip: -update stamps the baseline with the
// machine it ran on, and reading the file back yields the same machine
// and numbers. A baseline without the field loads with a nil machine.
func TestBaselineMachineRoundTrip(t *testing.T) {
	m := thisMachine()
	if m.NProc != runtime.NumCPU() || m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.GoVersion != runtime.Version() {
		t.Fatalf("thisMachine() = %+v", m)
	}
	got := map[string]*benchStat{
		"B/a": {ops: 250, bytes: 512, allocs: 8, hasMem: true},
		"B/b": {ops: 1e6},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaseline(path, newBaseline(got, m)); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Machine == nil || *b.Machine != m {
		t.Fatalf("machine read back as %v, want %v", b.Machine, &m)
	}
	if b.OpsPerSec["B/a"] != 250 || b.OpsPerSec["B/b"] != 1e6 || b.AllocsPerOp["B/a"] != 8 {
		t.Fatalf("numbers read back as %+v", b)
	}
	if want := "nproc="; !strings.Contains(b.Machine.String(), want) {
		t.Errorf("machine renders as %q", b.Machine.String())
	}

	if err := writeBaseline(path, Baseline{OpsPerSec: map[string]float64{"B/a": 1}}); err != nil {
		t.Fatal(err)
	}
	if b, err = readBaseline(path); err != nil || b.Machine != nil {
		t.Fatalf("machine-less baseline read back as %v, %v", b.Machine, err)
	}
	if s := b.Machine.String(); !strings.Contains(s, "unrecorded") {
		t.Errorf("nil machine renders as %q", s)
	}
}
