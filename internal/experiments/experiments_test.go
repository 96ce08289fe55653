package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"lopram/internal/jobqueue"
)

// TestAllExperimentsPass runs the complete suite in quick mode — dispatched
// through the job queue, so the reproduction suite doubles as a load test
// of the serving layer — and requires every reproduction to report PASS:
// this is the repository's end-to-end claim that the paper's results hold.
// The wall-clock experiments (wallClock: real-goroutine speedups, cost-model
// fits against measured run times) are reported, not gated: their verdicts
// depend on the host's core count and load, so they are logged with
// runtime.NumCPU and lopram-bench prints their PASS/FAIL.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	q := jobqueue.New(jobqueue.Config{Workers: 4, DefaultTimeout: 10 * time.Minute})
	defer q.Close()
	reports, err := QueueSuite(q, true)
	if err != nil {
		t.Fatalf("dispatching the suite: %v", err)
	}
	ids := SuiteIDs()
	if len(reports) != len(ids) {
		t.Fatalf("got %d reports, want %d", len(reports), len(ids))
	}
	for i, rep := range reports {
		if rep.ID != ids[i] {
			t.Errorf("report %d: id %s, want %s (order must be canonical)", i, rep.ID, ids[i])
		}
		if wallClock[rep.ID] {
			t.Logf("%s (%s) on %d CPUs, reported not gated: %s\n%s",
				rep.ID, rep.Title, runtime.NumCPU(), rep.Verdict, rep.String())
			continue
		}
		if !rep.Pass {
			t.Errorf("%s (%s) FAILED: %s\n%s", rep.ID, rep.Title, rep.Verdict, rep.String())
		}
	}
	if m := q.Snapshot(); m.Completed != int64(len(ids)) || m.Failed != 0 {
		t.Errorf("queue metrics: completed %d failed %d, want %d/0", m.Completed, m.Failed, len(ids))
	}
}

func TestReportRendering(t *testing.T) {
	rep := E9()
	out := rep.String()
	for _, want := range []string{"## E9", "PASS", "Paper claim:", "Verdict:", "| p "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	rep, ok := ByID("e9", true)
	if !ok || rep.ID != "E9" {
		t.Fatalf("ByID(e9) = %v, %v", rep.ID, ok)
	}
	if _, ok := ByID("E99", true); ok {
		t.Fatal("unknown id accepted")
	}
}

func TestFigure1ExtrasRendered(t *testing.T) {
	rep := E1()
	if !strings.Contains(rep.Extra, "[1]") || !strings.Contains(rep.Extra, "Gantt") {
		t.Fatalf("E1 extras incomplete:\n%s", rep.Extra)
	}
	if !rep.Pass {
		t.Fatalf("E1 failed: %s", rep.Verdict)
	}
}
