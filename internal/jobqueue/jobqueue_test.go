package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobtrace"
	"lopram/internal/workload"
)

// testSpecs returns a deterministic 100-job mixed workload: ≥3 algorithms
// × all three engines, with duplicates so the cache and coalescer see
// traffic. Sizes are kept small so the suite stays fast under -race.
func testSpecs() []Spec {
	r := workload.NewRNG(99)
	type pair struct {
		algo   string
		engine core.Engine
		maxN   int
	}
	pairs := []pair{
		{"mergesort", core.EngineSim, 4096},
		{"mergesort", core.EnginePalrt, 4096},
		{"mergesort", core.EnginePRAM, 1024},
		{"editdistance", core.EngineSim, 48},
		{"editdistance", core.EnginePalrt, 48},
		{"matrixchain", core.EngineSim, 24},
		{"matrixchain", core.EnginePalrt, 24},
		{"reduce", core.EngineSim, 4096},
		{"reduce", core.EnginePalrt, 4096},
		{"reduce", core.EnginePRAM, 1024},
		{"maxsubarray", core.EnginePalrt, 4096},
		{"prefixsums", core.EnginePRAM, 1024},
	}
	weights := make([]int, len(pairs))
	for i := range weights {
		weights[i] = 1
	}
	specs := make([]Spec, 0, 100)
	for len(specs) < 100 {
		if len(specs) > 0 && r.Float64() < 0.3 {
			specs = append(specs, specs[r.Intn(len(specs))])
			continue
		}
		p := pairs[workload.Choice(r, weights)]
		specs = append(specs, Spec{
			Algorithm: p.algo,
			N:         workload.LogUniform(r, 8, p.maxN),
			Engine:    p.engine,
			Seed:      r.Uint64() % 4,
		})
	}
	return specs
}

// TestEndToEnd is the e2e acceptance test: submit 100 mixed jobs, assert
// all complete, duplicates are served without re-execution, and the
// metrics add up. Run it with -race.
func TestEndToEnd(t *testing.T) {
	q := New(Config{Workers: 4, QueueDepth: 256, DefaultTimeout: 2 * time.Minute})
	defer q.Close()

	specs := testSpecs()
	var wg sync.WaitGroup
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatalf("submit %v: %v", spec, err)
		}
		wg.Add(1)
		go func(i int, job *Job) {
			defer wg.Done()
			results[i], errs[i] = job.Wait(context.Background())
		}(i, job)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d (%v) failed: %v", i, specs[i], err)
		}
	}

	// Identical specs must produce identical outcomes, however they were
	// served (executed, coalesced, or cached).
	byKey := make(map[Key]core.Outcome)
	for i, spec := range specs {
		key := spec.key()
		if prev, ok := byKey[key]; ok {
			if prev != results[i].Outcome {
				t.Errorf("spec %v: outcome diverged between duplicates: %+v vs %+v", spec, prev, results[i].Outcome)
			}
		} else {
			byKey[key] = results[i].Outcome
		}
	}

	m := q.Snapshot()
	if m.Submitted+m.Coalesced != int64(len(specs)) {
		t.Errorf("submitted %d + coalesced %d != %d requests", m.Submitted, m.Coalesced, len(specs))
	}
	if m.Failed != 0 || m.Timeouts != 0 || m.Rejected != 0 {
		t.Errorf("unexpected failures=%d timeouts=%d rejected=%d", m.Failed, m.Timeouts, m.Rejected)
	}
	dups := int64(len(specs) - len(byKey))
	if m.CacheHits+m.Coalesced != dups {
		t.Errorf("cache hits %d + coalesced %d != %d duplicate requests", m.CacheHits, m.Coalesced, dups)
	}
	if m.Completed != int64(len(byKey)) {
		t.Errorf("executed %d jobs, want %d (one per distinct key)", m.Completed, len(byKey))
	}
	if dups > 0 && m.HitRate == 0 {
		t.Errorf("hit rate 0 despite %d duplicate requests", dups)
	}
	if m.Wall.Count == 0 || m.Wall.P99 < m.Wall.P50 {
		t.Errorf("implausible wall summary: %+v", m.Wall)
	}
}

// TestCrossEngineAgreement: the sim and palrt engines must report the same
// scalar answer for the same (algorithm, n, seed) — the DP specs derive
// identical inputs from the seed.
func TestCrossEngineAgreement(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close()
	for _, algo := range []string{"editdistance", "lcs", "matrixchain"} {
		simJob, err := q.Submit(Spec{Algorithm: algo, N: 40, Engine: core.EngineSim, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		palJob, err := q.Submit(Spec{Algorithm: algo, N: 40, Engine: core.EnginePalrt, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		simRes, err := simJob.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s/sim: %v", algo, err)
		}
		palRes, err := palJob.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s/palrt: %v", algo, err)
		}
		if simRes.Value != palRes.Value {
			t.Errorf("%s: sim value %d != palrt value %d", algo, simRes.Value, palRes.Value)
		}
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	spec := Spec{Algorithm: "mergesort", N: 1024, Engine: core.EngineSim, Seed: 3}

	first, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached {
		t.Fatal("first run reported cached")
	}

	second, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("resubmitted spec was not served from cache")
	}
	if res1.Outcome != res2.Outcome {
		t.Fatalf("cached outcome %+v != original %+v", res2.Outcome, res1.Outcome)
	}
	if m := q.Snapshot(); m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", m.CacheHits)
	}
}

func TestCoalescingSharesOneRun(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()

	// Block the single worker so duplicates pile up behind one in-flight
	// key.
	release := make(chan struct{})
	blocker, err := q.SubmitFunc("blocker", func(context.Context) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Algorithm: "reduce", N: 512, Engine: core.EngineSim, Seed: 1}
	a, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate is its own job, chained onto the in-flight one: a
	// distinct ID, queryable by Get like any admitted job.
	if a == b || a.ID == b.ID {
		t.Fatal("coalesced submit returned the in-flight job instead of its own")
	}
	if got, ok := q.Get(b.ID); !ok || got != b {
		t.Fatal("coalesced job not retained for Get")
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	resA, err := a.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resA != resB {
		t.Fatalf("coalesced result %+v != winner's %+v", resB, resA)
	}
	m := q.Snapshot()
	if m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
	// One run for the spec (plus the blocker func).
	if m.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (the spec ran once)", m.Completed)
	}
	if v := b.View(); v.RunMS != 0 || v.Status != StatusDone {
		t.Fatalf("coalesced view: status %v run_ms %v, want done with zero run time", v.Status, v.RunMS)
	}
}

func TestAdmissionControl(t *testing.T) {
	q := New(Config{Workers: 1, QueueDepth: 1})
	defer q.Close()

	// Invalid specs are rejected outright.
	bad := []Spec{
		{Algorithm: "nope", N: 16, Engine: core.EngineSim},
		{Algorithm: "mergesort", N: 16, Engine: "gpu"},
		{Algorithm: "mergesort", N: 0, Engine: core.EngineSim},
		{Algorithm: "mergesort", N: 1 << 20, Engine: core.EnginePRAM}, // over the engine's maxN
		{Algorithm: "quicksort", N: 16, Engine: core.EngineSim},       // unsupported engine for algo
		{Algorithm: "mergesort", N: 16, P: core.MaxProcs + 1, Engine: core.EngineSim},
	}
	for _, spec := range bad {
		if _, err := q.Submit(spec); err == nil {
			t.Errorf("spec %v was admitted, want rejection", spec)
		}
	}

	// Saturation: 1 worker blocked + depth-1 queue full → ErrQueueFull.
	release := make(chan struct{})
	defer close(release)
	if _, err := q.SubmitFunc("blocker", func(context.Context) error { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick up the blocker so the queue slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for q.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.SubmitFunc("fills-queue", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	_, err := q.SubmitFunc("overflow", func(context.Context) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if m := q.Snapshot(); m.Rejected < int64(len(bad))+1 {
		t.Errorf("rejected = %d, want >= %d", m.Rejected, len(bad)+1)
	}
}

func TestDeadlineAbandonsRun(t *testing.T) {
	q := New(Config{Workers: 1, DefaultTimeout: 20 * time.Millisecond})

	started := make(chan struct{})
	finished := make(chan struct{})
	job, err := q.SubmitFunc("slow", func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // a cooperative job would stop here; hold on a bit longer
		time.Sleep(10 * time.Millisecond)
		close(finished)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, err = job.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	<-finished
	q.Close() // waits for the abandoned run to drain
	m := q.Snapshot()
	if m.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Timeouts)
	}
	if m.Abandoned != 0 {
		t.Errorf("abandoned gauge = %d after Close, want 0", m.Abandoned)
	}
}

// TestRunPanicContained: a func job whose function panics fails with an
// error that wraps ErrRunPanic and carries the panic value, its trace
// record adds the stack, and the worker keeps serving: the worker count is
// unchanged, a spec job submitted afterwards runs, and the run's orphan
// slot comes back (Close waits for every one).
func TestRunPanicContained(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{Workers: 1, TraceSink: sink})
	workers := q.Snapshot().Workers
	job, err := q.SubmitFunc("boom", func(context.Context) error { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); !errors.Is(err, ErrRunPanic) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want ErrRunPanic carrying the panic value", err)
	}
	next, err := q.Submit(Spec{Algorithm: "reduce", N: 8, Engine: core.EnginePRAM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil {
		t.Fatalf("spec job after the panic: %v", err)
	}
	if got := q.Snapshot().Workers; got != workers {
		t.Errorf("workers = %d after the panic, want %d", got, workers)
	}
	q.Close()
	if m := q.Snapshot(); m.Abandoned != 0 || m.Failed != 1 {
		t.Errorf("after Close: abandoned %d, failed %d, want 0 and 1", m.Abandoned, m.Failed)
	}
	found := false
	for _, rec := range sink.Records() {
		if rec.Outcome == jobtrace.OutcomeError {
			found = true
			if !strings.Contains(rec.Error, "boom") || !strings.Contains(rec.Error, "runFunc") {
				t.Errorf("trace record error %q lacks the panic value or the stack", rec.Error)
			}
		}
	}
	if !found {
		t.Error("no error record for the panicked job")
	}
}

// TestFinishRunEnforcesDeadline: a run that returns past its deadline
// fails as a timeout even when its deadline timer never fired, on every
// run path; a run the timer already failed loses and counts nothing.
func TestFinishRunEnforcesDeadline(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	late := &Job{Name: "late"}
	res, won, err := q.finishRun(late, Result{Wall: 2 * time.Millisecond}, nil, time.Millisecond)
	if !won || !errors.Is(err, context.DeadlineExceeded) || res.Wall != 2*time.Millisecond {
		t.Fatalf("late run: won=%v err=%v wall=%v, want a won deadline failure keeping its wall", won, err, res.Wall)
	}
	if late.Status() != StatusFailed || q.timeouts.Load() != 1 {
		t.Fatalf("late run: status %v, timeouts %d, want failed and 1", late.Status(), q.timeouts.Load())
	}
	if _, won, err := q.finishRun(&Job{Name: "on-time"}, Result{Wall: time.Millisecond}, nil, time.Second); !won || err != nil {
		t.Fatalf("on-time run: won=%v err=%v", won, err)
	}
	if _, won, _ := q.finishRun(late, Result{Wall: time.Hour}, nil, time.Millisecond); won || q.timeouts.Load() != 1 {
		t.Fatalf("already-failed run: won=%v timeouts=%d, want a loss counting nothing", won, q.timeouts.Load())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	q := New(Config{Workers: 1})
	q.Close()
	if _, err := q.Submit(Spec{Algorithm: "mergesort", N: 16, Engine: core.EngineSim}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if _, err := q.SubmitFunc("x", func(context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitFunc after Close: err = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

func TestJobViewsAndRetention(t *testing.T) {
	q := New(Config{Workers: 2, Retain: 8})
	defer q.Close()
	for i := 0; i < 20; i++ {
		job, err := q.SubmitFunc(fmt.Sprintf("job-%d", i), func(context.Context) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	views := q.Jobs(0)
	if len(views) > 8 {
		t.Fatalf("retained %d jobs, want <= 8", len(views))
	}
	// Newest first, all terminal with timings populated.
	for i, v := range views {
		if i > 0 && v.ID > views[i-1].ID {
			t.Fatalf("views not newest-first: %d after %d", v.ID, views[i-1].ID)
		}
		if v.Status != StatusDone {
			t.Fatalf("view %d: status %v", v.ID, v.Status)
		}
	}
	if _, ok := q.Get(views[0].ID); !ok {
		t.Fatal("most recent job not retrievable by ID")
	}
	if _, ok := q.Get(1); ok {
		t.Fatal("oldest job should have aged out of retention")
	}
}

func TestResultBeforeFinish(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	release := make(chan struct{})
	job, err := q.SubmitFunc("held", func(context.Context) error { <-release; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result on running job: err = %v, want ErrNotFinished", err)
	}
	close(release)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonmentBounded: deadline-blown runs may be abandoned only up to
// the orphan budget (2× workers); past that the worker waits the run out,
// so timeout abuse cannot stack unbounded concurrent runs.
func TestAbandonmentBounded(t *testing.T) {
	q := New(Config{Workers: 1, DefaultTimeout: 5 * time.Millisecond})

	var live atomic.Int64
	var peak atomic.Int64
	jobs := make([]*Job, 0, 6)
	for i := 0; i < 6; i++ {
		job, err := q.SubmitFunc(fmt.Sprintf("slow-%d", i), func(ctx context.Context) error {
			if n := live.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			defer live.Add(-1)
			<-ctx.Done()
			time.Sleep(30 * time.Millisecond) // keep running past the deadline
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want DeadlineExceeded", job.Name, err)
		}
	}
	q.Close()
	m := q.Snapshot()
	if m.Timeouts != 6 {
		t.Errorf("timeouts = %d, want 6", m.Timeouts)
	}
	if m.Abandoned != 0 {
		t.Errorf("abandoned gauge = %d after Close, want 0", m.Abandoned)
	}
	// Budget is 2×workers = 2 orphans, plus the one run the worker holds.
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrent runs = %d, want <= 3", p)
	}
	if live.Load() != 0 {
		t.Errorf("%d runs still live after Close", live.Load())
	}
}

// TestSampleRingWindow: the latency window inserts in O(1), keeps only the
// newest maxLatencySamples, and Snapshot's memoized summaries track it.
func TestSampleRingWindow(t *testing.T) {
	var r sampleRing
	for i := 0; i < maxLatencySamples+100; i++ {
		r.add(float64(i))
	}
	out := r.copyOut()
	if len(out) != maxLatencySamples {
		t.Fatalf("window holds %d samples, want %d", len(out), maxLatencySamples)
	}
	if r.gen != maxLatencySamples+100 {
		t.Fatalf("gen = %d, want %d", r.gen, maxLatencySamples+100)
	}
	min := out[0]
	for _, x := range out {
		if x < min {
			min = x
		}
	}
	if min != 100 {
		t.Fatalf("oldest retained sample = %g, want 100 (older overwritten FIFO)", min)
	}
}

// TestSnapshotSummariesMemoized: repeated Snapshots of an idle queue reuse
// the cached summary (same values) and reflect new completions when they
// happen; the palrt scheduler aggregate is carried along.
func TestSnapshotSummariesMemoized(t *testing.T) {
	q := New(Config{Workers: 2, CacheSize: -1})
	defer q.Close()

	run := func() {
		job, err := q.Submit(Spec{Algorithm: "reduce", N: 1 << 15, P: 2, Engine: core.EnginePalrt, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run()
	m1 := q.Snapshot()
	m2 := q.Snapshot()
	if m1.Wall != m2.Wall || m1.Wait != m2.Wait {
		t.Fatalf("idle snapshots diverged: %+v vs %+v", m1.Wall, m2.Wall)
	}
	if m1.Wall.Count != 1 {
		t.Fatalf("wall sample count = %d, want 1", m1.Wall.Count)
	}
	run() // cache disabled, so the duplicate spec executes again
	m3 := q.Snapshot()
	if m3.Wall.Count != 2 {
		t.Fatalf("wall sample count after second run = %d, want 2", m3.Wall.Count)
	}
	// An EnginePalrt job ran, so the process-wide scheduler aggregate must
	// have counted its offered children.
	if m3.Scheduler.Spawned+m3.Scheduler.Inlined == 0 {
		t.Fatal("scheduler aggregate empty after a palrt job")
	}
}
