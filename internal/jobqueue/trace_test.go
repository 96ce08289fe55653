package jobqueue

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobtrace"
)

// TestTraceNoSinkNoRecorder: without a TraceSink the queue has no
// recorder at all — the hot paths take the nil branch and TraceStats
// stays zero.
func TestTraceNoSinkNoRecorder(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 1})
	defer q.Close()
	if q.rec != nil {
		t.Fatal("recorder allocated without a TraceSink")
	}
	job, err := q.Submit(Spec{Algorithm: "reduce", N: 64, Engine: core.EngineSim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e, d := q.TraceStats(); e != 0 || d != 0 {
		t.Fatalf("TraceStats = %d, %d, want 0, 0", e, d)
	}
}

// TestTraceCardinalityMatchesMetrics is the acceptance cross-check:
// with a sink attached, every submission appears exactly once in the
// trace (or the drop counter) — emitted == (Completed+Failed) +
// CacheHits + Coalesced + Rejected, and the sink received emitted −
// dropped records.
func TestTraceCardinalityMatchesMetrics(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{Workers: 4, Shards: 2, TraceSink: sink})

	var jobs []*Job
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			spec := Spec{Algorithm: "reduce", N: 64 + i, Engine: core.EngineSim, Seed: uint64(i % 7)}
			job, err := q.Submit(spec)
			if err != nil {
				t.Fatalf("submit round %d job %d: %v", round, i, err)
			}
			jobs = append(jobs, job)
		}
		// Wait out each round so later rounds hit the cache rather than
		// all coalescing — the trace must count both paths correctly.
		for _, job := range jobs {
			if _, err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	q.Close()

	m := q.Snapshot()
	emitted, dropped := q.TraceStats()
	recs := sink.Records()
	if int64(len(recs)) != emitted-dropped {
		t.Fatalf("sink holds %d records, want emitted %d - dropped %d", len(recs), emitted, dropped)
	}
	want := (m.Completed + m.Failed) + m.CacheHits + m.Coalesced + m.Rejected
	if emitted != want {
		t.Fatalf("emitted %d records, want (completed %d + failed %d) + hits %d + coalesced %d + rejected %d = %d",
			emitted, m.Completed, m.Failed, m.CacheHits, m.Coalesced, m.Rejected, want)
	}
	if m.TraceRecords != emitted || m.TraceDropped != dropped {
		t.Fatalf("Metrics trace counters %d/%d, want %d/%d", m.TraceRecords, m.TraceDropped, emitted, dropped)
	}

	var exec, hit, coal int64
	for _, r := range recs {
		switch r.Disposition {
		case jobtrace.DispositionExecuted:
			exec++
			if r.ExecShard < 0 || r.ExecShard >= 2 {
				t.Errorf("executed record %s has exec_shard %d", r.Key, r.ExecShard)
			}
			if r.Outcome != jobtrace.OutcomeOK {
				t.Errorf("record %s outcome %q, want ok", r.Key, r.Outcome)
			}
			if r.StartNS == 0 || r.FinishNS == 0 || r.RunMS < 0 || r.WaitMS < 0 {
				t.Errorf("executed record %s missing timings: %+v", r.Key, r)
			}
			if r.StealOrigin >= 0 && r.StealOrigin == r.ExecShard {
				t.Errorf("record %s claims a steal from its own exec shard %d", r.Key, r.ExecShard)
			}
		case jobtrace.DispositionHit:
			hit++
		case jobtrace.DispositionCoalesce:
			coal++
		default:
			t.Errorf("unexpected disposition %q", r.Disposition)
		}
		if r.Key == "" || r.Class != string(ClassInteractive) {
			t.Errorf("record missing identity: %+v", r)
		}
		if r.SubmitShard < 0 || r.SubmitShard >= 2 {
			t.Errorf("record %s submit_shard %d out of range", r.Key, r.SubmitShard)
		}
		if r.EpochSubmit != 1 || r.EpochSettle != 1 {
			t.Errorf("record %s epochs %d/%d, want 1/1 on an unresized queue", r.Key, r.EpochSubmit, r.EpochSettle)
		}
	}
	if dropped == 0 {
		if exec != m.Completed+m.Failed || hit != m.CacheHits || coal != m.Coalesced {
			t.Errorf("disposition counts exec/hit/coalesce = %d/%d/%d, metrics say %d/%d/%d",
				exec, hit, coal, m.Completed+m.Failed, m.CacheHits, m.Coalesced)
		}
	}
}

// TestTraceRejectedRecords: admission refusals emit rejected records
// whose count matches Metrics.Rejected.
func TestTraceRejectedRecords(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{Workers: 1, Shards: 1, QueueDepth: 2, TraceSink: sink})
	gate := make(chan struct{})
	blocker := func(context.Context) error { <-gate; return nil }

	var jobs []*Job
	rejections := 0
	// One job occupies the worker, two fill the interactive lane; the
	// rest must be refused.
	for i := 0; i < 8; i++ {
		job, err := q.SubmitFunc("blocker", blocker)
		switch {
		case err == nil:
			jobs = append(jobs, job)
		case errors.Is(err, ErrQueueFull):
			rejections++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejections == 0 {
		t.Fatal("no submission was rejected; lane bound not exercised")
	}
	close(gate)
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()

	m := q.Snapshot()
	var rejectedRecs int64
	for _, r := range sink.Records() {
		if r.Disposition != jobtrace.DispositionRejected {
			continue
		}
		rejectedRecs++
		if r.ExecShard != -1 || r.StealOrigin != -1 || r.Outcome != "" {
			t.Errorf("rejected record carries execution fields: %+v", r)
		}
		if r.Key != "blocker" {
			t.Errorf("rejected record key %q, want blocker", r.Key)
		}
	}
	if rejectedRecs != m.Rejected || rejectedRecs != int64(rejections) {
		t.Fatalf("rejected records %d, Metrics.Rejected %d, observed rejections %d — all should agree",
			rejectedRecs, m.Rejected, rejections)
	}
}

// TestTraceTimeoutOutcomeSpec: an algorithm job with a tiny deadline
// produces an executed record with outcome timeout and an error.
func TestTraceTimeoutOutcomeSpec(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{Workers: 1, Shards: 1, TraceSink: sink})
	spec := Spec{Algorithm: "mergesort", N: 1 << 16, Engine: core.EnginePalrt, Seed: 1,
		Timeout: time.Microsecond}
	job, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err == nil {
		t.Fatal("expected a deadline failure")
	}
	q.Close()
	recs := sink.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Disposition != jobtrace.DispositionExecuted || r.Outcome != jobtrace.OutcomeTimeout {
		t.Fatalf("record disposition/outcome %q/%q, want executed/timeout", r.Disposition, r.Outcome)
	}
	if r.Error == "" {
		t.Error("timeout record has no error message")
	}
}

// TestBatchDeadlineErrorNamesJob: a batch frame on an untraced queue
// carries no rendered name, yet its deadline error names the spec, as a
// Submit job's does. The tiny deadline is the one
// TestTraceTimeoutOutcomeSpec uses, which no run of this size can meet.
func TestBatchDeadlineErrorNamesJob(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	defer q.Close()
	spec := Spec{Algorithm: "mergesort", N: 1 << 16, Engine: core.EnginePalrt, Seed: 1,
		Timeout: time.Microsecond}
	b := q.NewBatch()
	if err := b.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := b.Outcome(0)
	b.Release()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch outcome error %v, want a deadline failure", err)
	}
	if name := spec.String(); !strings.Contains(err.Error(), "job "+name+" exceeded") {
		t.Errorf("deadline error %q does not name the job %q", err, name)
	}
}

// blockingSink blocks its first Record call until released, so a test
// can deterministically fill the recorder ring.
type blockingSink struct {
	release chan struct{}
	inner   jobtrace.MemorySink
	first   bool
}

func (b *blockingSink) Record(r jobtrace.Record) {
	if !b.first {
		b.first = true
		<-b.release
	}
	b.inner.Record(r)
}

// TestTraceDropCounting: a stuck sink with a tiny ring drops records
// instead of blocking the queue, and the drop counter accounts for
// every missing record.
func TestTraceDropCounting(t *testing.T) {
	sink := &blockingSink{release: make(chan struct{})}
	q := New(Config{Workers: 2, Shards: 1, CacheSize: -1, TraceSink: sink, TraceBuffer: 1})
	var jobs []*Job
	const n = 8
	for i := 0; i < n; i++ {
		job, err := q.Submit(Spec{Algorithm: "reduce", N: 64 + i, Engine: core.EngineSim, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// All settles have emitted (Wait returns after settle); the sink is
	// still stuck on its first record with a 1-slot ring, so at least
	// n-2 emissions had nowhere to go.
	close(sink.release)
	q.Close()
	emitted, dropped := q.TraceStats()
	if emitted != n {
		t.Fatalf("emitted %d, want %d", emitted, n)
	}
	if dropped < n-2 {
		t.Errorf("dropped %d, want >= %d with a stuck 1-slot ring", dropped, n-2)
	}
	if got := int64(sink.inner.Len()); got != emitted-dropped {
		t.Fatalf("sink received %d, want emitted %d - dropped %d", got, emitted, dropped)
	}
}
