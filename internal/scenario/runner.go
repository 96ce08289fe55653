package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/stats"
	"lopram/internal/trace"
	"lopram/internal/workload"
)

// Report is the outcome of one scenario replay. Counter fields are deltas
// across the run (valid on a shared live queue); the latency summaries
// come from the queue's metric rings, so on a queue that served other
// traffic they include that traffic's samples too — replay against a
// fresh queue (QueueConfig) when the percentiles must be scenario-only.
type Report struct {
	Scenario string        `json:"scenario"`
	Jobs     int           `json:"jobs"`     // submissions issued
	Rejected int64         `json:"rejected"` // refused by admission control
	Failures int           `json:"failures"` // jobs that ran and failed (incl. deadlines)
	Elapsed  time.Duration `json:"elapsed"`
	// JobsPerSec is issued jobs over elapsed wall time.
	JobsPerSec float64 `json:"jobs_per_sec"`

	// Resizes counts the scheduled live resizes applied during the
	// replay; Epoch is the queue's placement epoch after it (creation is
	// epoch 1 and each applied resize adds one, so on a fresh queue
	// Epoch = 1 + Resizes + any autoscaler activity).
	Resizes int    `json:"resizes,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`

	Executed  int64 `json:"executed"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Timeouts  int64 `json:"timeouts"`
	Steals    int64 `json:"steals"`
	// HitRate is the served-without-execution fraction over this run's
	// traffic: (cache hits + coalesced) / (those + cache misses).
	HitRate float64 `json:"hit_rate"`

	// PerClass carries each priority class's latency percentiles — the
	// acceptance signal for priority scheduling (interactive p99 staying
	// flat under batch pressure).
	PerClass map[jobqueue.Class]jobqueue.ClassStats `json:"per_class"`
	PerShard []jobqueue.ShardStats                  `json:"per_shard,omitempty"`
	Wall     stats.Summary                          `json:"wall_ms"`
	Wait     stats.Summary                          `json:"wait_ms"`
}

// Progress is one periodic snapshot of a replay in flight, delivered to
// RunOptions.Progress — the payload behind lopramd's NDJSON streaming.
type Progress struct {
	Scenario string `json:"scenario"`
	// Total is the stream length; Submitted counts submissions issued
	// so far (rejections included), Done the submissions that reached a
	// terminal state, Rejected the admission refusals.
	Total     int     `json:"total"`
	Submitted int     `json:"submitted"`
	Done      int     `json:"done"`
	Rejected  int64   `json:"rejected"`
	Resizes   int     `json:"resizes,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunOptions customizes a replay. The zero value reproduces Run.
type RunOptions struct {
	// Progress, when set, is called with a periodic snapshot of the
	// replay from a dedicated goroutine; the final call happens before
	// RunWith returns. It must be safe to call concurrently with the
	// submitting goroutines' work but is never called concurrently with
	// itself.
	Progress func(Progress)
	// ProgressEvery is the snapshot interval; default 500ms.
	ProgressEvery time.Duration
}

// Run replays the scenario against q: expands the deterministic job
// stream, submits it under the declared arrival process, waits for every
// admitted job, and reports. Job-level failures (deadlines, admission
// rejections) are reported, not errors; an error means the replay itself
// could not proceed (invalid spec, closed queue, cancelled context).
func Run(ctx context.Context, q *jobqueue.Queue, s Spec) (Report, error) {
	return RunWith(ctx, q, s, RunOptions{})
}

// RunWith is Run with progress reporting: opts.Progress receives
// periodic snapshots of the replay while it runs.
func RunWith(ctx context.Context, q *jobqueue.Queue, s Spec, opts RunOptions) (Report, error) {
	// Validate fills the defaults (arrival mode, client window, seed
	// space) into this copy — the arrival logic below depends on them,
	// not just Stream.
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	stream, err := Stream(s)
	if err != nil {
		return Report{}, err
	}
	before := q.Snapshot()
	// Arrival gaps come from their own stream so the job mix stays
	// byte-identical between open and closed replays of one spec.
	gapRNG := workload.NewRNG(s.Seed ^ 0x9e3779b97f4a7c15)

	start := time.Now()
	report := Report{Scenario: s.Name}
	// The live counters are atomics so the progress goroutine can read
	// them mid-replay; fill copies them into the report before any
	// return.
	var submitted, done, rejected, resizes atomic.Int64
	fill := func() {
		report.Jobs = int(submitted.Load())
		report.Rejected = rejected.Load()
		report.Resizes = int(resizes.Load())
	}
	if opts.Progress != nil {
		snap := func() Progress {
			return Progress{
				Scenario:  s.Name,
				Total:     len(stream),
				Submitted: int(submitted.Load()),
				Done:      int(done.Load()),
				Rejected:  rejected.Load(),
				Resizes:   int(resizes.Load()),
				ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}
		}
		every := opts.ProgressEvery
		if every <= 0 {
			every = 500 * time.Millisecond
		}
		stopProg := make(chan struct{})
		progDone := make(chan struct{})
		go func() {
			defer close(progDone)
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					opts.Progress(snap())
				case <-stopProg:
					opts.Progress(snap())
					return
				}
			}
		}()
		// Synchronous shutdown: the final snapshot is delivered before
		// RunWith returns, and never after.
		defer func() {
			close(stopProg)
			<-progDone
		}()
	}
	var failures atomic.Int64
	if s.Ingest == IngestBatch {
		// Batch ingest: submit the stream through the pooled batch-first
		// path in BatchSize groups. Scheduled resizes still fire at their
		// stream offsets — the pending group settles first, so a resize
		// never races its own group's outcomes — and admission refusals
		// are outcomes read from the settled slots, exactly as the
		// single-submit path counts its Submit errors.
		b := q.NewBatch()
		flush := func() error {
			if b.Len() == 0 {
				return nil
			}
			if err := b.Wait(ctx); err != nil {
				// Frames are still in flight: by the arena contract the
				// batch must not be released; leak it to the GC.
				return err
			}
			for i := 0; i < b.Len(); i++ {
				if _, err := b.Outcome(i); err != nil {
					switch {
					case errors.Is(err, jobqueue.ErrQueueFull), errors.Is(err, jobqueue.ErrDeadlineInfeasible):
						rejected.Add(1)
						continue // rejected slots never reach a terminal run
					default:
						failures.Add(1)
					}
				}
				done.Add(1)
			}
			b.Release()
			b = q.NewBatch()
			return nil
		}
		nextResize := 0
		for i, spec := range stream {
			if err := ctx.Err(); err != nil {
				fill()
				return report, err
			}
			if nextResize < len(s.Resizes) && s.Resizes[nextResize].AtJob == i {
				if err := flush(); err != nil {
					fill()
					return report, err
				}
				for nextResize < len(s.Resizes) && s.Resizes[nextResize].AtJob == i {
					if _, err := q.Resize(s.Resizes[nextResize].Shards); err != nil {
						fill()
						return report, fmt.Errorf("scenario %s: resize to %d shards at job %d: %w",
							s.Name, s.Resizes[nextResize].Shards, i, err)
					}
					resizes.Add(1)
					nextResize++
				}
			}
			if err := b.Submit(spec); err != nil {
				// Scenario streams are valid by construction, so a Submit
				// error here is the queue refusing outright (ErrClosed) —
				// a replay error, like the single path's abort. Settle
				// what was submitted before reporting it.
				submitted.Add(1)
				_ = flush()
				fill()
				return report, fmt.Errorf("scenario %s: submitting %s: %w", s.Name, spec, err)
			}
			submitted.Add(1)
			if b.Len() >= s.BatchSize {
				if err := flush(); err != nil {
					fill()
					return report, err
				}
			}
		}
		if err := flush(); err != nil {
			fill()
			return report, err
		}
		b.Release() // the empty batch flush took after the last group
		return finishReport(q, before, start, &report, fill, &failures)
	}
	// sched is the cumulative scheduled arrival time of the open-loop
	// variants. Rate shaping (ramp, diurnal) evaluates the instantaneous
	// rate at the *scheduled* clock, not the wall clock, so the arrival
	// schedule — like the job stream — is a pure function of the spec.
	var sched time.Duration
	nextGap := func() time.Duration {
		rate := s.RatePerSec
		switch s.Arrival {
		case ArrivalRamp:
			rate = workload.RampRate(sched, s.RampDuration, s.RampStartPerSec, s.RatePerSec)
		case ArrivalDiurnal:
			rate = workload.DiurnalRate(sched, s.DiurnalPeriod, s.RatePerSec, s.DiurnalAmplitude)
		}
		gap := workload.ExpSpacing(gapRNG, rate)
		sched += gap
		return gap
	}
	// Closed-loop window: a counting semaphore of Clients slots, each
	// released by whichever job finishes next — any completion triggers
	// the next submission, so a slow head-of-line job occupies one slot,
	// not the whole window. (Open arrival ignores the window: that is
	// the point of open-loop load.)
	window := make(chan struct{}, s.Clients)
	var waiters sync.WaitGroup
	watch := func(job *jobqueue.Job) {
		defer waiters.Done()
		if _, err := job.Wait(ctx); err != nil && ctx.Err() == nil {
			failures.Add(1)
		}
		done.Add(1)
		if s.Arrival == ArrivalClosed {
			<-window
		}
	}

	nextResize := 0
	for i, spec := range stream {
		if err := ctx.Err(); err != nil {
			waiters.Wait()
			fill()
			return report, err
		}
		// Scheduled live resizes fire at their stream offset, before the
		// submission: the traffic is identical either way, only the
		// placement table moves under it.
		for nextResize < len(s.Resizes) && s.Resizes[nextResize].AtJob == i {
			if _, err := q.Resize(s.Resizes[nextResize].Shards); err != nil {
				waiters.Wait()
				fill()
				return report, fmt.Errorf("scenario %s: resize to %d shards at job %d: %w",
					s.Name, s.Resizes[nextResize].Shards, i, err)
			}
			resizes.Add(1)
			nextResize++
		}
		if s.Arrival != ArrivalClosed {
			select {
			case <-time.After(nextGap()):
			case <-ctx.Done():
				waiters.Wait()
				fill()
				return report, ctx.Err()
			}
		} else {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				waiters.Wait()
				fill()
				return report, ctx.Err()
			}
		}
		job, err := q.Submit(spec)
		switch {
		// Admission refusals — lane quotas, rate limits (both wrap
		// ErrQueueFull) and deadline-infeasibility sheds — are outcomes of
		// the replay, not replay errors.
		case errors.Is(err, jobqueue.ErrQueueFull), errors.Is(err, jobqueue.ErrDeadlineInfeasible):
			rejected.Add(1)
			submitted.Add(1)
			if s.Arrival == ArrivalClosed {
				<-window
			}
			continue
		case err != nil:
			waiters.Wait()
			fill()
			return report, fmt.Errorf("scenario %s: submitting %s: %w", s.Name, spec, err)
		}
		submitted.Add(1)
		waiters.Add(1)
		go watch(job)
	}
	waiters.Wait()
	if err := ctx.Err(); err != nil {
		fill()
		return report, err
	}
	return finishReport(q, before, start, &report, fill, &failures)
}

// finishReport closes out a completed replay: it copies the live
// counters into the report (fill), stamps the elapsed time and computes
// the queue-counter deltas and latency summaries since before.
func finishReport(q *jobqueue.Queue, before jobqueue.Metrics, start time.Time, report *Report, fill func(), failures *atomic.Int64) (Report, error) {
	fill()
	report.Failures = int(failures.Load())
	report.Elapsed = time.Since(start)
	if secs := report.Elapsed.Seconds(); secs > 0 {
		report.JobsPerSec = float64(report.Jobs) / secs
	}

	after := q.Snapshot()
	report.Executed = (after.Completed + after.Failed) - (before.Completed + before.Failed)
	report.CacheHits = after.CacheHits - before.CacheHits
	report.Coalesced = after.Coalesced - before.Coalesced
	report.Timeouts = after.Timeouts - before.Timeouts
	report.Steals = after.Steals - before.Steals
	served := report.CacheHits + report.Coalesced
	if total := served + (after.CacheMisses - before.CacheMisses); total > 0 {
		report.HitRate = float64(served) / float64(total)
	}
	report.PerClass = after.PerClass
	report.PerShard = after.PerShard
	report.Wall = after.Wall
	report.Wait = after.Wait
	report.Epoch = after.Epoch
	return *report, nil
}

// WriteText renders the report as the human-readable serving summary
// lopramd prints in -scenario mode.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario %s: %d jobs in %v (%.1f jobs/sec)\n",
		r.Scenario, r.Jobs, r.Elapsed.Round(time.Millisecond), r.JobsPerSec)
	if r.Resizes > 0 {
		fmt.Fprintf(w, "  live resizes: %d (placement epoch %d at finish)\n", r.Resizes, r.Epoch)
	}
	fmt.Fprintf(w, "  executed %d · cache hits %d · coalesced %d · hit rate %.0f%% · rejected %d · failures %d · timeouts %d · steals %d\n",
		r.Executed, r.CacheHits, r.Coalesced, 100*r.HitRate, r.Rejected, r.Failures, r.Timeouts, r.Steals)
	fmt.Fprintf(w, "  exec latency ms: p50 %.2f · p95 %.2f · p99 %.2f · max %.2f\n",
		r.Wall.P50, r.Wall.P95, r.Wall.P99, r.Wall.Max)
	fmt.Fprintf(w, "  queue wait ms:   p50 %.2f · p95 %.2f · p99 %.2f · max %.2f\n",
		r.Wait.P50, r.Wait.P95, r.Wait.P99, r.Wait.Max)
	classes := make([]jobqueue.Class, 0, len(r.PerClass))
	for class := range r.PerClass {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	// The per-class block is a trace.Table so column widths come from
	// the data — class names of any length stay aligned.
	tb := trace.NewTable("class", "submitted",
		"wall p50", "wall p95", "wall p99", "wait p50", "wait p95", "wait p99")
	rows := 0
	for _, class := range classes {
		cs := r.PerClass[class]
		if cs.Submitted == 0 && cs.Wall.Count == 0 {
			continue
		}
		tb.AddRow(string(class), cs.Submitted,
			fmt.Sprintf("%.2f", cs.Wall.P50), fmt.Sprintf("%.2f", cs.Wall.P95), fmt.Sprintf("%.2f", cs.Wall.P99),
			fmt.Sprintf("%.2f", cs.Wait.P50), fmt.Sprintf("%.2f", cs.Wait.P95), fmt.Sprintf("%.2f", cs.Wait.P99))
		rows++
	}
	if rows > 0 {
		for _, line := range strings.Split(strings.TrimRight(tb.String(), "\n"), "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if len(r.PerShard) > 1 {
		fmt.Fprintf(w, "  shards:")
		for _, st := range r.PerShard {
			fmt.Fprintf(w, " [%d] exec %d steal %d", st.Shard, st.Executed, st.Stolen)
		}
		fmt.Fprintln(w)
	}
}
