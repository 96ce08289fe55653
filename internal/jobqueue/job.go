package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
)

// Status is a job's lifecycle state. The states mirror the pal-thread
// states of §3.1: a queued job is "pending" (created, no processor), a
// running job is "activated", and like an activated pal-thread it is never
// preempted — it runs to completion, failure, or abandonment at its
// deadline.
type Status int32

const (
	// StatusQueued means admitted and waiting for a worker.
	StatusQueued Status = iota
	// StatusRunning means executing on a worker.
	StatusRunning
	// StatusDone means completed successfully; Result is available.
	StatusDone
	// StatusFailed means the run returned an error or exceeded its
	// deadline.
	StatusFailed
)

// String returns the status's wire name ("queued", "running", "done",
// "failed").
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int32(s))
}

// MarshalJSON renders the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// Spec describes one simulation job: run algorithm Algorithm at input size
// N with P processors on Engine, inputs derived from Seed.
type Spec struct {
	Algorithm string      `json:"algorithm"`
	N         int         `json:"n"`
	P         int         `json:"p,omitempty"` // 0 → core.ProcsFor(N)
	Engine    core.Engine `json:"engine"`
	Seed      uint64      `json:"seed"`
	// Priority selects the job's class by name; empty means the class
	// set's first (default) class. The class does not affect the result,
	// so it is not part of the cache key: a batch run's cached result
	// serves interactive dups.
	Priority Class `json:"priority,omitempty"`
	// Timeout caps the job's execution time; 0 selects the queue's
	// default. Serialized as nanoseconds.
	Timeout time.Duration `json:"timeout,omitempty"`
}

// Key is the result-cache identity of a spec: every field that determines
// the outcome. Two specs with equal keys produce identical results (inputs
// derive from Seed; engines are deterministic in their reported
// Steps/Work/Value/Check — only wall time varies).
type Key struct {
	Algorithm string
	N, P      int
	Engine    core.Engine
	Seed      uint64
}

// key returns the cache identity with defaults resolved.
func (s Spec) key() Key {
	p := s.P
	if p == 0 {
		p = core.ProcsFor(s.N)
	}
	return Key{Algorithm: s.Algorithm, N: s.N, P: p, Engine: s.Engine, Seed: s.Seed}
}

// String renders the spec compactly for logs and job names.
func (s Spec) String() string {
	return fmt.Sprintf("%s/n=%d/p=%d/%s/seed=%d", s.Algorithm, s.N, s.key().P, s.Engine, s.Seed)
}

// Result is the outcome delivered to the submitter.
type Result struct {
	core.Outcome
	// Wall is the execution wall-clock time of the run that produced
	// this result (for cached results: of the original run).
	Wall time.Duration `json:"wall"`
	// Cached reports that the result was served from the result cache
	// without executing.
	Cached bool `json:"cached,omitempty"`
}

// Job is a submitted work item. All methods are safe for concurrent use.
type Job struct {
	// ID is the queue-assigned identifier, unique within a Queue.
	ID uint64
	// Name identifies the work: Spec.String() for algorithm jobs, the
	// caller's name for func jobs.
	Name string
	// Spec is the algorithm spec; zero for func jobs.
	Spec Spec

	fn        func(ctx context.Context) error // func jobs only
	submitted time.Time
	// class is the priority class's index into the queue's class set.
	// The home shard is not stored: it is encoded in ID's low shardBits.
	class int

	// Flight-recorder fields. submitShard/submitEpoch/laneDepth are
	// written before the job is pushed on its run queue and
	// execShard/stealFrom by the executing worker before it hands the
	// run off; the completion flush (which runs after the run finishes)
	// is the only reader, so the shard lock around push and pop and the
	// runner hand-off order them without a lock of their own.
	submitShard int
	submitEpoch uint64
	laneDepth   int
	execShard   int
	stealFrom   int

	// cost is the Submit-time cost prediction, zero unless a non-default
	// policy is active. Written before the job is published (same
	// discipline as the flight-recorder fields above); read by policy
	// views and the settle-time calibrator feed.
	cost CostEstimate

	// pooled marks a frame borrowed from the batch frame arena
	// (Batch.Submit): admission skips ID retention for it and
	// Batch.Release recycles it. notify, set before the frame is
	// staged, is the owning Batch, told once when the frame turns
	// terminal. Both are fixed for the frame's flight, so they need no
	// lock.
	pooled bool
	notify *Batch
	// touches counts live references held by the execution machinery
	// (the dequeuing worker and its runner goroutine): runJob sets it
	// before the deadline race can fork and each side drops its count
	// after its last access, so release recycles a frame only when no
	// abandoned run or racing deadline loser can still write to it.
	touches atomic.Int32

	mu       sync.Mutex
	status   Status
	result   Result
	err      error
	started  time.Time
	finished time.Time
	// done is the completion channel, allocated lazily (doneChan) so a
	// submission costs no channel allocation when nobody selects on the
	// job; signaled records completion for waiters that arrive later.
	// chained holds the duplicate submissions coalesced onto this
	// in-flight job; the completion flush completes them with this job's
	// outcome.
	done     chan struct{}
	signaled bool
	chained  []*Job
}

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneChan() }

// doneChan returns the completion channel, allocating it on first use,
// so a batch that never selects on individual jobs (Batch.Wait rides the
// batch token instead) and a cache hit nobody waits on pay nothing. A
// waiter arriving after completion gets an already-closed channel.
func (j *Job) doneChan() chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done == nil {
		j.done = make(chan struct{})
		if j.signaled {
			close(j.done)
		}
	}
	return j.done
}

// Wait blocks until the job completes or ctx expires, then returns the
// job's result.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	select {
	case <-j.doneChan():
		return j.Result()
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Result returns the outcome of a finished job; for queued or running jobs
// it returns ErrNotFinished.
func (j *Job) Result() (Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.result, nil
	case StatusFailed:
		return Result{}, j.err
	}
	return Result{}, ErrNotFinished
}

// markRunning transitions queued → running. It returns false if the job is
// already terminal (cannot happen under the queue's discipline, but the
// guard keeps the state machine locally checkable).
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = now
	return true
}

// markFinished transitions to a terminal state exactly once; late
// finishers (an abandoned run completing after its deadline already
// failed the job) return false and their result is dropped. It does not
// signal Done: the winning outcome settles the queue's caches and
// counters first — at the owning worker's completion flush — and only
// then signalDone fires, so a submitter whose Wait has returned can
// rely on the result cache already holding the outcome. Without the
// ordering, a duplicate submitted in the finish→flush window would find
// a stale in-flight entry instead of a cache hit (it still coalesces
// onto the terminal winner and is served its outcome at the flush).
func (j *Job) markFinished(res Result, err error, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed {
		return false
	}
	j.finished = now
	if j.started.IsZero() {
		// Never ran (chained onto a winner, refused, closed): like a
		// cache serve it starts and finishes at once, so View reports
		// its wait and a zero run time.
		j.started = now
	}
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.result = res
	}
	return true
}

// signalDone marks the job's completion visible: it closes the done
// channel if one exists (later doneChan callers get a pre-closed one)
// and notifies the owning Batch, if any. Called exactly once per job,
// from the completion flush that published the winning outcome (or
// directly, for jobs that never enter the run queue).
func (j *Job) signalDone() {
	j.mu.Lock()
	j.signaled = true
	ch := j.done
	j.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	if j.notify != nil {
		j.notify.jobDone()
	}
}

// completeCached resolves a job immediately from a cached result. Used for
// jobs that never enter the run queue.
func (j *Job) completeCached(res Result, now time.Time) {
	res.Cached = true
	j.mu.Lock()
	j.status = StatusDone
	j.result = res
	j.started = now
	j.finished = now
	j.mu.Unlock()
	j.signalDone()
}

// View is the JSON-serializable snapshot of a job, served by lopramd's
// status endpoint.
type View struct {
	ID        uint64    `json:"id"`
	Name      string    `json:"name"`
	Spec      *Spec     `json:"spec,omitempty"`
	Status    Status    `json:"status"`
	Result    *Result   `json:"result,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// WaitMS and RunMS are the queueing and execution latencies in
	// milliseconds, populated for started / finished jobs.
	WaitMS float64 `json:"wait_ms,omitempty"`
	RunMS  float64 `json:"run_ms,omitempty"`
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{ID: j.ID, Name: j.Name, Status: j.status, Submitted: j.submitted,
		Started: j.started, Finished: j.finished}
	if j.Spec.Algorithm != "" {
		spec := j.Spec
		v.Spec = &spec
	}
	if !j.started.IsZero() {
		v.WaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	switch j.status {
	case StatusDone:
		res := j.result
		v.Result = &res
		v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	case StatusFailed:
		v.Error = j.err.Error()
		v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return v
}
