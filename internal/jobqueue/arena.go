package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
)

// The frame arena: pooled Job and Batch frames for the batch-first ingest
// path (modeled on palrt's task arena). A single Submit allocates a fresh
// Job per call because the Job escapes to the caller for its whole
// lifetime; a Batch submitter instead borrows frames from jobPool, reads
// the outcomes, and hands every frame back with Release — so the
// steady-state batch submit path allocates zero per job. No other
// submission ever holds a pooled frame: a coalescing duplicate chains
// itself onto the frame, and the winner's flush empties the chain before
// the frame's batch can observe completion. A frame still referenced by a
// deadline-abandoned run is left to the garbage collector instead of
// recycled.

// jobPool recycles batch job frames. Frames produced here are marked
// pooled: the ingest path skips ID retention for them (they are not
// queryable via Get/Jobs — the batch owner holds the only reference) and
// Release recycles them once the batch is settled.
var jobPool = sync.Pool{
	New: func() any { return &Job{pooled: true, execShard: -1, stealFrom: -1} },
}

// batchPool recycles Batch frames themselves, so a steady-state
// submit–wait–release loop allocates nothing for the container either.
var batchPool = sync.Pool{
	New: func() any { return &Batch{donec: make(chan struct{}, 1)} },
}

// newFrame borrows a job frame from the arena.
func newFrame(now time.Time) *Job {
	j := jobPool.Get().(*Job)
	j.submitted = now
	j.execShard = -1
	j.stealFrom = -1
	return j
}

// release returns a settled frame to the arena. Frames still referenced
// by an abandoned run or a racing deadline loser (touches > 0) are
// skipped and left to the GC: recycling them would let the stale holder
// write into the frame's next incarnation.
func (j *Job) release() {
	if j.touches.Load() != 0 {
		return
	}
	j.ID = 0
	j.Name = ""
	j.Spec = Spec{}
	j.fn = nil
	j.submitted = time.Time{}
	j.class = 0
	j.submitShard = 0
	j.submitEpoch = 0
	j.laneDepth = 0
	j.execShard = -1
	j.stealFrom = -1
	j.cost = CostEstimate{}
	j.status = StatusQueued
	j.result = Result{}
	j.err = nil
	j.started = time.Time{}
	j.finished = time.Time{}
	j.done = nil
	j.signaled = false
	j.notify = nil
	j.chained = j.chained[:0]
	jobPool.Put(j)
}

// stageK is how many staged frames a Batch holds before SubmitSpec
// admits them. It bounds how late a staged frame enters the queue, and
// it keeps a large batch from reaching a class lane in one burst. It is
// lopramhttp's stream micro-batch size, so a stream admits each
// micro-batch once.
const stageK = 64

// Batch is a group of jobs submitted through the pooled ingest path: the
// zero-allocation counterpart of calling Submit in a loop. Usage is
// submit → wait → read outcomes → release:
//
//	b := q.NewBatch()
//	for _, spec := range specs {
//		b.Submit(spec)
//	}
//	if err := b.Wait(ctx); err != nil { ... } // frames still in flight: skip Release
//	for i := 0; i < b.Len(); i++ {
//		res, err := b.Outcome(i)
//		...
//	}
//	b.Release()
//
// A Batch is owned by one goroutine: its methods must not be called
// concurrently (distinct Batches on distinct goroutines are fine — that
// is the intended fan-in). Batch jobs get the same admission control,
// coalescing and caching as single submissions, but are not retained for
// Get/Jobs — the Batch itself is the only handle to their outcomes.
type Batch struct {
	q    *Queue
	jobs []*Job
	// staged holds the submitted frames not yet admitted, in submission
	// order. They are in no run queue until admit takes their home
	// shard's lock, so a resize or Close needs to know nothing of them.
	staged []*Job
	// pending counts submitted-but-not-terminal frames; donec carries the
	// completion token: jobDone sends (non-blocking, capacity 1) when
	// pending reaches zero, and Wait re-checks pending after every
	// receive, so a stale token from an earlier cycle is harmless.
	pending atomic.Int64
	donec   chan struct{}
}

// NewBatch borrows a batch frame from the arena. Release returns it.
func (q *Queue) NewBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.q = q
	return b
}

// Len returns how many jobs have been submitted into the batch,
// including ones refused at submission (their Outcome carries the error).
func (b *Batch) Len() int { return len(b.jobs) }

// Submit validates a spec and stages a pooled frame for it. Staged
// frames are admitted — cache, coalescing and admission control, as for
// Submit — under their home shard's lock, stageK at a time and at Wait.
// Every call appends exactly one outcome slot, so index i of Outcome
// always pairs with the i-th Submit; the returned error (validation
// failure, unknown class, ErrClosed) is also what that slot's Outcome
// reports. Admission-control refusals (ErrQueueFull,
// ErrDeadlineInfeasible) surface through Outcome, not this return value.
func (b *Batch) Submit(spec Spec) error { return b.SubmitSpec(&spec) }

// SubmitSpec is Submit for specs decoded in place: the binary wire
// ingest loop parses every frame into one reused Spec and hands a
// pointer here, so the spec is stamped straight into the pooled job
// frame without an intermediate copy per call. Defaults (P, Priority,
// Timeout) are resolved into *spec as a side effect; the caller may
// overwrite and reuse it as soon as the call returns.
func (b *Batch) SubmitSpec(spec *Spec) error {
	q := b.q
	now := time.Now()
	j := newFrame(now)
	class, err := q.prepare(spec)
	j.Spec = *spec
	j.class = class
	b.jobs = append(b.jobs, j)
	if err != nil {
		// Refused before entering the queue: the frame is terminal at
		// birth and never acquires a pending count.
		j.markFinished(Result{}, err, now)
		j.signalDone()
		return err
	}
	if q.closed.Load() {
		return q.refuseClosed(j, now)
	}
	key := spec.key()
	if q.cal != nil {
		j.cost = q.cal.estimate(*spec, key.P)
	}
	// A hit turns the frame terminal in place without staging, a pending
	// count, or — on an untraced queue — any allocation. The frame never
	// acquires a notify hook, mirroring the validation-refusal path
	// above, so Wait/Outcome/Release semantics are unchanged.
	if q.probeCache(j, key) {
		return nil
	}
	j.notify = b
	b.pending.Add(1)
	b.staged = append(b.staged, j)
	if len(b.staged) >= stageK {
		b.admit()
	}
	return nil
}

// admit runs admitLocked on every staged frame, taking each home shard's
// lock once, and kicks the workers once if any frame was queued. Like
// phase 1 of flushCompletions it resolves homes under the current table
// and retries against the new table when it catches a shard retired by
// a resize; a closed shard refuses its frames with ErrClosed. Within a
// shard, frames are admitted in submission order, so the first of equal
// keys is the one that runs.
func (b *Batch) admit() {
	q := b.q
	queued := false
	for len(b.staged) > 0 {
		p := q.place.Load()
		for _, j := range b.staged {
			// The home index rides in submitShard, which admitLocked
			// sets to the same value.
			j.submitShard = shardIndexFor(j.Spec.key(), len(p.shards))
		}
		for i, j := range b.staged {
			if j == nil {
				continue
			}
			s := p.shards[j.submitShard]
			s.mu.Lock()
			if s.retired {
				s.mu.Unlock()
				break // a resize is replacing the table
			}
			for k := i; k < len(b.staged); k++ {
				f := b.staged[k]
				if f == nil || f.submitShard != s.idx {
					continue
				}
				b.staged[k] = nil
				if s.closed {
					q.refuseClosed(f, time.Now())
				} else if ok, _ := q.admitLocked(s, p.epoch, f); ok {
					queued = true
				}
			}
			s.mu.Unlock()
		}
		left := b.staged[:0]
		for _, j := range b.staged {
			if j != nil {
				left = append(left, j)
			}
		}
		b.staged = left
		if len(left) > 0 {
			retryPlacement()
		}
	}
	if queued {
		q.kickWorkers()
	}
}

// jobDone is the frame-side completion hook: signalDone calls it once per
// frame whose notify points here.
func (b *Batch) jobDone() {
	if b.pending.Add(-1) == 0 {
		select {
		case b.donec <- struct{}{}:
		default:
		}
	}
}

// Wait admits the staged frames, then blocks until every submitted job
// is terminal or ctx expires. A nil return means all outcomes are
// readable and Release is safe; on a ctx error some frames are still in
// flight and the batch must NOT be released (leak it to the GC — the
// arena refills itself).
func (b *Batch) Wait(ctx context.Context) error {
	b.admit()
	for {
		if b.pending.Load() <= 0 {
			return nil
		}
		select {
		case <-b.donec:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Outcome returns the i-th submitted job's result, with the same
// semantics as Job.Result. Call only after Wait has returned nil.
func (b *Batch) Outcome(i int) (Result, error) { return b.jobs[i].Result() }

// ID returns the queue-assigned ID of the i-th submitted job (0 when the
// job was refused before ingest). Call only after Wait has returned nil.
func (b *Batch) ID(i int) uint64 { return b.jobs[i].ID }

// Release returns every settled frame, and the batch itself, to the
// arena. Call exactly once, only after Wait returned nil; the frames and
// their outcomes must not be touched afterwards.
func (b *Batch) Release() {
	for i := range b.jobs {
		b.jobs[i].release()
		b.jobs[i] = nil
	}
	b.jobs = b.jobs[:0]
	b.staged = b.staged[:0] // already empty unless Wait never ran
	b.pending.Store(0)
	select {
	case <-b.donec: // drop a stale completion token
	default:
	}
	b.q = nil
	batchPool.Put(b)
}

// prepare is the submission-validation pipeline shared by Submit and
// Batch.Submit: it resolves the spec's processor default, class and
// deadline in place and returns the class index. On error the caller owns
// the rejected counters' class slice being unknown — only the queue-wide
// rejected counter is incremented here.
func (q *Queue) prepare(spec *Spec) (int, error) {
	if spec.P == 0 && spec.N >= 1 {
		// Freeze the model-default processor count into the spec so the
		// submitter sees the p the job actually runs with.
		spec.P = core.ProcsFor(spec.N)
	}
	if spec.Priority == "" {
		spec.Priority = q.classes.specs[0].Name
	}
	if err := core.ValidateSpec(spec.Algorithm, spec.Engine, spec.N, spec.P); err != nil {
		q.rejected.Add(1)
		return 0, fmt.Errorf("jobqueue: invalid spec: %w", err)
	}
	class, ok := q.classes.index[spec.Priority]
	if !ok {
		q.rejected.Add(1)
		return 0, fmt.Errorf("%w %q (valid classes: %s)",
			ErrUnknownClass, spec.Priority, ClassSet(q.classes.specs).Names())
	}
	if spec.Timeout == 0 {
		// The class's default deadline applies when the spec carries
		// none; zero for both defers to Config.DefaultTimeout at run
		// time. Timeout is not part of the cache key.
		spec.Timeout = q.classes.specs[class].DefaultDeadline
	}
	return class, nil
}
