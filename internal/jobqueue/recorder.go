package jobqueue

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"lopram/internal/jobtrace"
)

// defaultTraceBuffer is the flight-recorder ring capacity when
// Config.TraceBuffer is unset: deep enough that a sink keeping up with
// steady completion throughput never drops, small enough that a stuck
// sink costs bounded memory.
const defaultTraceBuffer = 4096

// recorder is the queue's flight recorder: a bounded ring between the
// emitting hot paths (Submit, settle) and one flusher goroutine that
// feeds the configured sink. Emission is a non-blocking channel send —
// a full ring (sink too slow) drops the record and counts the drop, so
// tracing can never backpressure the queue. The ring channel is never
// closed: a Submit racing Close may still emit after the flusher has
// drained, and those records land in the drop counter instead of a
// panic.
type recorder struct {
	sink    jobtrace.Sink
	ring    chan jobtrace.Record
	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool
	emitted atomic.Int64
	dropped atomic.Int64
}

func newRecorder(sink jobtrace.Sink, buf int) *recorder {
	if buf <= 0 {
		buf = defaultTraceBuffer
	}
	r := &recorder{
		sink: sink,
		ring: make(chan jobtrace.Record, buf),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.flush()
	return r
}

// flush is the single goroutine that moves records from the ring to the
// sink; on stop it drains whatever the ring still holds before exiting,
// so Close leaves the sink complete.
func (r *recorder) flush() {
	defer close(r.done)
	for {
		select {
		case rec := <-r.ring:
			r.sink.Record(rec)
		case <-r.stop:
			for {
				select {
				case rec := <-r.ring:
					r.sink.Record(rec)
				default:
					return
				}
			}
		}
	}
}

// emit offers one record to the ring. Every record gets a sequence
// number (so the emitted total is exact and gaps in a sink's delivered
// sequence identify drops); records that find the ring full — or arrive
// after close began draining — are dropped and counted.
func (r *recorder) emit(rec jobtrace.Record) {
	rec.Seq = uint64(r.emitted.Add(1))
	if r.stopped.Load() {
		r.dropped.Add(1)
		return
	}
	select {
	case r.ring <- rec:
	default:
		r.dropped.Add(1)
	}
}

// close stops the flusher after a final drain and waits for it. Safe to
// call more than once.
func (r *recorder) close() {
	if r.stopped.CompareAndSwap(false, true) {
		close(r.stop)
	}
	<-r.done
}

// TraceStats reports the flight recorder's accounting: how many records
// the queue emitted and how many of those were dropped (ring full, or
// emitted after shutdown drained the ring). The configured sink has
// received emitted − dropped records once Close returns. Both are zero
// when no TraceSink is configured.
func (q *Queue) TraceStats() (emitted, dropped int64) {
	if q.rec == nil {
		return 0, 0
	}
	return q.rec.emitted.Load(), q.rec.dropped.Load()
}

// baseRecord seeds a completion record with a job's identity fields.
func (q *Queue) baseRecord(job *Job) jobtrace.Record {
	rec := jobtrace.Record{
		ID:          job.ID,
		Key:         job.Name,
		Class:       string(q.classes.specs[job.class].Name),
		ExecShard:   -1,
		StealOrigin: -1,
		SubmitNS:    job.submitted.UnixNano(),
	}
	if job.fn == nil {
		rec.Algorithm = job.Spec.Algorithm
		rec.Engine = string(job.Spec.Engine)
		rec.N = job.Spec.N
		rec.P = job.Spec.key().P
		rec.Seed = job.Spec.Seed
	}
	return rec
}

// recordServed emits the record of a submission served without
// executing: a cache hit (its own completed job) or a coalesce onto an
// in-flight one. Both settle instantly under the placement epoch they
// were submitted in.
func (q *Queue) recordServed(rec jobtrace.Record, disposition string, shard int, epoch uint64) {
	rec.Disposition = disposition
	rec.Outcome = jobtrace.OutcomeOK
	rec.SubmitShard = shard
	rec.EpochSubmit = epoch
	rec.EpochSettle = epoch
	q.rec.emit(rec)
}

// recordRejected emits the record of a submission refused by admission
// control; laneBound is the class-lane capacity it hit.
func (q *Queue) recordRejected(job *Job, shard int, epoch uint64, laneBound int) {
	rec := q.baseRecord(job)
	rec.Disposition = jobtrace.DispositionRejected
	rec.SubmitShard = shard
	rec.EpochSubmit = epoch
	rec.EpochSettle = epoch
	rec.LaneDepth = laneBound
	q.rec.emit(rec)
}

// recordExecuted emits the record of a run that reached a terminal
// state, called from settle with the epoch the settle landed on.
func (q *Queue) recordExecuted(job *Job, res Result, err error, settleEpoch uint64) {
	rec := q.baseRecord(job)
	rec.Disposition = jobtrace.DispositionExecuted
	rec.SubmitShard = job.submitShard
	rec.ExecShard = job.execShard
	rec.StealOrigin = job.stealFrom
	rec.EpochSubmit = job.submitEpoch
	rec.EpochSettle = settleEpoch
	rec.LaneDepth = job.laneDepth
	switch {
	case err == nil:
		rec.Outcome = jobtrace.OutcomeOK
	case isDeadline(err):
		rec.Outcome = jobtrace.OutcomeTimeout
		rec.Error = err.Error()
	default:
		rec.Outcome = jobtrace.OutcomeError
		rec.Error = err.Error()
		var rp *runPanic
		if errors.As(err, &rp) {
			rec.Error += "\n" + string(rp.stack)
		}
	}
	job.mu.Lock()
	started, finished := job.started, job.finished
	job.mu.Unlock()
	if !started.IsZero() {
		rec.StartNS = started.UnixNano()
		rec.WaitMS = float64(started.Sub(job.submitted)) / float64(time.Millisecond)
	}
	if !finished.IsZero() {
		rec.FinishNS = finished.UnixNano()
		if !started.IsZero() {
			rec.RunMS = float64(finished.Sub(started)) / float64(time.Millisecond)
		}
	}
	if err == nil && res.Sched != nil {
		rec.Sched = &jobtrace.SchedCounters{
			Spawned: res.Sched.Spawned,
			Stolen:  res.Sched.Stolen,
			Inlined: res.Sched.Inlined,
		}
	}
	q.rec.emit(rec)
}

// isDeadline matches the deadline failure settle sees for a blown
// per-job timeout (runJob wraps context.DeadlineExceeded).
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}
