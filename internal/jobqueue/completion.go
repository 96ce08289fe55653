package jobqueue

import (
	"sync"
	"time"
)

// The lock-light completion path. A worker does not settle each finished
// job against its home shard individually: it accumulates outcomes in a
// per-worker completion buffer and publishes a whole buffer under one
// shard-lock acquisition per home shard (flushCompletions). Latency
// samples and per-algorithm aggregates never touch a shard at all — they
// land on the worker's own metric shard (workerMetrics), merged only by
// Snapshot. The per-job hot path therefore writes worker-local memory
// plus the existing atomics; shard mutexes are amortized over a flush.
//
// The flush contract: a job's signalDone (and so every Wait on it, and
// its batch's pending count) fires only from the flush that published
// its outcome — after the cache insert, inflight delete, counters and
// trace record. That is the PR 3 settle-before-signal ordering, widened
// from one job to a buffer: a submitter whose Wait returned can still
// rely on the result cache already holding the outcome.

// completionFlushK is the completion-buffer flush threshold: a worker
// publishes its buffered outcomes at K, or earlier whenever it would
// otherwise park, dispatch a run not predicted cheap (the runner path,
// func jobs included), or block waiting out an abandoned run — any point
// where holding completions would delay their waiters behind unrelated
// work. Only inline runs, predicted far under their deadlines, may
// accumulate behind one another.
const completionFlushK = 32

// completion is one buffered finished-job outcome, carrying everything
// the flush needs so phase 2 never re-derives state from the job under
// its lock.
type completion struct {
	job *Job
	key Key // zero for func jobs
	// name keys the per-algorithm aggregate (the algorithm, or the func
	// job's name).
	name   string
	res    Result
	err    error
	wallMS float64
	waitMS float64
	// shard/epoch/published are flush-local: the home-shard index under
	// the table a flush pass resolved, the epoch that pass published
	// under, and whether the keyed state has landed (a retired shard
	// makes the flush retry; already-published items are skipped).
	shard     int
	epoch     uint64
	published bool
}

// workerMetrics is one worker's metric shard: the latency rings and
// per-algorithm aggregates that used to live on the job's home shard.
// Only the owning worker writes (under mu, so Snapshot can read a
// coherent window); a resize neither moves nor resets them — the pool
// only grows, and samples stay where they were recorded.
type workerMetrics struct {
	mu        sync.Mutex
	wall      sampleRing
	wait      sampleRing
	classWall []sampleRing // indexed by class-set position
	classWait []sampleRing
	perAlgo   map[string]*algoAggregate
}

func newWorkerMetrics(numClasses int) *workerMetrics {
	return &workerMetrics{
		classWall: make([]sampleRing, numClasses),
		classWait: make([]sampleRing, numClasses),
		perAlgo:   make(map[string]*algoAggregate),
	}
}

// workerState is the per-worker completion state threaded through the
// dequeue loop: the outcome buffer and the worker's metric shard. It
// survives re-homing (a resize does not reset it); the worker's exit
// path flushes whatever remains before the pool's WaitGroup releases
// Close.
type workerState struct {
	buf []completion
	wm  *workerMetrics
	// Run-path scratch owned by shard.go's runJob: the persistent
	// runner lane for algorithm jobs, the reusable run reply cell, and
	// the per-worker deadline timer that stands in for a per-job
	// context.WithTimeout. All three are lazily built and survive
	// re-homing; an abandoned run drops the lane and the cell (their
	// signals belong to the background watcher by then).
	runner   chan runTask
	rs       *runState
	deadline *time.Timer
}

// bufferCompletion records one finished job on the worker's completion
// buffer, flushing at the K threshold. wall is the execution time to
// sample (the runner's measured wall for completed runs, the elapsed
// deadline for timeouts); start is when the run began, which with the
// job's submit time yields the queueing latency without touching job.mu.
func (q *Queue) bufferCompletion(ws *workerState, job *Job, res Result, err error, wall time.Duration, start time.Time) {
	name := job.Spec.Algorithm
	if name == "" {
		name = job.Name
	}
	var key Key
	if job.fn == nil {
		key = job.Spec.key()
	}
	ws.buf = append(ws.buf, completion{
		job:    job,
		key:    key,
		name:   name,
		res:    res,
		err:    err,
		wallMS: float64(wall) / float64(time.Millisecond),
		waitMS: float64(start.Sub(job.submitted)) / float64(time.Millisecond),
	})
	if len(ws.buf) >= completionFlushK {
		q.flushCompletions(ws)
	}
}

// flushCompletions publishes every buffered outcome. Two phases:
//
// Phase 1 lands the keyed state — inflight-entry delete and cache
// insert — on each outcome's home shard under the *current* placement
// table, one lock acquisition per home shard per pass. Each cache insert
// is O(1) and visible to lock-free readers at once (see resultCache). A
// shard caught mid-retirement is skipped and the pass retried against
// the new table (per-item published flags keep landed items from
// re-publishing), the same forwarding rule the per-job settle used:
// results land where duplicates will look for them.
//
// Phase 2 records the worker-local metrics (one lock on the worker's
// own metric shard for the whole buffer), then per item: completes the
// chained duplicate frames, feeds the cost calibrator, bumps the
// completion counters, emits the trace record, and only then calls
// signalDone — so everything a woken waiter may observe is already in
// place.
func (q *Queue) flushCompletions(ws *workerState) {
	if len(ws.buf) == 0 {
		return
	}
	for {
		p := q.place.Load()
		n := len(p.shards)
		unpublished := 0
		for i := range ws.buf {
			c := &ws.buf[i]
			if c.published {
				continue
			}
			if c.job.fn == nil {
				c.shard = shardIndexFor(c.key, n)
			} else {
				c.shard = shardIndexForName(c.job.Name, n)
			}
			unpublished++
		}
		if unpublished == 0 {
			break
		}
		retry := false
		for si := 0; si < n; si++ {
			hit := false
			for i := range ws.buf {
				if !ws.buf[i].published && ws.buf[i].shard == si {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			s := p.shards[si]
			s.mu.Lock()
			if s.retired {
				s.mu.Unlock()
				retry = true
				continue
			}
			for i := range ws.buf {
				c := &ws.buf[i]
				if c.published || c.shard != si {
					continue
				}
				if c.job.fn == nil {
					if s.inflight[c.key] == c.job {
						delete(s.inflight, c.key)
					}
					if c.err == nil {
						// The entry keeps the job's name as is, none for
						// an untraced pooled frame (see serveCached). The
						// frame lives until its batch's Wait returns,
						// after this flush.
						s.cache.put(c.key, c.job.Name, c.res, false)
					}
				}
				c.epoch = p.epoch
				c.published = true
			}
			s.mu.Unlock()
		}
		if !retry {
			break
		}
		retryPlacement()
	}

	if ws.wm != nil {
		wm := ws.wm
		wm.mu.Lock()
		for i := range ws.buf {
			c := &ws.buf[i]
			wm.wall.add(c.wallMS)
			wm.wait.add(c.waitMS)
			wm.classWall[c.job.class].add(c.wallMS)
			wm.classWait[c.job.class].add(c.waitMS)
			agg := wm.perAlgo[c.name]
			if agg == nil {
				agg = &algoAggregate{}
				wm.perAlgo[c.name] = agg
			}
			agg.count++
			if c.err != nil {
				agg.failed++
			}
			agg.totalWallMS += c.wallMS
		}
		wm.mu.Unlock()
	}

	for i := range ws.buf {
		c := &ws.buf[i]
		job := c.job
		// Complete the duplicates coalesced onto this job while it was in
		// flight. The inflight entry was removed in phase 1, so no
		// further submission can chain on; completing after the cache
		// write preserves the signal ordering for the chained waiters too.
		job.mu.Lock()
		chained := job.chained
		job.chained = nil
		job.mu.Unlock()
		if len(chained) > 0 {
			now := time.Now()
			for _, ch := range chained {
				ch.markFinished(c.res, c.err, now)
				ch.signalDone()
			}
		}
		if c.err == nil && q.cal != nil {
			q.cal.observe(job, c.res.Wall)
		}
		if c.err != nil {
			q.failed.Add(1)
			q.perClass[job.class].failed.Add(1)
		} else {
			q.completed.Add(1)
			q.perClass[job.class].completed.Add(1)
		}
		if q.rec != nil {
			q.recordExecuted(job, c.res, c.err, c.epoch)
		}
		job.signalDone()
		*c = completion{}
	}
	ws.buf = ws.buf[:0]
}
