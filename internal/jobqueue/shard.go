package jobqueue

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobcost"
)

// stealPoll is the fallback interval at which an idle worker re-sweeps
// the other shards for stealable work. The enqueue-time kick is the fast
// wake path; the poll only covers kick loss under pathological timing,
// so it can be slow enough to cost nothing on an idle queue. It also
// bounds how long an idle worker can sit on a superseded placement table
// before re-homing.
const stealPoll = 10 * time.Millisecond

// shard is one independent slice of the queue: its own run queues,
// worker pool, coalescing map, and result cache. All mutable state is
// guarded by mu except the atomic gauges and the cache's lock-free read
// side (lookup); nothing on a shard is touched by another shard's
// submissions, so contention is confined to the traffic hashed here.
// (Latency rings and per-algorithm aggregates live on the workers' own
// metric shards — see workerMetrics — not here.)
type shard struct {
	idx int
	// lanes holds the admitted-but-not-started jobs, one run queue per
	// lane of the queue's layout (Queue.laneOf), guarded by mu. Workers
	// serve the strict lanes first, then the weighted lanes round-robin.
	lanes []lane

	// laneDepths is each class's admission bound and laneUsed its
	// current admitted-but-not-started count. Admission is enforced by
	// the counter alone: a resize re-pushes a migrated backlog past it,
	// so migration can never be refused, but laneUsed starts at the
	// migrated count, so the *admission* bound stays the configured depth
	// across epochs.
	laneDepths []int
	laneUsed   []atomic.Int64

	mu     sync.Mutex
	closed bool
	// retired marks a shard swapped out of the placement table by a
	// resize: its keyed state has migrated (or is migrating) to the new
	// table. Writers and readers that catch the flag reload the table
	// and retry; only the executed/stolen counters stay meaningful.
	retired  bool
	byID     map[uint64]*Job
	retained []uint64 // submission order, for retention eviction
	inflight map[Key]*Job
	cache    *resultCache // written under mu; read through cacheLive
	limit    int          // retention bound for this shard

	// cacheLive points at cache while the shard serves cache reads: nil
	// when caching is disabled, after Close, and on retired shards.
	// lookup reads through it, so a reader still holding a closed or
	// retired shard can only miss, or read an immutable, once-valid
	// result.
	cacheLive atomic.Pointer[resultCache]

	pending  atomic.Int64 // jobs admitted here, not yet started
	executed atomic.Int64 // runs of jobs homed here (by any worker)
	stolen   atomic.Int64 // jobs this shard's workers took from other shards
}

// newShard builds shard idx of an n-shard table: the configured queue
// depth, cache and retention budgets are sliced evenly over the n
// shards, and each class's admission bound is its quota of the depth.
func (q *Queue) newShard(idx, n int) *shard {
	depth := perShard(q.cfg.QueueDepth, n)
	cacheCap := 0
	if q.cfg.CacheSize > 0 {
		cacheCap = perShard(q.cfg.CacheSize, n)
	}
	classes := len(q.classes.specs)
	s := &shard{
		idx:        idx,
		lanes:      make([]lane, classes),
		laneDepths: make([]int, classes),
		laneUsed:   make([]atomic.Int64, classes),
		byID:       make(map[uint64]*Job),
		inflight:   make(map[Key]*Job),
		cache:      newResultCache(cacheCap),
		limit:      perShard(q.cfg.Retain, n),
	}
	if cacheCap > 0 {
		s.cacheLive.Store(s.cache)
	}
	for c := range s.lanes {
		s.lanes[c].deq = q.deq
		s.laneDepths[c] = q.classes.laneDepth(c, depth)
	}
	return s
}

// lookup is the one cache read of both hit paths: probeCache calls it
// without the lock, admitLocked under s.mu. A hit sets the entry's
// CLOCK reference bit.
func (s *shard) lookup(key Key) (*cacheEntry, bool) {
	c := s.cacheLive.Load()
	if c == nil {
		return nil, false
	}
	return c.get(key)
}

// insertLocked registers the job for Get/Jobs and evicts over-retention
// terminal jobs; the caller holds s.mu.
func (s *shard) insertLocked(job *Job) {
	s.byID[job.ID] = job
	s.retained = append(s.retained, job.ID)
	s.trimRetention()
}

// ---- placement hashing ----

// hash is the shard-placement hash of a key: FNV-1a over every field, so
// placement is deterministic across queues and processes with the same
// shard count, and identical specs always meet on one shard.
func (k Key) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	h.Write([]byte(k.Algorithm))
	h.Write([]byte{0})
	h.Write([]byte(k.Engine))
	h.Write([]byte{0})
	for _, v := range [...]uint64{uint64(int64(k.N)), uint64(int64(k.P)), k.Seed} {
		putUint64LE(&buf, v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func putUint64LE(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

// ---- the worker loop ----

// worker is the run loop of one pool worker, identified by its stable
// index into the pool. The worker's home shard is a function of the
// current placement table (workerHome: fair-share dealing, per-shard
// worker counts within one of each other); when a resize supersedes the
// table the worker re-homes against the new one and continues. Credits
// and rotation — the worker's DWRR fairness state — survive re-homing,
// so a resize does not reset the dequeue discipline mid-round.
func (q *Queue) worker(idx int) {
	defer q.workers.Done()
	ws := &workerState{wm: (*q.workerM.Load())[idx]}
	// Flush the completion buffer on the way out — registered after the
	// WaitGroup Done above so it runs first: Close's workers.Wait cannot
	// return while any worker still holds unpublished outcomes. The
	// runner lane closes with the worker: it is idle whenever the worker
	// is between jobs, so the close is never mid-run.
	defer func() {
		if ws.runner != nil {
			close(ws.runner)
		}
		if ws.deadline != nil {
			ws.deadline.Stop()
		}
	}()
	defer q.flushCompletions(ws)
	timer := time.NewTimer(stealPoll)
	defer timer.Stop()
	credits := make([]int, len(q.classes.specs))
	rot := 0
	for {
		if q.runEpoch(idx, q.place.Load(), credits, &rot, timer, ws) {
			return
		}
	}
}

// runEpoch runs the dequeue loop against one placement table until the
// table is superseded by a resize (false: the caller re-homes) or the
// queue is closed and drained (true: the worker exits). Every dequeue
// policy runs this one loop; the policy only orders the jobs within a
// lane (see lane and Queue.laneOf).
//
// When nothing is runnable the worker parks on the queue-wide kick
// (every enqueue, every class, publishes one) with a slow fallback poll.
// It exits only after it saw its home shard closed under the shard lock
// and a dequeue sweep after that found nothing: Close sets every closed
// flag before it kicks, and nothing is enqueued on a closed shard, so
// that sweep proves every lane of the table empty. An exiting worker
// kicks the next, and every shard has a home worker, so the pool drains
// every lane before it stops.
func (q *Queue) runEpoch(idx int, p *placement, credits []int, rot *int, timer *time.Timer, ws *workerState) bool {
	home := p.shards[workerHome(idx, len(p.shards), p.workers)]
	closed := false
	for {
		if q.place.Load() != p {
			return false // table superseded: re-home
		}
		if owner, job := q.dequeue(p, home, credits, rot); job != nil {
			// Chain the wakeup before going busy: this worker may hold
			// the only kick token while another shard's job (its own
			// kick dropped at capacity 1) waits for a sweep.
			q.kickWorkers()
			q.runJob(owner, home.idx, job, ws)
			continue
		}
		if closed {
			q.kickWorkers() // the next parked worker sees its own flag
			return true
		}
		if q.closed.Load() {
			// Close flags the queue before its shards; only then is the
			// contended home lock worth taking.
			home.mu.Lock()
			closed = home.closed
			home.mu.Unlock()
			if closed {
				continue
			}
		}
		// Parking with buffered completions would strand their waiters
		// until the next dequeue round; publish them first.
		q.flushCompletions(ws)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(stealPoll)
		select {
		case <-q.kick:
		case <-timer.C:
		}
	}
}

// dequeue pops the next job the discipline serves and the shard it was
// queued on, or nil when every lane of every shard is empty:
//
//   - Strict lanes are probed first, in class-set order, and re-probed
//     before every dequeue, so no weighted job starts anywhere while a
//     strict job waits anywhere — stolen work included: a thief always
//     takes a waiting strict job over any weighted one. With the default
//     class set: interactive always before batch.
//   - Weighted lanes share the remaining dequeues deficit-weighted
//     round-robin: each worker keeps a per-lane credit balance,
//     replenished by weight when every balance is spent; a dequeue costs
//     one credit, and a lane found empty forfeits its remaining credits
//     for the round (work-conserving — an idle lane never banks credit).
//     Under sustained all-class load each round starts Weight jobs per
//     class, so class throughput is proportional to weight and every
//     weighted class keeps making progress. Under an ordering policy the
//     weighted classes share one lane, so the policy alone orders them.
func (q *Queue) dequeue(p *placement, home *shard, credits []int, rot *int) (*shard, *Job) {
	for _, l := range q.classes.strict {
		if owner, job := q.popLane(p, home, l); job != nil {
			return owner, job
		}
	}
	// Two DWRR passes: pass one may find only creditless backlogged
	// lanes (credit-holders all empty, forfeiting to zero); the second
	// pass then replenishes and probes every weighted lane, so nil
	// afterwards means all of them were truly empty.
	w := q.weightedLanes
	for pass := 0; pass < 2 && len(w) > 0; pass++ {
		spent := true
		for _, l := range w {
			if credits[l] > 0 {
				spent = false
				break
			}
		}
		if spent {
			for _, l := range w {
				credits[l] = q.classes.specs[l].Weight
			}
		}
		for i := range w {
			k := (*rot + i) % len(w)
			l := w[k]
			if credits[l] <= 0 {
				continue
			}
			owner, job := q.popLane(p, home, l)
			if job == nil {
				credits[l] = 0 // found empty: forfeit the round's remainder
				continue
			}
			credits[l]--
			*rot = k // keep serving this lane until its credit drains
			if credits[l] == 0 {
				*rot = (k + 1) % len(w) // quantum spent: move on
			}
			return owner, job
		}
	}
	return nil, nil
}

// popLane pops lane l on the home shard, else on the other shards in
// rotor order from home. Each probe reads the lane's atomic length and
// takes that shard's lock only to pop. A job taken from another shard
// counts as stolen by home, and its owner is the shard it came from, so
// the run's execution accounting lands there.
func (q *Queue) popLane(p *placement, home *shard, l int) (*shard, *Job) {
	n := len(p.shards)
	for off := 0; off < n; off++ {
		s := p.shards[(home.idx+off)%n]
		if s.lanes[l].n.Load() == 0 {
			continue
		}
		s.mu.Lock()
		job := s.lanes[l].pop()
		s.mu.Unlock()
		if job != nil {
			if s != home {
				home.stolen.Add(1)
			}
			return s, job
		}
	}
	return nil, nil
}

// ---- job execution ----

// runState carries one run's outcome from the runner goroutine back to
// the dequeuing worker: the runner computes res/err, records whether it
// won the job's terminal transition, and sends on done (buffered, one
// slot, exactly one receiver per run) — the writes happen-before the
// send, so the worker reads them race-free after receiving. The
// winner's outcome is then buffered on the worker's completion buffer
// rather than settled inline. Each worker reuses one runState across
// runs (ws.rs); only an abandoned run's state is dropped, because its
// done signal belongs to the background watcher.
type runState struct {
	done chan struct{}
	res  Result
	err  error
	won  bool
}

// runTask is one algorithm run handed to a worker's persistent runner
// lane: the job, the reply cell, the run's start instant and deadline.
type runTask struct {
	job     *Job
	rs      *runState
	start   time.Time
	timeout time.Duration
}

// inlineUnitWall is the per-unit wall-clock ceiling the inline gate
// prices predictions at: an order of magnitude above the slowest
// per-unit scale ever measured on the tracked engines (sim DP families
// run ~µs/unit), so a run the gate admits inline is pessimistically
// priced before the 10x margin is applied on top.
const inlineUnitWall = 10 * time.Microsecond

// runsInline reports whether a job is safe to execute on the dequeuing
// worker itself instead of the runner lane: the static cost model knows
// the spec, and even priced at inlineUnitWall with a further 10x margin
// the predicted run lands under its deadline. Such a run cannot
// plausibly need the abandonment machinery, so it skips the handoff,
// the deadline timer and the select entirely; the deadline is enforced
// after the fact instead. Func jobs and unknown specs always take the
// runner path, as does any job whose timeout is tight enough that
// abandonment is a live possibility.
func runsInline(job *Job, timeout time.Duration) bool {
	if job.fn != nil {
		return false
	}
	est := jobcost.Predict(job.Spec.Algorithm, job.Spec.Engine, job.Spec.N, job.Spec.key().P)
	if !est.Known {
		return false
	}
	// Float comparison: huge unit counts must not overflow the pricing
	// into a spuriously small Duration.
	return est.Units*float64(inlineUnitWall)*10 < float64(timeout)
}

// runnerLoop is a worker's persistent runner: it executes algorithm
// jobs handed over the lane one at a time, so the steady-state run
// path costs no goroutine spawn. The loop exits when the lane closes —
// at worker exit, or at detach when the worker abandons a
// deadline-blown run (the abandoned run finishes first; the worker
// opens a fresh lane for its next job).
func (q *Queue) runnerLoop(in chan runTask) {
	for t := range in {
		q.executeRun(t)
	}
}

// executeRun performs one algorithm run and signals the reply cell.
// The orphan count was taken by the dispatching worker; the deferred
// chain here mirrors the original per-job runner goroutine: release
// the pooled-frame touch, then signal done, then drop the orphan.
func (q *Queue) executeRun(t runTask) {
	defer q.orphans.Done()
	job, rs := t.job, t.rs
	defer func() { rs.done <- struct{}{} }()
	if job.pooled {
		defer job.touches.Add(-1)
	}
	o, err := runSpec(&job.Spec)
	rs.res, rs.won, rs.err = q.finishRun(job, Result{Outcome: o, Wall: time.Since(t.start)}, err, t.timeout)
}

// runPanic is the error of a run that panicked: it wraps ErrRunPanic and
// carries the panic value, and the stack for the job's trace record.
type runPanic struct {
	value any
	stack []byte
}

func (e *runPanic) Error() string { return fmt.Sprintf("%v: %v", ErrRunPanic, e.value) }

func (e *runPanic) Unwrap() error { return ErrRunPanic }

// recoverRun, deferred at a run site, turns a panic of the run into the
// run's error, so the worker that ran it keeps serving.
func recoverRun(err *error) {
	if v := recover(); v != nil {
		*err = &runPanic{value: v, stack: debug.Stack()}
	}
}

// runSpec runs an algorithm job's spec: the run site of the inline path
// and of the runner lane.
func runSpec(s *Spec) (o core.Outcome, err error) {
	defer recoverRun(&err)
	return core.RunAlgorithm(s.Algorithm, s.Engine, s.N, s.P, s.Seed)
}

// runFunc runs a func job's function: the run site of its goroutine.
func runFunc(ctx context.Context, fn func(context.Context) error) (err error) {
	defer recoverRun(&err)
	return fn(ctx)
}

// finishRun turns a returned run terminal and reports the outcome it
// recorded and whether it won the job's terminal transition — it loses
// to the worker's deadline finish when the job was abandoned, and the
// computed result is dropped. A run that outlived its deadline fails
// after the fact and counts as a timeout: runs are never preempted, and
// with the worker's P busy its deadline timer may not fire before the
// run returns.
func (q *Queue) finishRun(job *Job, res Result, err error, timeout time.Duration) (Result, bool, error) {
	late := res.Wall > timeout
	if late {
		res, err = Result{Wall: res.Wall}, deadlineErr(job, timeout)
	}
	won := job.markFinished(res, err, time.Now())
	if won && late {
		q.timeouts.Add(1)
	}
	return res, won, err
}

// deadlineErr is the failure of a job that exceeded its deadline. An
// untraced pooled frame carries no rendered name, so the error renders
// its spec: this path is rare enough to pay for one.
func deadlineErr(job *Job, timeout time.Duration) error {
	name := job.Name
	if name == "" {
		name = job.Spec.String()
	}
	return fmt.Errorf("jobqueue: job %s exceeded its %v deadline: %w", name, timeout, context.DeadlineExceeded)
}

// runJob executes one job under its deadline; owner is the shard the job
// was dequeued from and homeIdx the running worker's home shard (they
// differ when the job was stolen). The engine run itself is not
// preemptible (an activated job "remains active just like a standard
// thread"), so a blown deadline fails the job immediately; the worker
// then either abandons the run to finish in the background (its result
// dropped) if the orphan budget allows, or waits it out to bound total
// concurrency. The finished job's settle work is deferred to the
// worker's completion buffer (bufferCompletion/flushCompletions).
func (q *Queue) runJob(owner *shard, homeIdx int, job *Job, ws *workerState) {
	timeout := q.cfg.DefaultTimeout
	if job.Spec.Timeout > 0 {
		timeout = job.Spec.Timeout
	}
	inline := runsInline(job, timeout)
	if !inline {
		// Publish buffered completions before any run not predicted
		// cheap: their waiters (and the duplicates chained onto them)
		// must not sit behind an unrelated long run. For a func job it
		// is also deadlock avoidance — the func may Submit a key whose
		// unflushed winner sits in this very buffer and Wait on it, and
		// a terminal job only signals at its owning flush.
		q.flushCompletions(ws)
	}
	q.pending.Add(-1)
	owner.pending.Add(-1)
	owner.laneUsed[job.class].Add(-1)
	owner.executed.Add(1)
	// Written before the runner goroutine exists and before any flush
	// can run; read only at the completion flush. A steal is a run by a
	// worker homed elsewhere: the origin is the shard it was dequeued
	// from.
	job.execShard = homeIdx
	if owner.idx != homeIdx {
		job.stealFrom = owner.idx
	}

	if job.pooled {
		// Live references from here: this worker, plus the runner
		// goroutine below unless the run is inline. Each drops its count
		// after its last touch, so Batch.Release recycles the frame only
		// once neither an abandoned run nor a racing deadline loser can
		// still write to it.
		if inline {
			job.touches.Store(1)
		} else {
			job.touches.Store(2)
		}
		defer job.touches.Add(-1)
	}
	start := time.Now()
	if !job.markRunning(start) {
		return
	}
	q.running.Add(1)
	defer q.running.Add(-1)

	if inline {
		// The fast path: the run is predicted orders of magnitude under
		// its deadline, so the abandonment machinery cannot plausibly be
		// needed — execute on this worker with no handoff, no timer and
		// no select. The deadline still holds, enforced after the fact:
		// a mispredicted run that does blow it fails exactly like a
		// held-out deadline run whose orphan budget was exhausted (the
		// worker rode out the whole run either way).
		o, err := runSpec(&job.Spec)
		res, won, err := q.finishRun(job, Result{Outcome: o, Wall: time.Since(start)}, err, timeout)
		if won {
			q.bufferCompletion(ws, job, res, err, res.Wall, start)
		}
		return
	}

	rs := ws.rs
	if rs == nil {
		rs = &runState{done: make(chan struct{}, 1)}
	}
	ws.rs = nil // in flight; restored on every path where this worker receives done

	// Algorithm jobs never consume a context — the engines are not
	// preemptible — so they skip context.WithTimeout entirely: the
	// deadline is the worker's reusable timer, and the run itself goes
	// to the worker's persistent runner lane. Only func jobs, which do
	// take a cancellation context, pay for one (and for a one-shot
	// goroutine: a fn may block past its abandonment, and the lane must
	// stay free for cheap algorithm runs).
	var ctxDone <-chan struct{}
	var timerC <-chan time.Time
	q.orphans.Add(1)
	if job.fn != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		ctxDone = ctx.Done()
		go func() {
			defer q.orphans.Done()
			defer func() { rs.done <- struct{}{} }()
			if job.pooled {
				defer job.touches.Add(-1)
			}
			err := runFunc(ctx, job.fn)
			rs.res, rs.won, rs.err = q.finishRun(job, Result{Wall: time.Since(start)}, err, timeout)
		}()
	} else {
		if ws.deadline == nil {
			ws.deadline = time.NewTimer(timeout)
		} else {
			ws.deadline.Reset(timeout)
		}
		timerC = ws.deadline.C
		if ws.runner == nil {
			// One slot so the dispatch never blocks (and never direct-
			// hands the P to the runner before this worker reaches its
			// deadline select); the protocol below keeps at most one
			// task in flight per lane.
			ws.runner = make(chan runTask, 1)
			go q.runnerLoop(ws.runner)
		}
		ws.runner <- runTask{job: job, rs: rs, start: start, timeout: timeout}
	}

	deadlined := false
	select {
	case <-rs.done:
	case <-ctxDone:
		deadlined = true
	case <-timerC:
		deadlined = true
	}
	if !deadlined {
		if timerC != nil {
			ws.deadline.Stop()
		}
		ws.rs = rs
		if rs.won {
			q.bufferCompletion(ws, job, rs.res, rs.err, rs.res.Wall, start)
		}
	} else {
		err := deadlineErr(job, timeout)
		if !job.markFinished(Result{}, err, time.Now()) {
			// The runner finished in the same instant and won; adopt its
			// outcome once rs.done publishes the fields.
			<-rs.done
			ws.rs = rs
			if rs.won {
				q.bufferCompletion(ws, job, rs.res, rs.err, rs.res.Wall, start)
			}
			return
		}
		q.timeouts.Add(1)
		q.bufferCompletion(ws, job, Result{}, err, time.Since(start), start)
		// The orphan budget: a worker may abandon a deadline-blown run
		// (leaving it to finish in the background) only while fewer than
		// 2× the current pool's runs are already abandoned, so hostile
		// timeout traffic cannot accumulate unbounded concurrent runs.
		// The abandoned gauge doubles as the budget counter — claimed by
		// CAS so a budget-exhausted worker never inflates the gauge even
		// transiently — and the limit reads the live table, so a pool
		// grown by Resize keeps its per-worker abandonment headroom.
		limit := int64(2 * q.place.Load().workers)
		abandoned := false
		for {
			cur := q.abandonedG.Load()
			if cur >= limit {
				break
			}
			if q.abandonedG.CompareAndSwap(cur, cur+1) {
				abandoned = true
				break
			}
		}
		if abandoned {
			// Budget claimed: abandon the run and free this worker. A
			// watcher returns the slot when the run drains; the runState
			// goes with it, and an abandoned algorithm run detaches the
			// runner lane too — its goroutine finishes the blown run and
			// exits, and the next dispatch opens a fresh lane.
			if job.fn == nil && ws.runner != nil {
				close(ws.runner)
				ws.runner = nil
			}
			q.orphans.Add(1)
			go func() {
				defer q.orphans.Done()
				<-rs.done
				q.abandonedG.Add(-1)
			}()
		} else {
			// Orphan budget exhausted: hold this worker until the run
			// completes so deadline abuse cannot stack up unbounded
			// concurrent runs. The wait can span the whole run; publish
			// the buffered completions (this timeout included) first so
			// their waiters are not held hostage to the abandoned run.
			q.flushCompletions(ws)
			<-rs.done
			ws.rs = rs
		}
	}
}
