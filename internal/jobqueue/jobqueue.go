package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/jobtrace"
)

// Errors returned by Submit and Result.
var (
	// ErrQueueFull reports that admission control refused the job: its
	// priority class's share of the target shard's pending queue is at
	// capacity. Retry later or raise Config.QueueDepth.
	ErrQueueFull = errors.New("jobqueue: queue full")
	// ErrClosed reports that the queue is shut down.
	ErrClosed = errors.New("jobqueue: queue closed")
	// ErrNotFinished reports that Result was called on a job still in
	// flight.
	ErrNotFinished = errors.New("jobqueue: job not finished")
	// ErrRunPanic marks the failure of a job whose run panicked, in an
	// engine or in a func job's function. The worker recovers and keeps
	// serving; the job's error wraps ErrRunPanic and carries the panic
	// value, and its trace record's Error adds the stack.
	ErrRunPanic = errors.New("jobqueue: run panicked")
)

const (
	// shardBits is how many low bits of a job ID encode its birth shard.
	shardBits = 6
	// MaxShards bounds Config.Shards and Resize targets: shard indices
	// must fit in the shardBits low bits of every job ID.
	MaxShards = 1 << shardBits
)

// Config sizes a Queue. The zero value selects sensible defaults.
type Config struct {
	// Workers is the total worker count across all shards: the number of
	// jobs executing concurrently. Defaults to the host's core count —
	// one dispatch worker per hardware core, mirroring the machine
	// model's fixed p. Each shard gets at least one worker, so the
	// effective total is max(Workers, Shards) — and a Resize past the
	// worker count grows the pool to keep that invariant.
	Workers int
	// Shards is the initial number of independent queue shards (run
	// queue + worker pool + cache + metric rings). Placement is by key
	// hash against the current placement table, so identical specs
	// always land on the same shard of an epoch. Default 1; capped at
	// MaxShards. The count can change at runtime via Resize or the
	// autoscaler; state migrates with the keys.
	Shards int
	// QueueDepth is the base admission capacity: the bound on
	// admitted-but-not-started jobs of a full-quota class across the
	// whole queue, sliced evenly per shard. Each priority class rides in
	// its own lane of Quota×QueueDepth on top of the others (total
	// pending is therefore bounded by Σ quotas × QueueDepth), so no
	// class can consume another's admission slots. Submissions beyond a
	// shard's class lane fail fast with ErrQueueFull. Default 1024.
	QueueDepth int
	// CacheSize is the total result-cache capacity in entries, divided
	// evenly among shards; each shard evicts by CLOCK, an approximate
	// LRU. Each shard allocates its bucket table up front, 16–32 bytes
	// per entry of capacity (a power-of-two table of at least 2×
	// capacity), and entries as results arrive. Default 512; negative
	// disables caching.
	CacheSize int
	// DefaultTimeout caps each job's execution when neither its spec nor
	// its priority class sets a deadline. Default 60s.
	DefaultTimeout time.Duration
	// Retain bounds how many terminal jobs stay queryable by ID, divided
	// evenly among shards. Default 4096.
	Retain int
	// BatchShare sizes the batch class's admission quota in the default
	// class set, as a fraction of each shard's base depth; the
	// interactive class always keeps its full depth to itself. Default
	// 0.5; values are clamped to (0, 1] and every shard keeps at least
	// one batch slot. Ignored when Classes is set — put the quota on the
	// batch class's ClassSpec instead.
	BatchShare float64
	// Classes is the priority-class set the queue serves: an ordered
	// list of named classes, each with a dequeue weight (WeightStrict
	// for strict priority, >= 1 for a deficit-weighted round-robin
	// share) and an admission quota. Empty selects
	// DefaultClasses(BatchShare) — strict interactive over weight-1
	// batch, the original two-class behavior. New panics if the set
	// fails (ClassSet).Validate; parse user input with ParseClassSet to
	// reject it gracefully first.
	Classes ClassSet
	// Policies selects the dequeue and admission policies. The zero
	// value is the native default behavior (strict-then-DWRR dequeue,
	// static lane-quota admission), byte-identical to a queue built
	// before the policy layer existed. New panics on unknown policy
	// names — validate user input with ParseDequeuePolicy /
	// ParseAdmissionPolicy first.
	Policies Policies
	// Autoscale opts the queue into contention-driven shard autoscaling:
	// a controller resizes the placement table between the configured
	// bounds from observed queue depth and steal pressure. Nil (the
	// default) keeps the shard count fixed unless Resize is called
	// explicitly. New panics if the config fails Validate.
	Autoscale *AutoscaleConfig
	// TraceSink attaches a flight recorder: every submission the queue
	// settles (executed, cache hit, coalesced) or refuses (class lane
	// full) emits one jobtrace.Record through a bounded ring to this
	// sink. Nil (the default) disables the recorder entirely — the hot
	// paths then skip record construction, so tracing costs nothing
	// when off. The queue never closes the sink; Close drains the ring
	// first, so once it returns the sink holds every non-dropped record
	// (see TraceStats).
	TraceSink jobtrace.Sink
	// TraceBuffer is the recorder ring's capacity in records; a full
	// ring drops records (counted in TraceStats / Metrics) rather than
	// block the queue. Default 4096.
	TraceBuffer int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 4096
	}
	if c.BatchShare <= 0 || c.BatchShare > 1 {
		c.BatchShare = 0.5
	}
	return c
}

// perShard divides a queue-wide budget into an even per-shard slice,
// rounding up so no shard gets zero.
func perShard(total, shards int) int {
	return (total + shards - 1) / shards
}

// Queue is the dispatch service. Create with New, stop with Close. All
// methods are safe for concurrent use.
type Queue struct {
	cfg     Config
	classes classSet
	// place is the current epoch's placement table — the one authority
	// on shard addressing. Swapped atomically by Resize; readers load it
	// once per operation and retry if they catch a shard mid-retirement.
	place   atomic.Pointer[placement]
	nextSeq atomic.Uint64
	// kick wakes one idle worker when any shard enqueues a job, so
	// cross-shard stealing reacts immediately instead of waiting for the
	// fallback poll. Capacity 1: a pending kick means some worker will
	// sweep every shard, which discovers all stealable work.
	kick chan struct{}
	// closed is set once, by the Close that claims shutdown. Batch
	// staging reads it for every frame, and a worker reads it before
	// parking; the shards' own closed flags, set under their locks, are
	// what admission obeys.
	closed atomic.Bool

	// resizeMu serializes Resize against itself and against Close, so a
	// placement swap and a shutdown can never interleave their shard
	// retirement.
	resizeMu sync.Mutex
	// retiredShards keeps the most recent generation of shards swapped
	// out by a resize: their executed/stolen counters stay part of the
	// queue totals (a worker that raced the swap may still increment
	// them), so Metrics.Steals and the autoscaler's deltas remain
	// monotonic across epochs. The next resize folds them into the
	// aggregate counters below, so the list is bounded by one table's
	// width, not by resize count; the heavy per-shard state is freed at
	// migration either way.
	retiredMu     sync.Mutex
	retiredShards []*shard
	retiredExec   atomic.Int64
	retiredStolen atomic.Int64

	workers      sync.WaitGroup
	totalWorkers int // guarded by resizeMu after New; snapshot in placement.workers
	orphans      sync.WaitGroup

	// workerM holds every worker's metric shard, indexed by the worker's
	// stable pool index. The slice only grows (a resize past the pool
	// size appends, then stores, before spawning — so a new worker always
	// finds its slot) and existing entries are never replaced, so workers
	// cache their own pointer and Snapshot iterates a loaded slice.
	workerM atomic.Pointer[[]*workerMetrics]

	stopScaler chan struct{}
	scalerWG   sync.WaitGroup

	// rec is the flight recorder, nil unless Config.TraceSink is set.
	// Fixed at New: every emission site is behind a nil check, so the
	// untraced hot path costs one predictable branch and zero
	// allocations.
	rec *recorder

	// deq/adm are the resolved non-default policies, nil when the
	// native path serves (the "default" policies resolve to nil, so the
	// pre-policy hot paths run unchanged — no interface dispatch). Both
	// are fixed at New. cal is the per-engine cost calibrator feeding
	// CostEstimate.Wall, created only when a policy consumes cost.
	deq     DequeuePolicy
	adm     AdmissionPolicy
	cal     *costCalibrator
	deqName string
	admName string

	// laneOf maps each class to its run-queue lane, the same on every
	// shard, and weightedLanes lists the lanes the weighted classes are
	// served from, in set order. Fixed at New. Every strict class has
	// its own lane. Under the default policy so does every weighted
	// class, and the weighted lanes share dequeues by DWRR; under an
	// ordering policy the weighted classes share one policy-ordered lane.
	laneOf        []int
	weightedLanes []int

	// Counters (atomics: hot path, read by Snapshot without any lock).
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	rejected   atomic.Int64
	coalesced  atomic.Int64
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	timeouts   atomic.Int64
	pending    atomic.Int64
	running    atomic.Int64
	abandonedG atomic.Int64    // live abandoned runs (gauge)
	perClass   []classCounters // indexed by class-set position

	// Memoized merged latency summaries — see Snapshot.
	sumMu sync.Mutex
	sums  summaryCache
}

// classCounters is the per-priority-class slice of the queue counters.
type classCounters struct {
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64
}

// New returns a running queue. It panics if Config.Classes fails
// (ClassSet).Validate, Config.Autoscale fails Validate, or
// Config.Policies names an unknown policy — an invalid class set,
// autoscale config or policy selection is a configuration programming
// error; validate user-supplied input first.
func New(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	classes, err := resolveClasses(cfg.Classes, cfg.BatchShare)
	if err != nil {
		panic(err)
	}
	deq, adm, err := cfg.Policies.resolve()
	if err != nil {
		panic(err)
	}
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.Validate(); err != nil {
			panic(err)
		}
		a := cfg.Autoscale.withDefaults()
		cfg.Autoscale = &a
	}
	q := &Queue{
		cfg:      cfg,
		classes:  classes,
		perClass: make([]classCounters, len(classes.specs)),
		kick:     make(chan struct{}, 1),
		deq:      deq,
		adm:      adm,
		deqName:  "default",
		admName:  "default",
	}
	if deq != nil {
		q.deqName = deq.Name()
	}
	if adm != nil {
		q.admName = adm.Name()
	}
	if deq != nil || adm != nil {
		// Any non-default policy may consume cost predictions; the
		// default path never builds them, so the pre-policy hot path
		// stays untouched.
		q.cal = newCostCalibrator()
	}
	if cfg.TraceSink != nil {
		q.rec = newRecorder(cfg.TraceSink, cfg.TraceBuffer)
	}
	q.laneOf = make([]int, len(classes.specs))
	for c := range q.laneOf {
		q.laneOf[c] = c
	}
	q.weightedLanes = classes.weighted
	if deq != nil && len(classes.weighted) > 0 {
		pool := classes.weighted[0]
		for _, c := range classes.weighted {
			q.laneOf[c] = pool
		}
		q.weightedLanes = classes.weighted[:1]
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		shards[i] = q.newShard(i, cfg.Shards)
	}
	if cfg.Workers < cfg.Shards {
		cfg.Workers = cfg.Shards // every shard gets at least one worker
	}
	q.totalWorkers = cfg.Workers
	wms := make([]*workerMetrics, cfg.Workers)
	for i := range wms {
		wms[i] = newWorkerMetrics(len(classes.specs))
	}
	q.workerM.Store(&wms)
	q.place.Store(&placement{epoch: 1, workers: cfg.Workers, shards: shards})
	q.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go q.worker(i) // homes dealt fair-share over the current table
	}
	if cfg.Autoscale != nil {
		q.stopScaler = make(chan struct{})
		q.scalerWG.Add(1)
		go q.autoscaleLoop(*cfg.Autoscale)
	}
	return q
}

// Close stops admission, drains already-admitted jobs, and waits for all
// workers (and any deadline-abandoned runs) to finish. The autoscaler, if
// any, is stopped first so no resize can race the teardown.
func (q *Queue) Close() {
	if !q.closed.CompareAndSwap(false, true) {
		return
	}
	if q.stopScaler != nil {
		close(q.stopScaler)
		q.scalerWG.Wait()
	}
	// Serialize against any in-flight Resize, then tear down the current
	// table: stop admission on every shard (a Submit holding a shard lock
	// finishes its enqueue before the flag flips, and later Submits see
	// the flag), then kick the workers, which drain the lanes and exit.
	q.resizeMu.Lock()
	p := q.place.Load()
	for _, s := range p.shards {
		s.mu.Lock()
		s.closed = true
		// Unpublish the cache so post-shutdown submissions miss and fall
		// through to the locked path's ErrClosed.
		s.cacheLive.Store(nil)
		s.mu.Unlock()
	}
	q.kickWorkers()
	q.resizeMu.Unlock()
	q.workers.Wait()
	q.orphans.Wait()
	if q.rec != nil {
		// Every settle has run by now; drain the recorder so the sink
		// holds the complete trace before Close returns.
		q.rec.close()
	}
}

// Classes returns the queue's resolved class set in dequeue order, quota
// defaults applied — the configuration lopramd serves at /v1/classes.
func (q *Queue) Classes() ClassSet {
	return append(ClassSet(nil), q.classes.specs...)
}

// PolicyNames reports the active dequeue and admission policy names
// ("default" for the native paths) — the configuration lopramd serves
// at /v1/policies.
func (q *Queue) PolicyNames() (dequeue, admission string) {
	return q.deqName, q.admName
}

// ShardOf reports which shard the spec would be placed on under the
// current placement epoch — the shard its cache key hashes to. Placement
// is deterministic per epoch: equal keys always map to the same shard of
// any queue at the same shard count.
func (q *Queue) ShardOf(spec Spec) int {
	return q.place.Load().shardFor(spec.key()).idx
}

// newID allocates the next job ID for a job homed on shard idx: a global
// sequence number in the high bits (IDs stay submission-ordered across
// shards) and the birth shard in the low shardBits (Get routes by them,
// modulo the current shard count after resizes).
func (q *Queue) newID(idx int) uint64 {
	return q.nextSeq.Add(1)<<shardBits | uint64(idx)
}

// Submit validates, admission-controls and enqueues an algorithm job on
// the shard its key hashes to under the current placement epoch.
// Duplicate requests are served without re-execution: a spec whose
// result is cached returns an already-completed job, and one whose key is
// already in flight returns its own job chained onto the in-flight one
// (coalescing) — it completes with that run's outcome. Guarantees hold
// across live resizes, because the coalescing entries and cached results
// migrate with the keys. Admission refusals (ErrQueueFull,
// ErrDeadlineInfeasible, ErrClosed) return from the call.
func (q *Queue) Submit(spec Spec) (*Job, error) {
	class, err := q.prepare(&spec)
	if err != nil {
		return nil, err
	}
	j := &Job{Spec: spec, submitted: time.Now(), class: class, execShard: -1, stealFrom: -1}
	key := spec.key()
	if q.probeCache(j, key) {
		return j, nil
	}
	if q.cal != nil {
		// A policy consumes cost predictions: price the job once, up
		// front (the estimate depends only on the spec).
		j.cost = q.cal.estimate(spec, key.P)
	}
	if err := q.admit(j); err != nil {
		return nil, err
	}
	return j, nil
}

// SubmitFunc enqueues an arbitrary work item on the same pools, subject
// to the same admission control and deadlines but bypassing spec
// validation, coalescing and the result cache. Placement hashes the name
// against the current placement table, so equal names share a shard; the
// job runs in the class set's first (default) class. The experiment suite
// uses it to run E1–E18 through the queue as a load test.
func (q *Queue) SubmitFunc(name string, fn func(ctx context.Context) error) (*Job, error) {
	if fn == nil {
		return nil, fmt.Errorf("jobqueue: nil func for %q", name)
	}
	j := &Job{Name: name, fn: fn, submitted: time.Now(), execShard: -1, stealFrom: -1}
	if err := q.admit(j); err != nil {
		return nil, err
	}
	return j, nil
}

// probeCache is the lock-free cache-hit fast path shared by Submit and
// Batch.Submit: it serves j from its home shard's cache without touching
// the shard mutex and reports whether it did. A hit that races an
// insert, eviction, resize migration or shutdown linearizes before it —
// the entry was in the cache when the bucket was read, and cached
// results are immutable. Misses (caching off, shard closed or retired,
// key absent) fall through to admission under the lock.
func (q *Queue) probeCache(j *Job, key Key) bool {
	p := q.place.Load()
	s := p.shardFor(key)
	e, ok := s.lookup(key)
	if !ok {
		return false
	}
	q.serveCached(s.idx, p.epoch, j, e, j.submitted)
	return true
}

// serveCached completes j from a cached result on its home shard. Cache
// serves are near-instant: they skip the latency samples, are not
// retained for Get/Jobs (the caller holds the only handle), and report
// the original run's Wall. The hit takes the entry's name, and renders
// one only when the entry has none and j needs one (needsName).
func (q *Queue) serveCached(shard int, epoch uint64, j *Job, e *cacheEntry, now time.Time) {
	j.ID = q.newID(shard)
	j.submitShard = shard
	j.submitEpoch = epoch
	if j.Name == "" {
		j.Name = e.name
		if j.Name == "" && q.needsName(j) {
			j.Name = j.Spec.String()
		}
	}
	q.cacheHits.Add(1)
	q.submitted.Add(1)
	q.perClass[j.class].submitted.Add(1)
	if q.rec != nil {
		// Record before completing: completion signals a pooled frame's
		// batch, whose Release may recycle the frame while a later record
		// construction would still be reading it.
		q.recordServed(q.baseRecord(j), jobtrace.DispositionHit, shard, epoch)
	}
	j.completeCached(e.res, now)
}

// admit locks j's home shard under the current placement table and runs
// admitLocked there: the synchronous entry of Submit and SubmitFunc. A
// shard caught mid-retirement is followed to the new table; a closed one
// refuses with ErrClosed.
func (q *Queue) admit(j *Job) error {
	for {
		p := q.place.Load()
		var s *shard
		if j.fn == nil {
			s = p.shardFor(j.Spec.key())
		} else {
			s = p.shardForName(j.Name)
		}
		s.mu.Lock()
		if s.retired {
			s.mu.Unlock()
			retryPlacement()
			continue
		}
		if s.closed {
			s.mu.Unlock()
			return q.refuseClosed(j, time.Now())
		}
		queued, err := q.admitLocked(s, p.epoch, j)
		s.mu.Unlock()
		if queued {
			q.kickWorkers()
		}
		return err
	}
}

// refuseClosed records a submission refused because the queue shut down
// and turns j terminal with ErrClosed: the one closed-refusal path of
// Queue.admit, Batch.SubmitSpec and Batch.admit.
func (q *Queue) refuseClosed(j *Job, now time.Time) error {
	q.rejected.Add(1)
	q.perClass[j.class].rejected.Add(1)
	j.markFinished(Result{}, ErrClosed, now)
	j.signalDone()
	return ErrClosed
}

// admitLocked is the one admission pipeline every submit route runs:
// Submit and SubmitFunc through Queue.admit, staged batch frames through
// Batch.admit. It serves a cache hit, assigns the ID, renders the name
// if needsName asks for it (serveCached applies the same rule to a hit),
// coalesces a duplicate by chaining j onto the in-flight winner (the
// winner's flush completes it after the cache holds the result), and
// otherwise enqueues j or refuses it — a refusal turns j terminal in
// place, is recorded, and is returned. queued reports whether j entered
// a run queue: a hit or a coalesce gives the workers nothing new. Func
// jobs carry no key and skip the cache and coalescing steps.
//
// The caller holds s.mu with the shard neither retired nor closed. The
// spec was validated by prepare.
func (q *Queue) admitLocked(s *shard, epoch uint64, j *Job) (queued bool, err error) {
	now := time.Now()
	var key Key
	if j.fn == nil {
		key = j.Spec.key()
		if e, ok := s.lookup(key); ok {
			q.serveCached(s.idx, epoch, j, e, now)
			return false, nil
		}
	}
	j.ID = q.newID(s.idx)
	j.submitShard = s.idx
	j.submitEpoch = epoch
	if j.Name == "" && q.needsName(j) {
		j.Name = j.Spec.String()
	}
	if j.fn == nil {
		if dup, ok := s.inflight[key]; ok {
			q.coalesced.Add(1)
			if q.rec != nil {
				// The record describes this submission — its own class
				// and arrival — served by the in-flight job's ID.
				rec := q.baseRecord(dup)
				rec.Class = string(q.classes.specs[j.class].Name)
				rec.SubmitNS = now.UnixNano()
				q.recordServed(rec, jobtrace.DispositionCoalesce, s.idx, epoch)
			}
			if !j.pooled {
				s.insertLocked(j)
			}
			// The winner is still in inflight under a live s.mu, so its
			// flush has not reached phase 1 and phase 2 will drain the
			// chain — even when the winner is already terminal.
			dup.mu.Lock()
			dup.chained = append(dup.chained, j)
			dup.mu.Unlock()
			return false, nil
		}
		q.cacheMiss.Add(1)
	}
	if err = q.enqueueLocked(s, j, key); err != nil {
		q.rejected.Add(1)
		q.perClass[j.class].rejected.Add(1)
		if q.rec != nil {
			q.recordRejected(j, s.idx, epoch, s.laneDepths[j.class])
		}
		j.markFinished(Result{}, err, now)
		j.signalDone()
		return false, err
	}
	return true, nil
}

// needsName reports whether j must carry its rendered name: a tracing
// queue records it, and a Submit caller reads it from View. An untraced
// pooled frame is read only through its Batch, which shows no name.
func (q *Queue) needsName(j *Job) bool {
	return q.rec != nil || !j.pooled
}

// enqueueLocked admits a job to its class's run queue on shard s, or
// returns the refusal for admitLocked to record; the caller holds s.mu.
// The admission bound is the class's lane counter.
func (q *Queue) enqueueLocked(s *shard, job *Job, key Key) error {
	used := s.laneUsed[job.class].Load()
	if used >= int64(s.laneDepths[job.class]) {
		return ErrQueueFull
	}
	if q.adm != nil {
		// The structural lane bound above always applies; the policy
		// can only refuse further (rate limits, deadline sheds).
		err := q.adm.Admit(AdmissionRequest{
			Class:     job.class,
			ClassName: q.classes.specs[job.class].Name,
			LaneUsed:  int(used),
			LaneDepth: s.laneDepths[job.class],
			Deadline:  q.effectiveDeadline(job),
			Cost:      job.cost,
			Now:       job.submitted,
		})
		if err != nil {
			return err
		}
	}
	// The admitted-ahead count at admission, kept for the flight
	// recorder's completion record.
	job.laneDepth = int(used)
	it := laneItem{job: job}
	if q.deq != nil {
		it.view = q.policyView(job)
	}
	s.lanes[q.laneOf[job.class]].push(it)
	s.laneUsed[job.class].Add(1)
	if !job.pooled {
		// Pooled batch frames are not retained for Get/Jobs: the batch
		// owner holds the only handle, and retention would keep recycled
		// frames reachable.
		s.insertLocked(job)
	}
	if job.fn == nil {
		s.inflight[key] = job
	}
	q.submitted.Add(1)
	q.perClass[job.class].submitted.Add(1)
	q.pending.Add(1)
	s.pending.Add(1)
	return nil
}

// kickWorkers wakes one idle worker to sweep the shards for stealable
// work. Non-blocking: a pending kick already guarantees a sweep.
func (q *Queue) kickWorkers() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// Get returns the job with the given ID, if still retained. The route —
// the ID's birth-shard bits modulo the current shard count — is the same
// rule resizes migrate retention entries by, so IDs stay resolvable
// across epochs.
func (q *Queue) Get(id uint64) (*Job, bool) {
	for {
		s := q.place.Load().shardForID(id)
		s.mu.Lock()
		if s.retired {
			s.mu.Unlock()
			retryPlacement()
			continue
		}
		j, ok := s.byID[id]
		s.mu.Unlock()
		return j, ok
	}
}

// Jobs returns views of the most recent jobs across all shards, newest
// first, up to limit (limit <= 0 means all retained).
func (q *Queue) Jobs(limit int) []View {
retry:
	for {
		p := q.place.Load()
		var views []View
		for _, s := range p.shards {
			s.mu.Lock()
			if s.retired {
				s.mu.Unlock()
				retryPlacement()
				continue retry
			}
			for i := len(s.retained) - 1; i >= 0; i-- {
				if limit > 0 && i < len(s.retained)-limit {
					break // deeper entries cannot make the newest-limit cut
				}
				if j, ok := s.byID[s.retained[i]]; ok {
					views = append(views, j.View())
				}
			}
			s.mu.Unlock()
		}
		// IDs carry the global submission sequence in their high bits, so
		// sorting by ID descending is newest-first across shards.
		sort.Slice(views, func(i, j int) bool { return views[i].ID > views[j].ID })
		if limit > 0 && len(views) > limit {
			views = views[:limit]
		}
		return views
	}
}
