package jobqueue

import (
	"context"
	"sync"
	"testing"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobtrace"
)

// TestBatchedSettleResizeDuplicateStorm hammers the batched completion
// path from eight single-Submit storms over a small key universe while
// the placement table moves 1→4→2 under the traffic. Every Wait must
// return (no completion lost to a flush that raced a retirement), the
// trace must show each distinct key executed exactly once (a
// double-settle would re-execute or double-record), and every duplicate
// must be served the winner's exact outcome (a mis-cache across epochs
// would hand a key some other key's result).
func TestBatchedSettleResizeDuplicateStorm(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{
		Workers: 4, Shards: 1, QueueDepth: 1 << 15, CacheSize: 1 << 15,
		TraceSink: sink, TraceBuffer: 1 << 16,
	})
	const submitters = 8
	const perSubmitter = 400
	const keyspace = 96

	// Outcome consistency ledger: reduce is deterministic per seed, so
	// every serve of one key — executed, cache hit, coalesced, across
	// any epoch — must report one Value.
	var ledger sync.Mutex
	valueOf := make(map[uint64]int64)

	firstDone := make(chan struct{}, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 1
			signaled := false
			for i := 0; i < perSubmitter; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				seed := rng % keyspace
				job, err := q.Submit(simSpec(seed))
				if err != nil {
					t.Errorf("submitter %d: Submit: %v", w, err)
					continue
				}
				res, err := job.Wait(context.Background())
				if err != nil {
					t.Errorf("submitter %d: Wait(seed=%d): %v", w, seed, err)
					continue
				}
				ledger.Lock()
				if v, ok := valueOf[seed]; !ok {
					valueOf[seed] = res.Value
				} else if v != res.Value {
					t.Errorf("submitter %d: seed %d served value %d, earlier %d (mis-cache)", w, seed, res.Value, v)
				}
				ledger.Unlock()
				if !signaled {
					signaled = true
					firstDone <- struct{}{}
				}
			}
		}(w)
	}
	// Move the table twice mid-storm, with a short gap so submissions
	// and flushes land in all three epochs.
	<-firstDone
	if _, err := q.Resize(4); err != nil {
		t.Errorf("Resize(4): %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := q.Resize(2); err != nil {
		t.Errorf("Resize(2): %v", err)
	}
	wg.Wait()
	q.Close()

	if _, dropped := q.TraceStats(); dropped != 0 {
		t.Fatalf("recorder dropped %d records; the accounting below needs all of them", dropped)
	}
	execPerKey := make(map[string]int)
	var executed, dups, other int
	for _, r := range sink.Records() {
		switch r.Disposition {
		case jobtrace.DispositionExecuted:
			executed++
			execPerKey[r.Key]++
			if r.EpochSettle < r.EpochSubmit {
				t.Errorf("key %s settled in epoch %d before its submit epoch %d", r.Key, r.EpochSettle, r.EpochSubmit)
			}
		case jobtrace.DispositionHit, jobtrace.DispositionCoalesce:
			dups++
		default:
			other++
			t.Errorf("unexpected disposition %q for %s", r.Disposition, r.Key)
		}
	}
	for k, n := range execPerKey {
		if n != 1 {
			t.Errorf("key %s executed %d times (double settle)", k, n)
		}
	}
	if got := executed + dups + other; got != submitters*perSubmitter {
		t.Fatalf("recorded %d submissions, want %d (lost completion)", got, submitters*perSubmitter)
	}

	m := q.Snapshot()
	if m.Completed != int64(executed) {
		t.Errorf("Completed = %d, want %d", m.Completed, executed)
	}
	if m.Failed != 0 || m.Timeouts != 0 || m.Rejected != 0 {
		t.Errorf("failed=%d timeouts=%d rejected=%d, want all 0", m.Failed, m.Timeouts, m.Rejected)
	}
	if m.Pending != 0 {
		t.Errorf("Pending = %d after drain", m.Pending)
	}
	if hitsDups := m.CacheHits + m.Coalesced; hitsDups != int64(dups) {
		t.Errorf("hits+coalesced = %d, trace says %d", hitsDups, dups)
	}
	// Every outcome metric must have landed by Close (no sample stranded
	// in an unflushed buffer).
	if m.Wall.Count != executed {
		t.Errorf("Wall.Count = %d, want %d", m.Wall.Count, executed)
	}
}

// TestCacheHitSubmitAllocs pins the allocation cost of the cache-hit
// submit paths. The pooled batch path must be allocation-free: the
// frame comes from the arena and the hit is served from the lock-free
// read index without staging, a done channel, or a rendered name. The
// single-Submit path returns an escaping *Job — that is its API — so it
// is held to exactly that one allocation (the name comes pre-rendered
// from the cache entry).
func TestCacheHitSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	q := New(Config{Workers: 1, Shards: 1, CacheSize: 1 << 10})
	defer q.Close()
	spec := simSpec(7)
	warm, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("prime wait: %v", err)
	}
	// The priming flush has republished the read index (Wait returns
	// only after the owning flush), so everything below is fast-path.
	release := blockWorkers(t, q, 1)
	defer release()

	b := q.NewBatch()
	// Pre-grow the batch's job slice so append growth is not billed.
	for i := 0; i < 8; i++ {
		if err := b.Submit(spec); err != nil {
			t.Fatalf("pre-grow submit: %v", err)
		}
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("pre-grow wait: %v", err)
	}
	b.Release()
	allocs := testing.AllocsPerRun(200, func() {
		b := q.NewBatch()
		for i := 0; i < 8; i++ {
			if err := b.Submit(spec); err != nil {
				t.Fatalf("batch submit: %v", err)
			}
		}
		if err := b.Wait(context.Background()); err != nil {
			t.Fatalf("batch wait: %v", err)
		}
		for i := 0; i < b.Len(); i++ {
			res, err := b.Outcome(i)
			if err != nil || !res.Cached {
				t.Fatalf("outcome %d: %v cached=%v", i, err, res.Cached)
			}
		}
		b.Release()
	})
	if allocs != 0 {
		t.Errorf("pooled batch cache-hit path allocates %.1f per 8-job batch, want 0", allocs)
	}

	single := testing.AllocsPerRun(200, func() {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		res, err := job.Result()
		if err != nil || !res.Cached {
			t.Fatalf("result: %v cached=%v", err, res.Cached)
		}
	})
	// Exactly the escaping *Job — the name comes rendered from the cache
	// entry. Anything more means the fast path regressed onto the locked
	// pipeline (done channel, retention insert, name render, ...).
	if single > 1 {
		t.Errorf("single Submit cache-hit path allocates %.1f, want 1 (the returned *Job)", single)
	}
}

// TestCacheEntryNameRule pins when a job's name is rendered. The flush
// stores whatever name the settling job carries, so an untraced batch
// leaves its entries unnamed while a traced queue's entries carry
// Spec.String(). A Submit hit on an entry a batch inserted renders the
// name itself, because its caller reads it from View.
func TestCacheEntryNameRule(t *testing.T) {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = simSpec(uint64(100 + i))
	}
	runBatch := func(q *Queue) {
		t.Helper()
		b := q.NewBatch()
		for _, spec := range specs {
			if err := b.Submit(spec); err != nil {
				t.Fatalf("batch submit: %v", err)
			}
		}
		if err := b.Wait(context.Background()); err != nil {
			t.Fatalf("batch wait: %v", err)
		}
		for i := 0; i < b.Len(); i++ {
			if res, err := b.Outcome(i); err != nil || res.Cached {
				t.Fatalf("outcome %d: %v cached=%v, want a fresh run", i, err, res.Cached)
			}
		}
		b.Release()
	}
	entryName := func(q *Queue, spec Spec) string {
		t.Helper()
		key := spec.key()
		e, ok := q.place.Load().shardFor(key).lookup(key)
		if !ok {
			t.Fatalf("%v not cached after its batch's Wait", spec)
		}
		return e.name
	}

	untraced := New(Config{Workers: 1, Shards: 1, CacheSize: 64})
	defer untraced.Close()
	runBatch(untraced)
	for _, spec := range specs {
		if name := entryName(untraced, spec); name != "" {
			t.Errorf("untraced batch entry for %v named %q, want empty", spec, name)
		}
	}
	hit, err := untraced.Submit(specs[0])
	if err != nil {
		t.Fatalf("submit hit: %v", err)
	}
	if res, err := hit.Result(); err != nil || !res.Cached {
		t.Fatalf("submit on a batch-inserted key: %v cached=%v, want a hit", err, res.Cached)
	}
	if got, want := hit.View().Name, specs[0].String(); got != want {
		t.Errorf("Submit hit on a batch-inserted entry named %q, want %q", got, want)
	}

	traced := New(Config{Workers: 1, Shards: 1, CacheSize: 64, TraceSink: &jobtrace.MemorySink{}})
	defer traced.Close()
	runBatch(traced)
	for _, spec := range specs {
		if got, want := entryName(traced, spec), spec.String(); got != want {
			t.Errorf("traced batch entry named %q, want %q", got, want)
		}
	}
}

// TestCacheHitJobsNotRetained pins the fast-path retention semantics:
// a Submit served from the cache returns the only handle to its job —
// it is not registered for Get/Jobs, on either the lock-free or the
// locked hit path, matching the pooled batch hit behavior.
func TestCacheHitJobsNotRetained(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, CacheSize: 1 << 10})
	defer q.Close()
	spec := simSpec(11)
	warm, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatalf("prime wait: %v", err)
	}
	if _, ok := q.Get(warm.ID); !ok {
		t.Fatal("executed job not retained")
	}
	hit, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("hit: %v", err)
	}
	if res, err := hit.Result(); err != nil || !res.Cached {
		t.Fatalf("hit result: %v cached=%v", err, res.Cached)
	}
	if _, ok := q.Get(hit.ID); ok {
		t.Fatal("cache-hit job retained for Get; the caller holds the only handle")
	}
}

// TestIngestChainsOntoFinishedUnflushedWinner pins the settle-before-
// signal promise for a duplicate that arrives in the window between its
// winner finishing and the winner's completion flush: the duplicate
// chains onto the winner and stays pending until that flush, so when
// its batch's Wait returns, the cache already holds the result.
func TestIngestChainsOntoFinishedUnflushedWinner(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, CacheSize: 1 << 10})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	defer release()
	spec := simSpec(5)
	winner, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Play the worker by hand: the winner finishes but its outcome sits
	// unflushed in a completion buffer.
	res := Result{Outcome: core.Outcome{Value: 99}}
	if !winner.markFinished(res, nil, time.Now()) {
		t.Fatal("winner already terminal")
	}
	ws := &workerState{}
	q.bufferCompletion(ws, winner, res, nil, 0, time.Now())

	b := q.NewBatch()
	if err := b.Submit(spec); err != nil {
		t.Fatalf("Batch.Submit: %v", err)
	}
	p := q.place.Load()
	s := p.shardFor(spec.key())
	b.admit()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.Wait(ctx); err == nil {
		t.Fatal("duplicate completed before its winner's flush")
	}

	q.flushCompletions(ws)
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after flush: %v", err)
	}
	s.mu.Lock()
	_, cached := s.cache.get(spec.key())
	s.mu.Unlock()
	if !cached {
		t.Fatal("batch Wait returned while the cache lacks the result")
	}
	if got, err := b.Outcome(0); err != nil || got.Value != 99 {
		t.Fatalf("duplicate outcome %+v (%v), want the winner's", got, err)
	}
	b.Release()
	if m := q.Snapshot(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
}

// TestFlushBeforeRunnerDispatch pins bounded completion latency: a cheap
// job that finished inline must be signalled before its worker starts an
// unrelated long run on the runner path, not after that run ends.
func TestFlushBeforeRunnerDispatch(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, CacheSize: -1})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	cheap := simSpec(9)
	long := Spec{Algorithm: "mergesort", N: 1 << 21, Engine: core.EnginePalrt, Seed: 1}
	if !runsInline(&Job{Spec: cheap}, time.Minute) || runsInline(&Job{Spec: long}, time.Minute) {
		t.Fatal("fixture: want the cheap job inline and the long one on the runner path")
	}
	a, err := q.Submit(cheap)
	if err != nil {
		t.Fatalf("Submit cheap: %v", err)
	}
	b, err := q.Submit(long)
	if err != nil {
		t.Fatalf("Submit long: %v", err)
	}
	release()
	if _, err := a.Wait(context.Background()); err != nil {
		t.Fatalf("cheap Wait: %v", err)
	}
	if st := b.Status(); st == StatusDone {
		t.Fatal("cheap job was signalled only after the long run finished")
	}
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatalf("long Wait: %v", err)
	}
}
