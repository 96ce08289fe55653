package jobqueue

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobtrace"
)

func simSpec(seed uint64) Spec {
	return Spec{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: seed}
}

func TestBatchSubmitWaitOutcome(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2, CacheSize: -1})
	defer q.Close()
	b := q.NewBatch()
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.Submit(simSpec(uint64(i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	ids := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		if _, err := b.Outcome(i); err != nil {
			t.Fatalf("Outcome %d: %v", i, err)
		}
		id := b.ID(i)
		if id == 0 || ids[id] {
			t.Fatalf("job %d: bad or duplicate ID %d", i, id)
		}
		ids[id] = true
	}
	b.Release()
}

func TestBatchValidationError(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	defer q.Close()
	b := q.NewBatch()
	if err := b.Submit(Spec{Algorithm: "no-such-algo", N: 8, Engine: core.EngineSim}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := b.Submit(simSpec(1)); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	if err := b.Submit(Spec{Algorithm: "reduce", N: 8, Engine: core.EngineSim, Priority: "no-such-class"}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: got %v", err)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := b.Outcome(0); err == nil {
		t.Fatal("Outcome(0): want validation error")
	}
	if _, err := b.Outcome(1); err != nil {
		t.Fatalf("Outcome(1): %v", err)
	}
	if _, err := b.Outcome(2); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("Outcome(2): got %v", err)
	}
	b.Release()
}

// TestBatchCoalesceAndHit submits heavy duplication through one batch and
// checks the dedup machinery served it: each distinct key executes once,
// duplicates land as cache hits or coalesces, and every outcome matches.
func TestBatchCoalesceAndHit(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2, CacheSize: 1024})
	defer q.Close()
	b := q.NewBatch()
	const n, keys = 60, 7
	for i := 0; i < n; i++ {
		if err := b.Submit(simSpec(uint64(i % keys))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	bySeed := make(map[uint64]Result)
	for i := 0; i < n; i++ {
		res, err := b.Outcome(i)
		if err != nil {
			t.Fatalf("Outcome %d: %v", i, err)
		}
		seed := uint64(i % keys)
		if prev, ok := bySeed[seed]; ok && prev.Value != res.Value {
			t.Fatalf("seed %d: inconsistent results %v vs %v", seed, prev.Value, res.Value)
		}
		bySeed[seed] = res
	}
	b.Release()
	m := q.Snapshot()
	if m.Completed != keys {
		t.Fatalf("completed = %d, want %d (one execution per distinct key)", m.Completed, keys)
	}
	if m.CacheHits+m.Coalesced != n-keys {
		t.Fatalf("hits+coalesced = %d, want %d", m.CacheHits+m.Coalesced, n-keys)
	}
}

func TestBatchSubmitAfterClose(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	q.Close()
	b := q.NewBatch()
	if err := b.Submit(simSpec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := b.Outcome(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Outcome: got %v, want ErrClosed", err)
	}
	b.Release()
}

// TestBatchCloseCompletesRingBacklog proves Close never strands a staged
// frame: frames still staged on a batch when its fully blocked queue
// closes are refused with ErrClosed at Wait's admission, or run, so Wait
// returns.
func TestBatchCloseCompletesRingBacklog(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	release := blockWorkers(t, q, 1)
	b := q.NewBatch()
	for i := 0; i < 10; i++ {
		if err := b.Submit(simSpec(uint64(i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	release()
	q.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Wait(ctx); err != nil {
		t.Fatalf("Wait after Close: %v", err)
	}
	for i := 0; i < b.Len(); i++ {
		if _, err := b.Outcome(i); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("Outcome %d: %v", i, err)
		}
	}
	b.Release()
}

// TestBatchAdmitsEveryStageK pins when staged frames enter the queue:
// SubmitSpec admits the staged frames when the stageK-th is staged, and
// Wait admits a partial tail — even a Wait whose context is already done.
// The frames are still in flight at the end, so the batch is not
// released.
func TestBatchAdmitsEveryStageK(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, CacheSize: -1})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	defer release()
	b := q.NewBatch()
	seed := uint64(0)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			seed++
			if err := b.Submit(simSpec(seed)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	submit(stageK - 1)
	if p := q.Snapshot().Pending; p != 0 {
		t.Fatalf("after %d submits: pending = %d, want 0 (still staged)", stageK-1, p)
	}
	submit(1)
	if p := q.Snapshot().Pending; p != stageK {
		t.Fatalf("after %d submits: pending = %d, want %d", stageK, p, stageK)
	}
	const tail = 3
	submit(tail)
	if p := q.Snapshot().Pending; p != stageK {
		t.Fatalf("tail admitted before Wait: pending = %d, want %d", p, stageK)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: got %v, want context.Canceled", err)
	}
	if p := q.Snapshot().Pending; p != stageK+tail {
		t.Fatalf("after Wait: pending = %d, want %d", p, stageK+tail)
	}
}

func TestBatchWaitContextCanceled(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	b := q.NewBatch()
	if err := b.Submit(simSpec(1)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: got %v, want context.Canceled", err)
	}
	// In-flight frames: the batch must not be released. Drain properly
	// instead and release then.
	release()
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	b.Release()
}

// TestSubmitCoalescedOntoPooledFrame covers a single Submit whose
// duplicate is in flight as a pooled batch frame. The Submit gets its own
// job chained onto the frame, never the frame itself, so its result stays
// valid after the batch's Release recycles the frame.
func TestSubmitCoalescedOntoPooledFrame(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, CacheSize: -1})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	spec := simSpec(42)
	b := q.NewBatch()
	if err := b.Submit(spec); err != nil {
		t.Fatalf("Batch.Submit: %v", err)
	}
	// Admit the frame by hand (the worker is parked), putting it into
	// the inflight map.
	b.admit()
	dup, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if dup.pooled || dup == b.jobs[0] {
		t.Fatal("coalesced Submit returned the batch's pooled frame")
	}
	release()
	want, err := dup.Wait(context.Background())
	if err != nil {
		t.Fatalf("dup.Wait: %v", err)
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("batch Wait: %v", err)
	}
	frameRes, err := b.Outcome(0)
	if err != nil || frameRes != want {
		t.Fatalf("frame outcome %+v (%v), coalesced job got %+v", frameRes, err, want)
	}
	b.Release()
	got, err := dup.Result()
	if err != nil {
		t.Fatalf("dup.Result after Release: %v", err)
	}
	if got != want || dup.ID == 0 || dup.Spec.Seed != spec.Seed {
		t.Fatal("coalesced job changed after the batch's Release")
	}
	if m := q.Snapshot(); m.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced)
	}
}

// TestBatchSubmitZeroAllocs is the arena's headline contract: the
// steady-state pooled submit path — validate, borrow a frame, stage it,
// and admit every stageK staged frames — allocates nothing per job.
// Workers are parked so the measured region is exactly the submit path.
func TestBatchSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random, so the arena cannot hold 0 allocs")
	}
	q := New(Config{Workers: 1, Shards: 1, QueueDepth: 4096})
	defer q.Close()
	release := blockWorkers(t, q, 1)
	// Prewarm the arena past the measured iteration count so Get never
	// falls through to the allocating New mid-measure.
	for i := 0; i < 256; i++ {
		jobPool.Put(&Job{pooled: true, execShard: -1, stealFrom: -1})
	}
	b := q.NewBatch()
	// Pre-grow: append must not resize mid-measure.
	b.jobs = make([]*Job, 0, 256)
	b.staged = make([]*Job, 0, stageK)
	seed := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		if err := b.Submit(simSpec(seed)); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled submit path: %v allocs/job, want 0", allocs)
	}
	release()
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	b.Release()
}

// TestBatchCachedServeZeroAllocs measures the whole steady-state loop on
// the no-trace-sink path — submit, admit, cache-hit serve, wait,
// release — at 0 allocs/job. This is the trace path's zero-cost claim
// too: with no sink configured, ingest skips record construction and the
// frame never even renders a name.
func TestBatchCachedServeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random, so the arena cannot hold 0 allocs")
	}
	q := New(Config{Workers: 1, Shards: 1, QueueDepth: 4096, CacheSize: 1024})
	defer q.Close()
	spec := simSpec(7)
	// Prime the cache with the one real execution.
	job, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	release := blockWorkers(t, q, 1)
	defer release()
	for i := 0; i < 16; i++ {
		jobPool.Put(&Job{pooled: true, execShard: -1, stealFrom: -1})
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		b := q.NewBatch()
		if err := b.Submit(spec); err != nil {
			panic(err)
		}
		b.admit()
		if err := b.Wait(ctx); err != nil {
			panic(err)
		}
		if _, err := b.Outcome(0); err != nil {
			panic(err)
		}
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("cached serve loop: %v allocs/job, want 0", allocs)
	}
}

// TestBatchStressResizeRace is the resize invariant suite run against the
// batch path: 8 concurrent batch submitters over a shared key space while
// the table resizes 1→4→2 mid-stream. Every distinct key must execute
// exactly once and every duplicate must land as hit or coalesce — the
// same guarantees the single-submit path proves, now for staged frames
// admitted against whichever table is current. Run with -race in CI.
func TestBatchStressResizeRace(t *testing.T) {
	sink := &jobtrace.MemorySink{}
	q := New(Config{
		Workers: 4, Shards: 1, QueueDepth: 1 << 15, CacheSize: 1 << 15,
		TraceSink: sink, TraceBuffer: 1 << 16,
	})
	const submitters = 8
	const perSubmitter = 400
	const keyspace = 192
	const batchSize = 32
	firstBatch := make(chan struct{}, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 1
			b := q.NewBatch()
			flushed := false
			flush := func() {
				if err := b.Wait(context.Background()); err != nil {
					t.Errorf("submitter %d: Wait: %v", w, err)
					return
				}
				for i := 0; i < b.Len(); i++ {
					if _, err := b.Outcome(i); err != nil {
						t.Errorf("submitter %d: outcome %d: %v", w, i, err)
					}
				}
				b.Release()
				b = q.NewBatch()
				if !flushed {
					flushed = true
					firstBatch <- struct{}{}
				}
			}
			for i := 0; i < perSubmitter; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				if err := b.Submit(simSpec(rng % keyspace)); err != nil {
					t.Errorf("submitter %d: Submit: %v", w, err)
				}
				if b.Len() >= batchSize {
					flush()
				}
			}
			if b.Len() > 0 {
				flush()
			} else {
				b.Release()
			}
		}(w)
	}
	// Resize mid-stream: wait until the traffic is demonstrably flowing,
	// then move the table twice with a short gap so submissions land in
	// every epoch.
	<-firstBatch
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
		case jobtrace.DispositionHit, jobtrace.DispositionCoalesce:
			dups++
		default:
			other++
			t.Errorf("unexpected disposition %q for %s", r.Disposition, r.Key)
		}
	}
	if executed != len(execPerKey) {
		for k, n := range execPerKey {
			if n != 1 {
				t.Errorf("key %s executed %d times", k, n)
			}
		}
		t.Fatalf("executed %d != %d distinct keys", executed, len(execPerKey))
	}
	if got := executed + dups + other; got != submitters*perSubmitter {
		t.Fatalf("recorded %d submissions, want %d", got, submitters*perSubmitter)
	}
}
