package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lopram/internal/core"
)

// waitRunning polls until exactly want jobs are running.
func waitRunning(t *testing.T, q *Queue, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for q.running.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("running = %d, want %d (workers never picked the blockers up)", q.running.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResizeNoop: resizing to the current shard count changes nothing —
// same epoch, same table.
func TestResizeNoop(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2})
	defer q.Close()
	if got := q.Epoch(); got != 1 {
		t.Fatalf("fresh queue epoch = %d, want 1", got)
	}
	epoch, err := q.Resize(2)
	if err != nil {
		t.Fatalf("no-op resize: %v", err)
	}
	if epoch != 1 || q.Epoch() != 1 || q.NumShards() != 2 {
		t.Fatalf("no-op resize moved the table: epoch %d shards %d", q.Epoch(), q.NumShards())
	}
}

// TestResizeBounds: targets outside [1, MaxShards] are rejected, and with
// autoscaling configured, targets outside its [Min, Max] are rejected too.
func TestResizeBounds(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2})
	defer q.Close()
	for _, n := range []int{0, -1, MaxShards + 1} {
		if _, err := q.Resize(n); err == nil {
			t.Errorf("Resize(%d) accepted, want rejection", n)
		}
	}

	qa := New(Config{Workers: 2, Shards: 2, Autoscale: &AutoscaleConfig{Min: 2, Max: 4, Interval: time.Hour}})
	defer qa.Close()
	for _, n := range []int{1, 5} {
		_, err := qa.Resize(n)
		if err == nil || !strings.Contains(err.Error(), "autoscale bounds") {
			t.Errorf("Resize(%d) under Min=2/Max=4: err = %v, want autoscale-bounds rejection", n, err)
		}
	}
	if _, err := qa.Resize(3); err != nil {
		t.Errorf("Resize(3) within bounds: %v", err)
	}
}

// TestResizeAfterClose: a closed queue refuses to resize.
func TestResizeAfterClose(t *testing.T) {
	q := New(Config{Workers: 1})
	q.Close()
	if _, err := q.Resize(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Resize after Close: err = %v, want ErrClosed", err)
	}
}

// TestResizeMigratesState: results cached before a resize survive it (a
// resubmit is a cache hit, never a re-execution), old job IDs stay
// resolvable, the latency window carries over, and placement in the new
// epoch is the deterministic hash of the key.
func TestResizeMigratesState(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 1, QueueDepth: 256})
	defer q.Close()

	specs := make([]Spec, 0, 24)
	for seed := uint64(0); seed < 24; seed++ {
		specs = append(specs, Spec{Algorithm: "reduce", N: 128, P: 2, Engine: core.EngineSim, Seed: seed})
	}
	ids := make([]uint64, len(specs))
	for i, spec := range specs {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	before := q.Snapshot()

	epoch, err := q.Resize(4)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || q.NumShards() != 4 {
		t.Fatalf("after resize: epoch %d shards %d, want 2 and 4", epoch, q.NumShards())
	}

	for i, spec := range specs {
		// Placement in the new epoch is the key hash modulo the new count.
		if got, want := q.ShardOf(spec), int(spec.key().hash()%4); got != want {
			t.Fatalf("spec %d placed on shard %d, want %d", i, got, want)
		}
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("spec %d re-executed after resize, want migrated cache hit", i)
		}
	}
	for i, id := range ids {
		if _, ok := q.Get(id); !ok {
			t.Errorf("pre-resize job %d (id %d) no longer resolvable", i, id)
		}
	}

	after := q.Snapshot()
	if after.Completed != before.Completed {
		t.Errorf("completed moved %d -> %d across resize: a job re-executed", before.Completed, after.Completed)
	}
	if after.CacheHits != before.CacheHits+int64(len(specs)) {
		t.Errorf("cache hits %d, want %d (every resubmit served from the migrated cache)",
			after.CacheHits, before.CacheHits+int64(len(specs)))
	}
	if after.Wall.Count != before.Wall.Count {
		t.Errorf("latency window %d -> %d samples across resize, want carried over", before.Wall.Count, after.Wall.Count)
	}
	if len(after.PerShard) != 4 {
		t.Errorf("per-shard table has %d entries, want 4", len(after.PerShard))
	}
}

// TestResizeCoalescesDuplicateAcrossMigration: a job admitted before a
// resize keeps coalescing duplicates submitted after it (the in-flight
// entry migrates with the key), and once it settles, a further duplicate
// is a cache hit — the job never runs twice.
func TestResizeCoalescesDuplicateAcrossMigration(t *testing.T) {
	q := New(Config{Workers: 4, Shards: 1, QueueDepth: 64})
	defer q.Close()

	// Hold all four workers so the spec job stays queued across the
	// resize.
	release := make(chan struct{})
	blockers := make([]*Job, 0, 4)
	for i := 0; i < 4; i++ {
		b, err := q.SubmitFunc(fmt.Sprintf("hold-%d", i), func(context.Context) error { <-release; return nil })
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, b)
	}
	waitRunning(t, q, 4)

	spec := Spec{Algorithm: "reduce", N: 256, P: 2, Engine: core.EngineSim, Seed: 77}
	orig, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Resize(4); err != nil {
		t.Fatal(err)
	}
	dup, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if q.Snapshot().Coalesced != 1 {
		t.Fatal("duplicate submitted across the resize did not coalesce onto the migrated in-flight job")
	}
	if got, ok := q.Get(dup.ID); !ok || got != dup {
		t.Fatal("coalesced job not retained for Get")
	}

	close(release)
	for _, b := range blockers {
		if _, err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	origRes, err := orig.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dupRes, err := dup.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dupRes != origRes {
		t.Fatalf("coalesced result %+v != winner's %+v", dupRes, origRes)
	}
	cached, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cached.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("post-settle duplicate not served from the cache after resize")
	}
	m := q.Snapshot()
	if m.Coalesced != 1 || m.CacheHits != 1 {
		t.Errorf("coalesced=%d cacheHits=%d, want 1/1 (the spec ran exactly once)", m.Coalesced, m.CacheHits)
	}
}

// TestResizeUnderLoad is the live-elasticity stress: four submitters
// hammer a duplicate-heavy key space while the table resizes 1→4→2→3→1
// under them. No job may be lost, refused, failed, or executed twice —
// every distinct key runs exactly once, however many epochs it crossed.
// It runs under the default FIFO lanes and under edf's heap lanes, whose
// drained backlog re-pushes into policy order. Run it with -race: every
// migration path crosses goroutines.
func TestResizeUnderLoad(t *testing.T) {
	for _, policy := range []string{"default", "edf"} {
		t.Run(policy, func(t *testing.T) {
			q := New(Config{Workers: 4, Shards: 1, QueueDepth: 8192, CacheSize: 4096, DefaultTimeout: 2 * time.Minute,
				Policies: Policies{Dequeue: policy}})
			defer q.Close()

			const distinct = 40
			const perSubmitter = 150
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for sub := 0; sub < 4; sub++ {
				wg.Add(1)
				go func(sub int) {
					defer wg.Done()
					jobs := make([]*Job, 0, perSubmitter)
					for i := 0; i < perSubmitter; i++ {
						spec := Spec{Algorithm: "reduce", N: 128, P: 2, Engine: core.EngineSim,
							Seed: uint64((sub*perSubmitter + i) % distinct)}
						job, err := q.Submit(spec)
						if err != nil {
							errs <- fmt.Errorf("submitter %d: %v", sub, err)
							return
						}
						jobs = append(jobs, job)
					}
					for _, job := range jobs {
						if _, err := job.Wait(context.Background()); err != nil {
							errs <- fmt.Errorf("submitter %d wait: %v", sub, err)
							return
						}
					}
				}(sub)
			}
			for _, n := range []int{4, 2, 3, 1} {
				time.Sleep(2 * time.Millisecond)
				if _, err := q.Resize(n); err != nil {
					t.Fatalf("Resize(%d): %v", n, err)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			m := q.Snapshot()
			if m.Completed != distinct {
				t.Errorf("completed = %d, want %d (each distinct key exactly once across all epochs)", m.Completed, distinct)
			}
			if m.Failed != 0 || m.Rejected != 0 || m.Timeouts != 0 {
				t.Errorf("failed=%d rejected=%d timeouts=%d, want 0", m.Failed, m.Rejected, m.Timeouts)
			}
			if got := m.CacheHits + m.Coalesced; got != 4*perSubmitter-distinct {
				t.Errorf("hits+coalesced = %d, want %d (every duplicate served without execution)", got, 4*perSubmitter-distinct)
			}
			if m.Pending != 0 {
				t.Errorf("pending = %d after full drain, want 0", m.Pending)
			}
			if m.Epoch != 5 {
				t.Errorf("epoch = %d after four resizes, want 5", m.Epoch)
			}
		})
	}
}

// TestResizeSpawnsWorkers: growing the table past the worker count grows
// the pool so every shard keeps a home worker; shrinking never kills
// workers.
func TestResizeSpawnsWorkers(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1})
	defer q.Close()
	if m := q.Snapshot(); m.Workers != 1 {
		t.Fatalf("workers = %d, want 1", m.Workers)
	}
	if _, err := q.Resize(4); err != nil {
		t.Fatal(err)
	}
	if m := q.Snapshot(); m.Workers != 4 || m.Shards != 4 {
		t.Fatalf("after grow: workers=%d shards=%d, want 4/4", m.Workers, m.Shards)
	}
	if _, err := q.Resize(2); err != nil {
		t.Fatal(err)
	}
	if m := q.Snapshot(); m.Workers != 4 || m.Shards != 2 {
		t.Fatalf("after shrink: workers=%d shards=%d, want 4/2", m.Workers, m.Shards)
	}
	// The grown pool still serves traffic on the shrunk table.
	job, err := q.Submit(Spec{Algorithm: "reduce", N: 128, P: 2, Engine: core.EngineSim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Regression: the widest possible grow from the narrowest pool. The
	// spawned workers must only ever see the published wide table — a
	// worker indexing its home on the old one-shard table panicked here.
	qw := New(Config{Workers: 1, Shards: 1})
	defer qw.Close()
	if _, err := qw.Resize(MaxShards); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 16; seed++ {
		job, err := qw.Submit(Spec{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if m := qw.Snapshot(); m.Workers != MaxShards || m.Shards != MaxShards {
		t.Fatalf("after 1→%d grow: workers=%d shards=%d", MaxShards, m.Workers, m.Shards)
	}
}

// TestResizeKeepsAdmissionBound: the migrated backlog rides in extra
// channel capacity, not in extra admission slots — after a resize the
// lane still rejects at the configured depth, so high-load resizes never
// loosen backpressure.
func TestResizeKeepsAdmissionBound(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2, QueueDepth: 4, CacheSize: -1})
	defer q.Close()

	release := make(chan struct{})
	defer close(release)
	for _, name := range namesOnShard(0, 2, 2) {
		if _, err := q.SubmitFunc(name, func(context.Context) error { <-release; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	waitRunning(t, q, 2)

	// Fill shard 1's interactive lane (per-shard depth 2) to the brim.
	queued := namesOnShard(1, 2, 2)
	for _, name := range queued {
		if _, err := q.SubmitFunc(name, func(context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.SubmitFunc(namesOnShard(1, 2, 3)[2], func(context.Context) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-resize overflow: err = %v, want ErrQueueFull", err)
	}

	// Merge onto one shard: its interactive lane depth is 4 and it
	// inherits the 2-job backlog, so exactly 2 more admissions fit —
	// the 3rd must be refused even though the channel has migration
	// headroom.
	if _, err := q.Resize(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.SubmitFunc(fmt.Sprintf("post-resize-%d", i), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("post-resize submit %d: %v", i, err)
		}
	}
	if _, err := q.SubmitFunc("post-resize-overflow", func(context.Context) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("post-resize overflow: err = %v, want ErrQueueFull (migrated backlog must not widen admission)", err)
	}
}

// TestWorkerHomeFairShare: fair-share dealing puts every shard's worker
// count within one of every other's, and leaves no shard without a home
// worker whenever workers >= shards.
func TestWorkerHomeFairShare(t *testing.T) {
	for _, c := range []struct{ workers, shards int }{
		{1, 1}, {4, 4}, {5, 4}, {7, 3}, {10, 4}, {16, 5}, {9, 8}, {64, 64}, {65, 64}, {13, 6},
	} {
		counts := make([]int, c.shards)
		for idx := 0; idx < c.workers; idx++ {
			home := workerHome(idx, c.shards, c.workers)
			if home < 0 || home >= c.shards {
				t.Fatalf("workerHome(%d, %d, %d) = %d out of range", idx, c.shards, c.workers, home)
			}
			counts[home]++
		}
		min, max := counts[0], counts[0]
		for _, n := range counts {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Errorf("workers=%d shards=%d: per-shard worker spread %v exceeds 1", c.workers, c.shards, counts)
		}
		if min < 1 {
			t.Errorf("workers=%d shards=%d: a shard has no home worker (%v)", c.workers, c.shards, counts)
		}
	}
}

// TestAutoscaleValidate: bounds and thresholds are checked after
// defaulting.
func TestAutoscaleValidate(t *testing.T) {
	if err := (AutoscaleConfig{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults): %v", err)
	}
	if err := (AutoscaleConfig{Min: 5, Max: 2}).Validate(); err == nil {
		t.Error("min > max accepted")
	}
	if err := (AutoscaleConfig{ImbalanceHigh: 0.1, ImbalanceLow: 0.5}).Validate(); err == nil {
		t.Error("high <= low accepted")
	}
	if err := (AutoscaleConfig{Min: 1, Max: 8, Interval: time.Second}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestAutoscaleNormalizesOutOfBoundsStart: a starting shard count above
// Max (New does not bound Config.Shards by the autoscale config) must be
// pulled into the bounds by the controller, not wedge it.
func TestAutoscaleNormalizesOutOfBoundsStart(t *testing.T) {
	q := New(Config{
		Workers: 8, Shards: 8,
		Autoscale: &AutoscaleConfig{Min: 1, Max: 4, Interval: 5 * time.Millisecond},
	})
	defer q.Close()
	deadline := time.Now().Add(10 * time.Second)
	for q.NumShards() > 4 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never normalized shards=%d into [1, 4]", q.NumShards())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoscaleGrowsAndShrinks drives the controller end to end: a held
// backlog deepens the per-shard queues until the controller grows the
// table to Max, and a drained idle queue shrinks back to Min.
func TestAutoscaleGrowsAndShrinks(t *testing.T) {
	q := New(Config{
		Workers: 2, Shards: 1, QueueDepth: 4096, CacheSize: -1,
		Autoscale: &AutoscaleConfig{Min: 1, Max: 4, Interval: 5 * time.Millisecond, ImbalanceHigh: 2, ImbalanceLow: 0.5},
	})
	defer q.Close()

	// Hold both workers so submissions pile up as queue depth.
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := q.SubmitFunc(fmt.Sprintf("hold-%d", i), func(context.Context) error { <-release; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	waitRunning(t, q, 2)
	jobs := make([]*Job, 0, 32)
	for seed := uint64(0); seed < 32; seed++ {
		job, err := q.Submit(Spec{Algorithm: "reduce", N: 64, P: 2, Engine: core.EngineSim, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for q.NumShards() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never grew the table: shards=%d pending=%d", q.NumShards(), q.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Release and drain; an idle queue must shrink back to Min.
	close(release)
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for q.NumShards() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never shrank the idle table: shards=%d", q.NumShards())
		}
		time.Sleep(time.Millisecond)
	}
	m := q.Snapshot()
	if m.Autoscale == nil || m.Autoscale.Max != 4 {
		t.Errorf("metrics do not echo the autoscale config: %+v", m.Autoscale)
	}
	if m.Failed != 0 || m.Rejected != 0 {
		t.Errorf("failed=%d rejected=%d during autoscaling, want 0", m.Failed, m.Rejected)
	}
	if m.Epoch < 3 {
		t.Errorf("epoch = %d, want >= 3 (at least one grow and one shrink)", m.Epoch)
	}
}
