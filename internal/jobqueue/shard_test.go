package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lopram/internal/core"
)

// TestShardPlacementDeterminism: a spec's shard is a pure function of its
// cache key and the shard count — stable across queue instances — and a
// realistic key population spreads across every shard.
func TestShardPlacementDeterminism(t *testing.T) {
	qa := New(Config{Workers: 4, Shards: 4})
	defer qa.Close()
	qb := New(Config{Workers: 4, Shards: 4})
	defer qb.Close()

	specs := testSpecs()
	seen := make(map[int]int)
	for _, spec := range specs {
		a, b := qa.ShardOf(spec), qb.ShardOf(spec)
		if a != b {
			t.Fatalf("spec %v: shard %d on one queue, %d on another", spec, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("spec %v: shard %d out of range", spec, a)
		}
		seen[a]++
	}
	if len(seen) != 4 {
		t.Errorf("100 mixed specs hit only shards %v, want all 4", seen)
	}

	// Priority is not part of the key: both classes of the same spec meet
	// on one shard (the invariant coalescing and caching rely on).
	s := specs[0]
	s.Priority = ClassBatch
	if qa.ShardOf(s) != qa.ShardOf(specs[0]) {
		t.Error("priority changed the spec's shard placement")
	}

	// The home shard is encoded in the job ID and owns the execution
	// accounting.
	job, err := qa.Submit(Spec{Algorithm: "reduce", N: 128, P: 2, Engine: core.EngineSim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := qa.ShardOf(job.Spec)
	if got := int(job.ID & (MaxShards - 1)); got != want {
		t.Errorf("job ID encodes shard %d, ShardOf says %d", got, want)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := qa.Snapshot()
	if m.PerShard[want].Executed != 1 {
		t.Errorf("home shard %d executed = %d, want 1 (per-shard: %+v)", want, m.PerShard[want].Executed, m.PerShard)
	}
}

// namesOnShard returns count distinct func-job names that all hash to the
// given shard of a shards-way queue.
func namesOnShard(shard, shards, count int) []string {
	names := make([]string, 0, count)
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf("on-shard-%d", i)
		if int(hashString(name)%uint64(shards)) == shard {
			names = append(names, name)
		}
	}
	return names
}

// TestCrossShardStealing: jobs placed on one shard of a 4-shard queue are
// drained by the other shards' idle workers. Run it with -race: the steal
// path crosses shard boundaries on every hand-off.
func TestCrossShardStealing(t *testing.T) {
	q := New(Config{Workers: 4, Shards: 4})
	defer q.Close()

	const n = 12
	jobs := make([]*Job, 0, n)
	for _, name := range namesOnShard(1, 4, n) {
		job, err := q.SubmitFunc(name, func(context.Context) error {
			time.Sleep(3 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if home := int(job.ID & (MaxShards - 1)); home != 1 {
			t.Fatalf("job %s homed on shard %d, want 1", job.Name, home)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
	}
	m := q.Snapshot()
	if m.PerShard[1].Executed != n {
		t.Errorf("home shard executed = %d, want %d", m.PerShard[1].Executed, n)
	}
	for i, st := range m.PerShard {
		if i != 1 && st.Executed != 0 {
			t.Errorf("shard %d executed %d jobs, want 0 (placement leaked)", i, st.Executed)
		}
	}
	// One worker owns shard 1; with 12 serialized 3ms jobs against three
	// idle shards, the kick path must have moved work across shards.
	if m.Steals == 0 {
		t.Error("no cross-shard steals despite a single-shard hot spot")
	}
	if m.Failed != 0 || m.Rejected != 0 {
		t.Errorf("failed=%d rejected=%d, want 0", m.Failed, m.Rejected)
	}
}

// TestPerClassAdmission: the batch class is confined to its BatchShare
// slice of the shard depth, interactive may use the full depth, and each
// class's rejections are accounted separately.
func TestPerClassAdmission(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, QueueDepth: 4, BatchShare: 0.5})
	defer q.Close()

	// Hold the only worker so admitted jobs stay queued.
	release := make(chan struct{})
	defer close(release)
	if _, err := q.SubmitFunc("blocker", func(context.Context) error { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the blocker")
		}
		time.Sleep(time.Millisecond)
	}

	submit := func(n int, class Class) error {
		_, err := q.Submit(Spec{Algorithm: "reduce", N: n, P: 2, Engine: core.EngineSim, Seed: 42, Priority: class})
		return err
	}
	// Batch share of depth 4 is 2 slots: two admitted, the third refused.
	if err := submit(100, ClassBatch); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	if err := submit(101, ClassBatch); err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	if err := submit(102, ClassBatch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch 3: err = %v, want ErrQueueFull", err)
	}
	// Interactive still has its full 4-slot depth.
	for i := 0; i < 4; i++ {
		if err := submit(200+i, ClassInteractive); err != nil {
			t.Fatalf("interactive %d: %v", i, err)
		}
	}
	if err := submit(300, ClassInteractive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive overflow: err = %v, want ErrQueueFull", err)
	}
	// An unknown class never reaches a run queue.
	if err := submit(400, Class("carrier-pigeon")); err == nil {
		t.Fatal("unknown priority class was admitted")
	}

	m := q.Snapshot()
	if got := m.PerClass[ClassBatch].Rejected; got != 1 {
		t.Errorf("batch rejected = %d, want 1", got)
	}
	if got := m.PerClass[ClassInteractive].Rejected; got != 1 {
		t.Errorf("interactive rejected = %d, want 1", got)
	}
	if got := m.PerClass[ClassBatch].Submitted; got != 2 {
		t.Errorf("batch submitted = %d, want 2", got)
	}
}

// TestClassPriorityOrder: with one worker, queued interactive jobs start
// before queued batch jobs regardless of submission order, and each class
// reports its own latency percentiles.
func TestClassPriorityOrder(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 1, QueueDepth: 16})
	defer q.Close()

	release := make(chan struct{})
	blocker, err := q.SubmitFunc("blocker", func(context.Context) error { <-release; return nil })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Snapshot().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the blocker")
		}
		time.Sleep(time.Millisecond)
	}

	// Batch first into the queue, interactive after.
	var batch, interactive []*Job
	for i := 0; i < 3; i++ {
		j, err := q.Submit(Spec{Algorithm: "reduce", N: 64 + i, P: 2, Engine: core.EngineSim, Seed: 7, Priority: ClassBatch})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, j)
	}
	for i := 0; i < 3; i++ {
		j, err := q.Submit(Spec{Algorithm: "reduce", N: 96 + i, P: 2, Engine: core.EngineSim, Seed: 7, Priority: ClassInteractive})
		if err != nil {
			t.Fatal(err)
		}
		interactive = append(interactive, j)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range append(append([]*Job(nil), batch...), interactive...) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
	}

	lastInteractive, firstBatch := time.Time{}, time.Time{}
	for _, j := range interactive {
		j.mu.Lock()
		if j.started.After(lastInteractive) {
			lastInteractive = j.started
		}
		j.mu.Unlock()
	}
	for _, j := range batch {
		j.mu.Lock()
		if firstBatch.IsZero() || j.started.Before(firstBatch) {
			firstBatch = j.started
		}
		j.mu.Unlock()
	}
	if firstBatch.Before(lastInteractive) {
		t.Errorf("a batch job started at %v before the last interactive start %v", firstBatch, lastInteractive)
	}

	m := q.Snapshot()
	// 4 interactive completions: the three spec jobs plus the func-job
	// blocker (func jobs run in the interactive class).
	if m.PerClass[ClassInteractive].Wall.Count != 4 {
		t.Errorf("interactive wall samples = %d, want 4", m.PerClass[ClassInteractive].Wall.Count)
	}
	if m.PerClass[ClassBatch].Wall.Count != 3 {
		t.Errorf("batch wall samples = %d, want 3", m.PerClass[ClassBatch].Wall.Count)
	}
}

// TestShardedEndToEnd replays the mixed 100-job workload of TestEndToEnd
// against a 4-shard queue: the sharded path must preserve the coalescing,
// caching and accounting invariants the single-queue path established.
func TestShardedEndToEnd(t *testing.T) {
	q := New(Config{Workers: 4, Shards: 4, QueueDepth: 256, DefaultTimeout: 2 * time.Minute})
	defer q.Close()

	specs := testSpecs()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatalf("submit %v: %v", spec, err)
		}
		jobs[i] = job
	}
	byKey := make(map[Key]core.Outcome)
	for i, job := range jobs {
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d (%v): %v", i, specs[i], err)
		}
		key := specs[i].key()
		if prev, ok := byKey[key]; ok {
			if prev != res.Outcome {
				t.Errorf("spec %v: outcome diverged between duplicates", specs[i])
			}
		} else {
			byKey[key] = res.Outcome
		}
	}

	m := q.Snapshot()
	if m.Submitted+m.Coalesced != int64(len(specs)) {
		t.Errorf("submitted %d + coalesced %d != %d requests", m.Submitted, m.Coalesced, len(specs))
	}
	dups := int64(len(specs) - len(byKey))
	if m.CacheHits+m.Coalesced != dups {
		t.Errorf("cache hits %d + coalesced %d != %d duplicate requests", m.CacheHits, m.Coalesced, dups)
	}
	if m.Completed != int64(len(byKey)) {
		t.Errorf("executed %d jobs, want %d (one per distinct key)", m.Completed, len(byKey))
	}
	var executed int64
	for _, st := range m.PerShard {
		executed += st.Executed
	}
	if executed != m.Completed+m.Failed {
		t.Errorf("per-shard executed sums to %d, want %d", executed, m.Completed+m.Failed)
	}
}

// specsOnShard returns count distinct reduce/sim specs of size n whose
// keys all hash to the given shard of a shards-way table, in the given
// priority class. Distinct n per class keeps the keys disjoint (Priority
// is not part of the key, so equal keys would coalesce across classes).
func specsOnShard(shard, shards, count, n int, class Class) []Spec {
	specs := make([]Spec, 0, count)
	for seed := uint64(0); len(specs) < count; seed++ {
		spec := Spec{Algorithm: "reduce", N: n, P: 2, Engine: core.EngineSim, Seed: seed, Priority: class}
		if int(spec.key().hash()%uint64(shards)) == shard {
			specs = append(specs, spec)
		}
	}
	return specs
}

// TestStolenWorkStrictClassFirst is the class-aware steal regression
// test: a backlog of batch and interactive jobs placed on one shard is
// drained by workers sweeping from elsewhere, and the sweep must follow
// the dequeue discipline — every strict (interactive) job starts before
// any weighted (batch) job, whether it was served from the home lane or
// stolen across shards.
func TestStolenWorkStrictClassFirst(t *testing.T) {
	q := New(Config{Workers: 2, Shards: 2, QueueDepth: 64, CacheSize: -1})
	defer q.Close()

	// Hold both workers so the one-shard backlog accumulates unserved; the
	// blockers hash to shard 0 so shard 1's executed count stays the
	// spec jobs'.
	release := make(chan struct{})
	for _, name := range namesOnShard(0, 2, 2) {
		if _, err := q.SubmitFunc(name, func(context.Context) error { <-release; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Snapshot().Running != 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up the blockers")
		}
		time.Sleep(time.Millisecond)
	}

	// Batch first into shard 1's lanes, interactive after — submission
	// order must not leak into dequeue order.
	var jobs []*Job
	for _, spec := range specsOnShard(1, 2, 3, 96, ClassBatch) {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, spec := range specsOnShard(1, 2, 3, 128, ClassInteractive) {
		job, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	close(release)

	lastInteractive, firstBatch := time.Time{}, time.Time{}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		j.mu.Lock()
		switch j.Spec.Priority {
		case ClassInteractive:
			if j.started.After(lastInteractive) {
				lastInteractive = j.started
			}
		case ClassBatch:
			if firstBatch.IsZero() || j.started.Before(firstBatch) {
				firstBatch = j.started
			}
		}
		j.mu.Unlock()
	}
	if firstBatch.Before(lastInteractive) {
		t.Errorf("a batch job started at %v before the last interactive start %v: the sweep ignored strict priority", firstBatch, lastInteractive)
	}
	m := q.Snapshot()
	if m.PerShard[1].Executed != 6 {
		t.Errorf("target shard executed %d, want 6", m.PerShard[1].Executed)
	}
}
