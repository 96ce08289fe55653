// Package jobqueue is the sharded job-dispatch subsystem: a set of
// independent queue shards, each with its own worker pool, that accept
// simulation-job requests ("run algorithm A at size n with p processors on
// engine E"), validate and admission-control them per priority class,
// schedule them across workers with idle-shard work stealing, memoize
// completed results in per-shard result caches (CLOCK eviction, hits
// served without a lock), and aggregate serving statistics into one
// merged snapshot.
//
// # Sharding and elasticity
//
// A Queue built with Config.Shards = N splits every mutable structure N
// ways: run queues, worker pools, in-flight coalescing maps, result
// caches, latency rings and per-algorithm aggregates. Shard addressing
// lives in one place — an immutable, epoch-versioned placement table
// swapped atomically — and a job is placed on the shard selected by an
// FNV-1a hash of its cache Key against the current table (func jobs hash
// their name), so identical specs always meet on the same shard of an
// epoch — the invariant coalescing and result caching depend on. No lock
// is global: heavy mixed traffic contends only within a shard, and
// Snapshot merges the shards' views after the fact.
//
// The shard count is not fixed at creation: Resize swaps in a table of a
// different size, migrating cached results, coalescing entries, queued
// jobs and latency samples with their keys while running jobs finish and
// settle through the new table, so no job is lost, re-executed or
// mis-cached across the swap. Config.Autoscale opts into a controller
// that calls Resize from observed contention (queue depth per shard plus
// steal pressure), growing and shrinking the table between its bounds —
// one binary serving a laptop and a big box without hand-tuning the
// shard count, the LoPRAM stance on p applied to the serving layer.
//
// Idle shards do not sit out: a worker whose own shard has no runnable
// job sweeps the other shards' run queues (interactive class first) and
// steals the oldest admitted job it finds, woken either by a queue-wide
// kick published on every enqueue or by a slow fallback poll. This is the
// same discipline internal/palrt applies to pal-threads — owner pops its
// own deque, thieves take from the others — lifted from threads to jobs.
//
// # One way in
//
// Submit, SubmitFunc and the pooled Batch path reach the queue through
// one admission function, always under the home shard's lock: assign the
// ID, serve a cached result, coalesce a duplicate by chaining it onto the
// in-flight run, then enqueue or refuse. Submit and SubmitFunc run it
// synchronously, so admission refusals return from the call; a Batch
// stages its pooled frames and admits them together, taking each home
// shard's lock once, whenever stageK frames are staged and at Wait. Both
// spec routes first try one shared lock-free cache probe, which reads
// the same cache lookup the admission function does under the lock. A
// coalesced Submit returns its own job, which completes with the run it
// joined.
//
// # Result cache and completion
//
// Each shard's result cache is a CLOCK ring (an approximate LRU) beside
// a table of buckets that readers load atomically: a hit sets the
// entry's reference bit and takes no lock, so keys in use stay cached
// while one-off keys are evicted first, and an insert or eviction
// costs O(1) under the shard lock. Workers settle finished jobs in
// batches (at most 32 per flush), but flush before parking and before
// any run off the inline path, so a finished job's waiter never sits
// behind an unrelated long run; only inline runs, predicted far under
// their deadlines, accumulate completions behind one another.
//
// # Priority classes
//
// Every job carries a Class, drawn from the queue's runtime class set
// (Config.Classes): an ordered list of named classes, each with a
// dequeue weight and an admission quota. Admission control is per
// class: each class rides in its own lane of Quota × shard depth, so a
// flood in one class cannot crowd another out of admission. Dequeue
// order is the class set's discipline, applied queue-wide: strict
// classes (WeightStrict) drain first in set order, and the weighted
// classes share the remaining dequeues deficit-weighted round-robin —
// per worker, each round starts Weight jobs of every backlogged
// weighted class, so class throughput under saturation is proportional
// to weight and no weighted class starves. Latency percentiles and
// admission counters are kept per class so a serving report can show
// the populations separately.
//
// The default set, DefaultClasses, is strict interactive (jobs without
// a Priority, and all func jobs, run there) over weight-1 batch with a
// BatchShare admission quota — the degenerate "weights [∞, 1]"
// configuration, which reproduces the original hard-coded two-class
// behavior exactly: no batch job starts anywhere while an interactive
// job waits anywhere. A spec naming a class outside the set is refused
// at submit time with ErrUnknownClass.
//
// # Lineage
//
// The design transplants the paper's §3.1 scheduler from pal-threads to
// jobs: a fixed processor budget (the worker pools), work admitted into
// bounded pending sets and activated in creation order (the FIFO run
// queues), activated work never preempted, and saturation handled by
// refusing new work at admission (ErrQueueFull) rather than by unbounded
// queueing — the job-level analogue of a palthreads block running its
// children inline when no processor is free. Identical requests are
// coalesced while in flight and served from the result cache afterwards,
// the memoization principle of §4.5 applied to whole jobs.
package jobqueue
