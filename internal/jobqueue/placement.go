package jobqueue

import (
	"fmt"
	"runtime"
	"sort"
)

// placement is the epoch-versioned shard table: the single authority on
// which shard owns a key, a func-job name, or a job ID. It is immutable —
// a resize builds a whole new table and swaps it in atomically — so every
// reader works against one consistent epoch and "which shard?" has
// exactly one answer per epoch. Within an epoch, placement is a pure
// function of the key (hash modulo the shard count); across epochs, keys
// migrate with their cached results and in-flight entries (Resize).
type placement struct {
	// epoch counts placement generations, starting at 1 for the table
	// built by New and incremented by every successful Resize.
	epoch uint64
	// workers is the total worker count dealt across this table's shards
	// (it can only grow: a resize past the current count spawns more).
	workers int
	shards  []*shard
}

// shardIndexFor, shardIndexForName and shardIndexForID are the three
// routing rules of the system, shared verbatim between epoch lookups
// (the placement methods below) and resize migration — one source of
// truth, so migrated state can never land on a shard a lookup will not
// visit.

// shardIndexFor routes a spec key on an n-shard table.
func shardIndexFor(key Key, n int) int { return int(key.hash() % uint64(n)) }

// shardIndexForName routes a func job's name on an n-shard table.
func shardIndexForName(name string, n int) int { return int(hashString(name) % uint64(n)) }

// shardIndexForID routes a job ID on an n-shard table: the ID's birth
// shard index (its low shardBits) reduced modulo the current count —
// the rule resize migrates retention entries by, so the route stays
// valid across epochs.
func shardIndexForID(id uint64, n int) int { return int(id&(MaxShards-1)) % n }

// shardFor returns the home shard of a spec key in this epoch.
func (p *placement) shardFor(key Key) *shard {
	return p.shards[shardIndexFor(key, len(p.shards))]
}

// shardForName returns the home shard of a func job's name in this epoch.
func (p *placement) shardForName(name string) *shard {
	return p.shards[shardIndexForName(name, len(p.shards))]
}

// shardForID returns the shard retaining the job with the given ID in
// this epoch.
func (p *placement) shardForID(id uint64) *shard {
	return p.shards[shardIndexForID(id, len(p.shards))]
}

// workerHome deals worker idx its home shard: fair-share dealing, so
// every shard's worker count is within one of every other's (⌊W/N⌋ or
// ⌈W/N⌉, with the extras spread across the shard range instead of
// clustered on the low indices) and every shard gets at least one worker
// whenever workers >= shards.
func workerHome(idx, shards, workers int) int {
	return idx * shards / workers
}

// Epoch returns the current placement epoch: 1 at creation, +1 per
// successful resize. Placement is deterministic within an epoch — equal
// keys always map to one shard of the epoch's table.
func (q *Queue) Epoch() uint64 { return q.place.Load().epoch }

// NumShards returns the current shard count.
func (q *Queue) NumShards() int { return len(q.place.Load().shards) }

// Resize grows or shrinks the shard set to n, migrating state so that no
// admitted job is lost or re-executed and no cached result is orphaned:
//
//   - Completed results (the result caches) and in-flight coalescing entries
//     re-hash onto the new table, so a duplicate submitted after the swap
//     still cache-hits or coalesces.
//   - Admitted-but-unstarted jobs are drained from the old run queues and
//     re-enqueued on their new home shards in submission order, past the
//     admission bound, so migration can never be refused.
//   - Jobs already running finish where they are; their completion flush
//     forwards through the new table (see flushCompletions), so the
//     result lands in the new home's cache.
//   - Latency samples and per-algorithm aggregates live on the workers'
//     metric shards, untouched by a resize, so merged Snapshot summaries
//     do not reset; retention entries re-route by ID.
//   - Frames a Batch has staged but not yet admitted are in no run
//     queue, so nothing migrates for them: their admission resolves
//     their homes under whichever table is current.
//
// Concurrent Submit/Get/Wait observe either the old epoch or the new one,
// never a half-migrated table: old shards are retired first (late writers
// spin briefly and retry against the new table), then the new table is
// published. Resizes are serialized; a resize to the current count is a
// no-op returning the current epoch.
// When autoscaling is configured, n must lie within its [Min, Max].
func (q *Queue) Resize(n int) (uint64, error) {
	q.resizeMu.Lock()
	defer q.resizeMu.Unlock()
	if q.closed.Load() {
		return 0, ErrClosed
	}
	if n < 1 || n > MaxShards {
		return 0, fmt.Errorf("jobqueue: resize to %d shards outside [1, %d]", n, MaxShards)
	}
	if a := q.cfg.Autoscale; a != nil {
		if n < a.Min || n > a.Max {
			return 0, fmt.Errorf("jobqueue: resize to %d shards outside the autoscale bounds [%d, %d]", n, a.Min, a.Max)
		}
	}
	old := q.place.Load()
	if n == len(old.shards) {
		return old.epoch, nil // no-op: same table, same epoch
	}

	// Retire the old shards and empty their lanes: from here on no
	// submit, settle or read lands on them — late arrivals holding the
	// old table spin until the new one is published (see the retired
	// checks in Submit, settle, Get, Jobs and Snapshot). Retiring under
	// each shard's lock fences any critical section already in flight,
	// and workers pop under the same lock, so each admitted job is
	// either already taken by a worker or drained here — never both.
	var backlog []laneItem
	for _, s := range old.shards {
		s.mu.Lock()
		s.retired = true
		for l := range s.lanes {
			for _, it := range s.lanes[l].drain() {
				s.pending.Add(-1)
				s.laneUsed[it.job.class].Add(-1)
				backlog = append(backlog, it)
			}
		}
		s.mu.Unlock()
	}
	// IDs carry the global submission sequence in their high bits:
	// sorting restores submission order across the merged old lanes.
	sort.Slice(backlog, func(a, b int) bool { return backlog[a].job.ID < backlog[b].job.ID })

	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = q.newShard(i, n)
	}

	// Migrate each old shard's keyed state onto the new table. The new
	// shards are unpublished, so they need no locking yet. Latency
	// samples and per-algorithm aggregates do not migrate: they live on
	// the workers' metric shards, which a resize never touches.
	for _, s := range old.shards {
		s.mu.Lock()
		s.cache.each(func(k Key, name string, r Result, ref bool) {
			shards[shardIndexFor(k, n)].cache.put(k, name, r, ref)
		})
		for k, job := range s.inflight {
			shards[shardIndexFor(k, n)].inflight[k] = job
		}
		for _, id := range s.retained {
			ns := shards[shardIndexForID(id, n)]
			ns.retained = append(ns.retained, id)
			ns.byID[id] = s.byID[id]
		}
		// Free the migrated structures; only the executed/stolen
		// counters live on — the shard joins q.retiredShards below so
		// late increments from a racing dequeue are never lost from the
		// totals. The cache is unpublished, so a stale fast-path reader
		// keeps at most the cache it already holds, which nothing writes
		// again and which serves immutable, once-valid results.
		s.byID, s.inflight, s.retained = nil, nil, nil
		s.cache = newResultCache(0)
		s.cacheLive.Store(nil)
		s.mu.Unlock()
	}
	for _, ns := range shards {
		sort.Slice(ns.retained, func(a, b int) bool { return ns.retained[a] < ns.retained[b] })
		ns.trimRetention()
	}
	for _, it := range backlog {
		job := it.job
		var ns *shard
		if job.fn == nil {
			ns = shards[shardIndexFor(job.Spec.key(), n)]
		} else {
			ns = shards[shardIndexForName(job.Name, n)]
		}
		ns.lanes[q.laneOf[job.class]].push(it)
		ns.pending.Add(1)
		ns.laneUsed[job.class].Add(1)
	}
	// A table wider than the worker pool would leave shards with no home
	// worker; grow the pool to keep the ≥1-worker-per-shard invariant.
	// The pool size is fixed before publication so the new table carries
	// it, but the new goroutines start only *after* the store below — a
	// worker with idx >= the old pool size must never see the old table,
	// whose workerHome would index past its shard slice.
	spawnFrom := q.totalWorkers
	if n > q.totalWorkers {
		q.totalWorkers = n
	}
	if q.totalWorkers > spawnFrom {
		// Grow the metric-shard slice before any new worker can start:
		// append-only, existing entries untouched, stored before the
		// spawns below so every worker finds its slot.
		wms := append([]*workerMetrics(nil), *q.workerM.Load()...)
		for i := spawnFrom; i < q.totalWorkers; i++ {
			wms = append(wms, newWorkerMetrics(len(q.classes.specs)))
		}
		q.workerM.Store(&wms)
	}

	// Publish, then kick: a parked worker wakes, sees the table moved,
	// and re-homes (the rest follow on the kick chain or the poll). The
	// retired-generation rotation and the store happen under one
	// retiredMu critical section, so a reader that loads the table under
	// the same lock always sees the retired list holding exactly the
	// generation before its table — no window where the old epoch's
	// executed/stolen history is in neither place. The previous
	// generation is folded into the aggregate counters first (its racing
	// dequeues have long settled), so the list only ever holds one
	// generation and Snapshot / autoscaler ticks stay O(shards), not
	// O(total resizes).
	next := &placement{epoch: old.epoch + 1, workers: q.totalWorkers, shards: shards}
	q.retiredMu.Lock()
	for _, s := range q.retiredShards {
		q.retiredExec.Add(s.executed.Load())
		q.retiredStolen.Add(s.stolen.Load())
	}
	q.retiredShards = append(q.retiredShards[:0], old.shards...)
	q.place.Store(next)
	q.retiredMu.Unlock()
	for idx := spawnFrom; idx < q.totalWorkers; idx++ {
		q.workers.Add(1)
		go q.worker(idx)
	}
	q.kickWorkers()
	return next.epoch, nil
}

// trimRetention evicts terminal jobs beyond the shard's retention limit,
// oldest first, stopping at the first still-in-flight job. insertLocked
// applies it under s.mu on every insert; Resize applies it to unpublished
// shards (no lock needed) after merging several old shards' retention
// lists.
func (s *shard) trimRetention() {
	for len(s.retained) > s.limit {
		id := s.retained[0]
		if old := s.byID[id]; old != nil {
			if st := old.Status(); st != StatusDone && st != StatusFailed {
				break
			}
			delete(s.byID, id)
		}
		s.retained = s.retained[1:]
	}
}

// retiredTotals returns the current placement table together with the
// executed/stolen history of every shard retired before it. The table is
// loaded under retiredMu — Resize rotates the retired generation and
// publishes the new table under the same lock — so the history always
// pairs with the table: no epoch is counted twice or skipped, which is
// what keeps Metrics.Steals and the autoscaler's deltas monotonic.
func (q *Queue) retiredTotals() (p *placement, exec, stolen int64) {
	q.retiredMu.Lock()
	p = q.place.Load()
	exec = q.retiredExec.Load()
	stolen = q.retiredStolen.Load()
	for _, s := range q.retiredShards {
		exec += s.executed.Load()
		stolen += s.stolen.Load()
	}
	q.retiredMu.Unlock()
	return p, exec, stolen
}

// retryPlacement is the spin hint for readers and writers that caught a
// shard mid-retirement: yield, reload the table, try again. The window is
// the migration body of Resize — microseconds of copying, never I/O.
func retryPlacement() { runtime.Gosched() }
