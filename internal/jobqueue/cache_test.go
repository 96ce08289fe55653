package jobqueue

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lopram/internal/core"
)

func k(n int) Key { return Key{Algorithm: "mergesort", N: n, P: 2, Engine: core.EngineSim} }

func put(c *resultCache, key Key, v int64) {
	c.put(key, "job", Result{Outcome: core.Outcome{Value: v}}, false)
}

// TestLRUEviction pins the CLOCK eviction order: a key hit since the
// hand last passed it survives the next eviction, a key never hit is
// evicted first, the hand clears the bits it passes, and a refresh keeps
// the entry's ring slot.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(3)
	put(c, k(1), 1)
	put(c, k(2), 2)
	put(c, k(3), 3)
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing before eviction")
	}
	// k1 is the oldest insert but was hit: the hand clears its bit and
	// passes on to k2, the first entry never hit.
	put(c, k(4), 4)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 survived eviction despite never being hit")
	}
	for _, want := range []int{1, 3, 4} {
		if e, ok := c.get(k(want)); !ok || e.res.Value != int64(want) {
			t.Fatalf("k%d lost or corrupted: %v %v", want, e, ok)
		}
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}

	c = newResultCache(3)
	put(c, k(1), 1)
	put(c, k(2), 2)
	put(c, k(3), 3)
	c.get(k(1))
	put(c, k(4), 4) // clears k1's bit, evicts k2
	put(c, k(5), 5) // the hand stands on k3, unreferenced: it goes
	if _, ok := c.get(k(3)); ok {
		t.Fatal("k3 survived eviction despite never being hit")
	}
	// The hand passed k1 and cleared its bit; not hit since, it is the
	// next entry the hand reaches, and goes.
	put(c, k(6), 6)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("k1 survived a second pass of the hand without a hit")
	}

	// A refresh rewrites the entry in its own slot: it neither moves
	// nor takes a victim.
	c = newResultCache(3)
	put(c, k(1), 1)
	put(c, k(2), 2)
	put(c, k(3), 3)
	put(c, k(2), 22)
	if c.len() != 3 || c.ring[1].key != k(2) || c.ring[1].res.Value != 22 {
		t.Fatalf("refresh moved k2 or lost its value: ring[1] = %+v, len %d", c.ring[1], c.len())
	}
	put(c, k(4), 4) // k1 goes: the refresh did not reorder the ring
	put(c, k(5), 5) // then k2, still in slot 1
	if _, ok := c.get(k(2)); ok {
		t.Fatal("refreshed k2 left its slot in the eviction order")
	}
	if e, ok := c.get(k(3)); !ok || e.res.Value != 3 {
		t.Fatalf("k3 lost or corrupted: %v %v", e, ok)
	}
}

func TestLRURefresh(t *testing.T) {
	c := newResultCache(4)
	c.put(k(1), "first", Result{Outcome: core.Outcome{Value: 1}}, false)
	c.put(k(1), "second", Result{Outcome: core.Outcome{Value: 42}}, false)
	if c.len() != 1 {
		t.Fatalf("len = %d after double put, want 1", c.len())
	}
	if e, _ := c.get(k(1)); e.res.Value != 42 || e.name != "second" {
		t.Fatalf("refresh lost: %+v", e)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newResultCache(0)
	put(c, k(1), 0)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("zero-capacity cache stored a result")
	}
	if c.len() != 0 {
		t.Fatal("zero-capacity cache non-empty")
	}
}

// TestCacheHotSetSurvivesOneOffs is repeat-hot's traffic shape in
// miniature: a hot set of three quarters of the capacity, every hot key
// hit once per round, beside a stream of one-off inserts that fills the
// rest. No hot key may be evicted: the one-offs, never hit, are always
// the hand's first victims.
func TestCacheHotSetSurvivesOneOffs(t *testing.T) {
	const capacity, hot, oneOffs, rounds = 512, 384, 128, 16
	c := newResultCache(capacity)
	fresh := hot
	for r := 0; r < rounds; r++ {
		for i := 0; i < hot; i++ {
			if _, ok := c.get(k(i)); !ok {
				if r > 0 {
					t.Fatalf("round %d: hot key %d was evicted", r, i)
				}
				put(c, k(i), int64(i))
			}
		}
		for i := 0; i < oneOffs; i++ {
			put(c, k(fresh), int64(fresh))
			fresh++
		}
	}
	if c.len() != capacity {
		t.Fatalf("len = %d, want %d", c.len(), capacity)
	}
}

// TestCacheResizeKeepsHotKeys: a grow shrinks each shard's capacity
// (512 on one shard → 128 on each of four), so a new shard sent more
// keys than it holds evicts during migration. The keys hit before the
// resize must carry their reference bits over and survive it; the
// overflow comes out of the keys never hit, though they sit later in
// the old shard's eviction order.
func TestCacheResizeKeepsHotKeys(t *testing.T) {
	const hot, cold, perShard = 32, 128, 128
	q := New(Config{Workers: 1, Shards: 1, CacheSize: 4 * perShard})
	defer q.Close()
	// Every key lands on shard 0 of the 4-shard table, 160 keys for 128
	// slots; the hot ones are inserted first.
	var keys []Key
	for seed := uint64(0); len(keys) < hot+cold; seed++ {
		if key := (Key{Algorithm: "reduce", N: 8, P: 1, Engine: core.EnginePRAM, Seed: seed}); shardIndexFor(key, 4) == 0 {
			keys = append(keys, key)
		}
	}
	s := q.place.Load().shards[0]
	s.mu.Lock()
	for i, key := range keys {
		put(s.cache, key, int64(i))
	}
	s.mu.Unlock()
	for _, key := range keys[:hot] {
		if _, ok := s.lookup(key); !ok {
			t.Fatalf("%+v missing before the resize", key)
		}
	}

	if _, err := q.Resize(4); err != nil {
		t.Fatal(err)
	}
	ns := q.place.Load().shards[0]
	if n := ns.cache.len(); n != perShard {
		t.Fatalf("new shard 0 holds %d results, want %d (the overflow was not exercised)", n, perShard)
	}
	for i, key := range keys[:hot] {
		if e, ok := ns.lookup(key); !ok || e.res.Value != int64(i) {
			t.Errorf("hot key %d lost across the resize", i)
		}
	}
}

// TestCacheLookupAllocs pins the one cache read of both hit paths at
// zero allocations, hit or miss.
func TestCacheLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	q := New(Config{Workers: 1, Shards: 1, CacheSize: 64})
	defer q.Close()
	s := q.place.Load().shards[0]
	s.mu.Lock()
	put(s.cache, k(1), 1)
	s.mu.Unlock()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.lookup(k(1)); !ok {
			t.Fatal("cached key missed")
		}
		if _, ok := s.lookup(k(2)); ok {
			t.Fatal("absent key hit")
		}
	})
	if allocs != 0 {
		t.Errorf("lookup allocates %.1f per hit+miss, want 0", allocs)
	}
}

// TestCacheLookupRacesWriters runs lock-free lookups against locked
// inserts that keep a small cache evicting, while the placement table
// resizes under both. Every hit must be the entry of the key looked up;
// run it under -race.
func TestCacheLookupRacesWriters(t *testing.T) {
	q := New(Config{Workers: 1, Shards: 2, CacheSize: 64})
	defer q.Close()
	const keys = 256
	const putsPerWriter = 2000
	const resizes = 64
	name := func(seed uint64) string { return fmt.Sprintf("job-%d", seed) }
	key := func(seed uint64) Key {
		return Key{Algorithm: "reduce", N: 8, P: 1, Engine: core.EnginePRAM, Seed: seed}
	}
	// putLocked is flush phase 1's insert: under the home shard's lock,
	// following a retired shard to the new table.
	putLocked := func(seed uint64) {
		for {
			s := q.place.Load().shardFor(key(seed))
			s.mu.Lock()
			if s.retired {
				s.mu.Unlock()
				retryPlacement()
				continue
			}
			s.cache.put(key(seed), name(seed), Result{Outcome: core.Outcome{Value: int64(seed)}}, false)
			s.mu.Unlock()
			return
		}
	}

	// Writers and the resizer do a fixed amount of work and yield often,
	// so the interleaving is dense at GOMAXPROCS=1 too; the readers run
	// until both are done.
	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := uint64(w)*2654435761 + 1
			for i := 0; i < putsPerWriter; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				putLocked(rng >> 33 % keys)
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < resizes; i++ {
			if _, err := q.Resize(1 + i%4); err != nil {
				t.Errorf("Resize: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	var hits atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for seed := uint64(r); !done.Load(); seed = (seed + 1) % keys {
				if seed%16 == 0 {
					runtime.Gosched()
				}
				e, ok := q.place.Load().shardFor(key(seed)).lookup(key(seed))
				if !ok {
					continue
				}
				hits.Add(1)
				if e.key != key(seed) || e.name != name(seed) || e.res.Value != int64(seed) {
					t.Errorf("lookup(seed %d) returned the entry of %+v (%q, value %d)", seed, e.key, e.name, e.res.Value)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if hits.Load() == 0 {
		t.Error("no lookup hit; the race was not exercised")
	}
}
