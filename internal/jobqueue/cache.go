package jobqueue

import (
	"hash/maphash"
	"sync/atomic"
)

// resultCache is a shard's fixed-capacity result cache. It memoizes
// completed job results by Key — the memoization table of §4.5 lifted
// from DP cells to whole jobs: identical requests hit the table instead
// of recomputing. Entries carry the name the settling job already had
// alongside the result. An untraced pooled frame has none, and the settle
// renders none for it: a hit renders the name only when its own job needs
// one and the entry has none (see serveCached).
//
// One structure serves readers and writers:
//
//   - Reads go through a power-of-two table of buckets, each an atomic
//     pointer to an immutable list of entries, so get needs no lock. A
//     reader racing an insert, eviction or refresh sees the bucket from
//     before or after it, and every entry it can reach holds an
//     immutable, once-valid result.
//   - Eviction is CLOCK, an approximate LRU over a ring of capacity
//     slots. A hit sets its entry's reference bit, only when the bit is
//     clear, so a hot hit stays a read. The hand clears set bits and
//     evicts the first entry whose bit is clear: a key hit since the
//     hand last passed it survives, and a key never hit goes first.
//
// Writers (put, called by flush phase 1 and Resize migration) hold the
// shard mutex or own the shard outright. An insert or eviction publishes
// one bucket copy, so a write costs O(1) expected, however full the
// cache is.
// Buckets are indexed by a per-cache maphash seed: keys come from
// outside the program, and an unseeded hash would let crafted specs
// collide into one bucket.
type resultCache struct {
	cap     int
	seed    maphash.Seed
	mask    uint64
	buckets []atomic.Pointer[cacheNode]
	ring    []*cacheEntry // grows to cap, then slots are reused under the hand
	hand    int
}

// cacheEntry is one memoized result. Every field but ref is immutable
// once the entry is published; ref is its CLOCK reference bit.
type cacheEntry struct {
	key  Key
	name string
	res  Result
	slot int // ring index
	ref  atomic.Bool
}

// cacheNode links an entry into its bucket's immutable list.
type cacheNode struct {
	e    *cacheEntry
	next *cacheNode
}

// newResultCache returns an empty cache of the given capacity, with at
// least twice as many buckets as entries. A zero-capacity cache stores
// nothing.
func newResultCache(capacity int) *resultCache {
	n := 1
	for n < 2*capacity {
		n <<= 1
	}
	return &resultCache{
		cap:     capacity,
		seed:    maphash.MakeSeed(),
		mask:    uint64(n - 1),
		buckets: make([]atomic.Pointer[cacheNode], n),
	}
}

// bucket returns the bucket key hashes to. The strings go through
// maphash under the cache's seed and the integers are mixed into that
// seeded state, so no field's value can be chosen to force a collision.
func (c *resultCache) bucket(k Key) *atomic.Pointer[cacheNode] {
	h := mix64(maphash.String(c.seed, k.Algorithm)) ^ maphash.String(c.seed, string(k.Engine))
	h = mix64(h ^ uint64(k.N))
	h = mix64(h ^ uint64(k.P))
	h = mix64(h ^ k.Seed)
	return &c.buckets[h&c.mask]
}

// mix64 is MurmurHash3's 64-bit finalizer: a bijection that spreads
// every input bit over the whole output.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// get returns the entry cached for key and sets its reference bit. Safe
// without the shard lock.
func (c *resultCache) get(key Key) (*cacheEntry, bool) {
	for n := c.bucket(key).Load(); n != nil; n = n.next {
		if e := n.e; e.key == key {
			if !e.ref.Load() {
				e.ref.Store(true)
			}
			return e, true
		}
	}
	return nil, false
}

// put inserts or refreshes key, with its reference bit set if ref is (a
// migrated entry keeps the bit it had). A refresh replaces the entry in
// its own slot and keeps its reference bit; an insert into a full ring
// takes the slot of the entry the hand evicts. The caller holds the
// shard lock.
func (c *resultCache) put(key Key, name string, res Result, ref bool) {
	if c.cap <= 0 {
		return
	}
	b := c.bucket(key)
	e := &cacheEntry{key: key, name: name, res: res}
	e.ref.Store(ref)
	head := b.Load()
	for n := head; n != nil; n = n.next {
		if old := n.e; old.key == key {
			e.slot = old.slot
			e.ref.Store(ref || old.ref.Load())
			c.ring[e.slot] = e
			b.Store(&cacheNode{e: e, next: without(head, old)})
			return
		}
	}
	if len(c.ring) < c.cap {
		e.slot = len(c.ring)
		c.ring = append(c.ring, e)
	} else {
		victim := c.evict()
		e.slot = victim.slot
		c.ring[e.slot] = e
	}
	b.Store(&cacheNode{e: e, next: b.Load()})
}

// evict advances the hand to the next victim and unlinks it: set
// reference bits are cleared on the way, and the first entry found clear
// goes. After one full lap the hand evicts where it stands, so readers
// re-setting bits cannot stall a writer.
func (c *resultCache) evict() *cacheEntry {
	for i := 0; i < len(c.ring); i++ {
		e := c.ring[c.hand]
		if !e.ref.Load() {
			break
		}
		e.ref.Store(false)
		c.hand = (c.hand + 1) % len(c.ring)
	}
	victim := c.ring[c.hand]
	c.hand = (c.hand + 1) % len(c.ring)
	b := c.bucket(victim.key)
	b.Store(without(b.Load(), victim))
	return victim
}

// without returns list n minus the node holding e: the nodes ahead of it
// are copied, the tail behind it is shared.
func without(n *cacheNode, e *cacheEntry) *cacheNode {
	if n.e == e {
		return n.next
	}
	return &cacheNode{e: n.e, next: without(n.next, e)}
}

// len returns the number of cached results.
func (c *resultCache) len() int { return len(c.ring) }

// each visits every cached entry in hand order, the next eviction
// candidate first, with its reference bit, so putting them into another
// cache in visit order keeps their relative eviction order and which of
// them were hit. Resize uses it to re-hash a retiring shard's results
// onto the new placement table.
func (c *resultCache) each(fn func(k Key, name string, r Result, ref bool)) {
	for i := range c.ring {
		e := c.ring[(c.hand+i)%len(c.ring)]
		fn(e.key, e.name, e.res, e.ref.Load())
	}
}
