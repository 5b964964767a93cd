package semantics

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// numShards stripes each cache map. Power of two so the hash can be masked;
// 64 shards keep concurrent readers of *different* keys on different locks
// (and usually different cache lines) even at high core counts, while the
// per-shard RWMutex makes warm reads of the *same* key contention-free
// (RLock only).
const numShards = 64

// flight tracks one in-progress computation so concurrent misses on the
// same key coalesce: the first caller computes, the rest wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// shard is one stripe of a cache: a read-optimized map plus the in-flight
// computations keyed into this stripe.
type shard[V any] struct {
	mu       sync.RWMutex
	m        map[string]V
	inflight map[string]*flight[V]

	// Lookup outcome counters. Counted only in get — every public lookup
	// path probes get before do, so counting in both would double-count
	// misses. One uncontended atomic add per lookup.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// cache is a striped, read-optimized, string-keyed memo with single-flight
// fills. Warm reads take only a shard RLock; a cold key is computed exactly
// once no matter how many goroutines miss on it concurrently (the paper's
// "caching and indexing" engineering, §5.3.2, made safe for the parallel
// matching engine). The zero value is ready to use.
type cache[V any] struct {
	shards [numShards]shard[V]

	// Single-flight coalescing counters: how many callers waited on
	// another goroutine's in-progress computation, and for how long in
	// total. Both touched only on the cold wait path.
	waits  atomic.Uint64
	waitNs atomic.Int64
}

// cacheSeed is shared by every cache; shard placement only needs to be
// stable within one process.
var cacheSeed = maphash.MakeSeed()

// shardFor hashes key onto a stripe. maphash uses the runtime's hardware-
// accelerated string hash, so striping costs a few ns even for the long
// composite score keys on the warm read path (a byte-loop FNV here showed
// up as a measurable per-match regression).
func (c *cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[maphash.String(cacheSeed, key)&(numShards-1)]
}

// get returns the cached value for key without ever computing.
func (c *cache[V]) get(key string) (V, bool) {
	sh := c.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
	return v, ok
}

// do returns the value for key, computing it via compute at most once
// across concurrent callers. compute runs outside every lock, so it may
// recurse into *other* caches but must not re-enter the same key of the
// same cache.
func (c *cache[V]) do(key string, compute func() V) V {
	sh := c.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return v
	}

	sh.mu.Lock()
	if v, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return v
	}
	if f, ok := sh.inflight[key]; ok {
		// Someone else is computing this key: wait for it.
		sh.mu.Unlock()
		t0 := time.Now()
		<-f.done
		c.waits.Add(1)
		c.waitNs.Add(int64(time.Since(t0)))
		if f.ok {
			return f.val
		}
		// The computing goroutine panicked; recompute here.
		return c.do(key, compute)
	}
	f := &flight[V]{done: make(chan struct{})}
	if sh.inflight == nil {
		sh.inflight = make(map[string]*flight[V])
	}
	sh.inflight[key] = f
	sh.mu.Unlock()

	defer func() {
		sh.mu.Lock()
		if f.ok {
			if sh.m == nil {
				sh.m = make(map[string]V)
			}
			sh.m[key] = f.val
		}
		delete(sh.inflight, key)
		sh.mu.Unlock()
		close(f.done)
	}()
	f.val = compute()
	f.ok = true
	return f.val
}

// len returns the total number of cached entries across shards.
func (c *cache[V]) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// stats sums the lookup outcome counters across shards.
func (c *cache[V]) stats() (hits, misses uint64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// waitStats reports the single-flight coalescing counters.
func (c *cache[V]) waitStats() (waits uint64, waitSeconds float64) {
	return c.waits.Load(), float64(c.waitNs.Load()) / 1e9
}

// reset drops every cached entry. In-flight computations finish and publish
// into the new maps; callers that raced a reset may recompute once.
func (c *cache[V]) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}
