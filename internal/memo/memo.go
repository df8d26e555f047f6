// Package memo is the one memoization primitive behind the simulator's
// caches: the experiment runner's result memo, the result store, the
// device-state snapshot store, and the trace cache.
//
// A Group maps keys to values computed at most once at a time. Concurrent
// misses on one key run the compute once and every caller shares its value;
// a waiter stops waiting when its own context ends, while the compute keeps
// running for everyone else. A compute that fails, is cancelled or panics
// publishes nothing, so errors are never cached and waiters retry. At most
// limit published values are held, evicting the least recently used.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Group memoizes values of type V by key. The zero value is not usable;
// build one with New.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     *list.List // published resident entries, front = most recent
	limit   int

	hits, misses atomic.Uint64
}

// entry is one key's value, published or in flight. ready closes exactly
// once; val and ok are immutable afterwards (ok false = abandoned claim).
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	ok    bool
	elem  *list.Element // position in lru; nil while in flight
}

// New builds a group holding at most limit published values; limit <= 0
// means unbounded.
func New[K comparable, V any](limit int) *Group[K, V] {
	return &Group[K, V]{entries: make(map[K]*entry[K, V]), lru: list.New(), limit: limit}
}

// Claim is the right, and the duty, to compute one missing key. Exactly one
// of Publish or Abandon takes effect; later calls are no-ops, so a deferred
// Abandon safely guards every early exit after a Publish. A claim belongs to
// the goroutine that received it.
type Claim[K comparable, V any] struct {
	g    *Group[K, V]
	e    *entry[K, V]
	done bool
}

// Claim resolves k: a published value is returned with a nil claim; a miss
// returns a claim the caller must resolve. A claim in flight elsewhere is
// waited on until it resolves or ctx ends; an abandoned one is claimed or
// waited on afresh.
func (g *Group[K, V]) Claim(ctx context.Context, k K) (V, *Claim[K, V], error) {
	for {
		g.mu.Lock()
		if e, ok := g.entries[k]; ok {
			if e.elem != nil {
				g.lru.MoveToFront(e.elem)
			}
			g.mu.Unlock()
			select {
			case <-e.ready:
				if !e.ok {
					continue
				}
				g.hits.Add(1)
				return e.val, nil, nil
			case <-ctx.Done():
				var zero V
				return zero, nil, ctx.Err()
			}
		}
		e := &entry[K, V]{key: k, ready: make(chan struct{})}
		g.entries[k] = e
		g.mu.Unlock()
		g.misses.Add(1)
		var zero V
		return zero, &Claim[K, V]{g: g, e: e}, nil
	}
}

// Do resolves k, running fn on a miss. shared reports whether the value
// came from the group rather than this caller's fn. An error from fn, or a
// panic (re-raised once the claim is released), publishes nothing.
func (g *Group[K, V]) Do(ctx context.Context, k K, fn func() (V, error)) (v V, shared bool, err error) {
	v, c, err := g.Claim(ctx, k)
	if err != nil || c == nil {
		return v, err == nil, err
	}
	defer c.Abandon()
	if v, err = fn(); err != nil {
		return v, false, err
	}
	c.Publish(v)
	return v, false, nil
}

// Publish resolves the claim with v, wakes its waiters and applies the
// bound.
func (c *Claim[K, V]) Publish(v V) {
	if c.done {
		return
	}
	c.done = true
	g, e := c.g, c.e
	e.val, e.ok = v, true
	close(e.ready)
	g.mu.Lock()
	if g.entries[e.key] == e {
		e.elem = g.lru.PushFront(e)
		for g.limit > 0 && g.lru.Len() > g.limit {
			// Waiters on an evicted entry still hold its pointer and
			// resolve.
			g.removeLocked(g.lru.Back().Value.(*entry[K, V]))
		}
	}
	g.mu.Unlock()
}

// Abandon drops the claim so the next caller computes afresh, then wakes
// the waiters to do exactly that.
func (c *Claim[K, V]) Abandon() {
	if c.done {
		return
	}
	c.done = true
	c.g.mu.Lock()
	if c.g.entries[c.e.key] == c.e {
		delete(c.g.entries, c.e.key)
	}
	c.g.mu.Unlock()
	close(c.e.ready)
}

// Forget drops k's entry, published or in flight; a claim in flight still
// resolves its own waiters but no longer fills the group.
func (g *Group[K, V]) Forget(k K) {
	g.mu.Lock()
	if e, ok := g.entries[k]; ok {
		g.removeLocked(e)
	}
	g.mu.Unlock()
}

// removeLocked unlinks e from the map and the LRU list. Called with g.mu held.
func (g *Group[K, V]) removeLocked(e *entry[K, V]) {
	delete(g.entries, e.key)
	if e.elem != nil {
		g.lru.Remove(e.elem)
		e.elem = nil
	}
}

// Len returns the number of entries, in flight ones included.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.entries)
}

// Stats are a group's lifetime counters: hits are callers served a
// published value, misses are claims handed out.
type Stats struct {
	Hits, Misses uint64
}

// Stats snapshots the counters.
func (g *Group[K, V]) Stats() Stats {
	return Stats{Hits: g.hits.Load(), Misses: g.misses.Load()}
}
