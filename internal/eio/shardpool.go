package eio

import "fmt"

// ShardedPool is a lock-striped LRU buffer pool: capacity M pages split
// over S independent shards, each a Pool with its own mutex, LRU list and
// counters, all write-backs landing on one shared backing store. Page ids
// are routed to shards by id mod S, so concurrent accesses to different
// pages almost never contend on a lock — the single-mutex bottleneck of
// Pool under multi-core read traffic is gone, at the cost of LRU eviction
// being per-shard (approximate global LRU) rather than exact.
//
// Accounting contract (mirrors Pool, aggregated across shards):
//
//   - Stats/ResetStats report the shared backing store's counters — true
//     block transfers after caching, exactly as Pool does.
//   - PoolStats, Dirty and Resident sum the per-shard values. Each shard's
//     contribution is read under that shard's lock, so every counter is
//     exact; the sum itself is not a single atomic snapshot across shards
//     (a concurrent access can move a page between the reads of two
//     shards), which is the documented contract for these accessors on
//     Pool as well once it is shared between goroutines.
//   - Cap returns the total capacity; NewShardedPool distributes it as
//     evenly as possible (every shard gets at least one frame, so the
//     effective total is max(capacity, shards)).
type ShardedPool struct {
	backing Store
	shards  []*Pool
}

var _ Store = (*ShardedPool)(nil)

// DefaultPoolShards is the shard count used when NewShardedPool is given a
// non-positive one.
const DefaultPoolShards = 16

// NewShardedPool wraps backing with capacity pages of buffer split over the
// given number of shards (0 means DefaultPoolShards). capacity must be at
// least 1; shards receive ceil-divided equal slices of it.
func NewShardedPool(backing Store, capacity, shards int) *ShardedPool {
	if capacity < 1 {
		panic("eio: pool capacity must be at least 1")
	}
	if shards <= 0 {
		shards = DefaultPoolShards
	}
	per := (capacity + shards - 1) / shards
	sp := &ShardedPool{backing: backing, shards: make([]*Pool, shards)}
	for i := range sp.shards {
		sp.shards[i] = NewPool(backing, per)
	}
	return sp
}

func (sp *ShardedPool) shard(id PageID) *Pool {
	return sp.shards[int(id%PageID(len(sp.shards)))]
}

// Shards returns the number of shards.
func (sp *ShardedPool) Shards() int { return len(sp.shards) }

// PageSize implements Store.
func (sp *ShardedPool) PageSize() int { return sp.backing.PageSize() }

// Alloc implements Store. As with Pool, the new page enters its shard
// dirty, so create-then-write costs one backing write at eviction time.
func (sp *ShardedPool) Alloc() (PageID, error) {
	id, err := sp.backing.Alloc()
	if err != nil {
		return NilPage, err
	}
	if err := sp.shard(id).adopt(id); err != nil {
		_ = sp.backing.Free(id)
		return NilPage, err
	}
	return id, nil
}

// Free implements Store, dropping any pooled copy without write-back.
func (sp *ShardedPool) Free(id PageID) error { return sp.shard(id).Free(id) }

// Read implements Store.
func (sp *ShardedPool) Read(id PageID, buf []byte) error { return sp.shard(id).Read(id, buf) }

// Write implements Store (write-back, like Pool).
func (sp *ShardedPool) Write(id PageID, buf []byte) error { return sp.shard(id).Write(id, buf) }

// Flush writes every dirty pooled page in every shard to the backing
// store, in ascending page id across shards (see Pool.Flush). It holds
// every shard's lock for the duration, taken in shard order.
func (sp *ShardedPool) Flush() error {
	for _, p := range sp.shards {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return sp.flushLocked()
}

// flushLocked is Flush for a caller holding every shard's lock.
func (sp *ShardedPool) flushLocked() error {
	var dirty []dirtyFrame
	for _, p := range sp.shards {
		dirty = p.appendDirtyLocked(dirty)
	}
	return flushFrames(dirty)
}

// Stats implements Store, reporting the shared backing store's counters —
// the true block-transfer cost after caching (see Pool.Stats).
func (sp *ShardedPool) Stats() Stats { return sp.backing.Stats() }

// ResetStats implements Store: backing counters and every shard's
// PoolStats are cleared; pooled contents and dirty flags are untouched.
func (sp *ShardedPool) ResetStats() {
	for _, p := range sp.shards {
		p.mu.Lock()
		p.pstats = PoolStats{}
		p.mu.Unlock()
	}
	sp.backing.ResetStats()
}

// PoolStats returns the cache-event counters summed over all shards. Each
// shard is read under its own lock, so no events are lost; the cross-shard
// sum is not one atomic snapshot (see the type comment).
func (sp *ShardedPool) PoolStats() PoolStats {
	var total PoolStats
	for _, p := range sp.shards {
		ps := p.PoolStats()
		total.Hits += ps.Hits
		total.Misses += ps.Misses
		total.Evictions += ps.Evictions
		total.Writeback += ps.Writeback
	}
	return total
}

// ShardPoolStats returns each shard's counters individually, in shard
// order — the per-stripe view for load-balance diagnostics.
func (sp *ShardedPool) ShardPoolStats() []PoolStats {
	out := make([]PoolStats, len(sp.shards))
	for i, p := range sp.shards {
		out[i] = p.PoolStats()
	}
	return out
}

// Dirty returns the number of pooled pages (across shards) not yet written
// back.
func (sp *ShardedPool) Dirty() int {
	n := 0
	for _, p := range sp.shards {
		n += p.Dirty()
	}
	return n
}

// Cap returns the total pool capacity in pages (summed over shards).
func (sp *ShardedPool) Cap() int {
	n := 0
	for _, p := range sp.shards {
		n += p.Cap()
	}
	return n
}

// Resident returns the number of pages currently pooled across shards.
func (sp *ShardedPool) Resident() int {
	n := 0
	for _, p := range sp.shards {
		n += p.Resident()
	}
	return n
}

// Pages implements Store.
func (sp *ShardedPool) Pages() int { return sp.backing.Pages() }

// LivePageIDs implements PageLister when the backing store does.
func (sp *ShardedPool) LivePageIDs() ([]PageID, error) {
	pl, ok := sp.backing.(PageLister)
	if !ok {
		return nil, fmt.Errorf("eio: shardpool: backing store cannot enumerate pages")
	}
	return pl.LivePageIDs()
}

// Close flushes every shard and closes the backing store once.
func (sp *ShardedPool) Close() error {
	for _, p := range sp.shards {
		p.mu.Lock()
	}
	var err error
	if !sp.shards[0].closed { // shards close together
		err = sp.flushLocked()
	}
	for _, p := range sp.shards {
		p.closed = true
		p.mu.Unlock()
	}
	if cerr := sp.backing.Close(); err == nil {
		err = cerr
	}
	return err
}
