package smoothscan

import "smoothscan/internal/rescache"

// Coordinator-level result caching: the sharded engine carries its own
// rescache tier above scatter-gather, so a repeated sharded query is
// served from the coordinator's memory without touching any shard —
// no gather, no per-shard cursors, no device or network traffic. The
// per-shard slices still flow through each shard DB's own tier (the
// same Options configure both), so a coordinator miss can still be
// assembled from per-shard hits.
//
// Epochs at this level are the sum of the shard epochs for each table:
// every Insert routes to exactly one shard and bumps that shard's
// table epoch under its lock, so the sum is monotonic and moves on
// every write regardless of which shard took it. A remote topology's
// planning mirrors hold no rows and the coordinator refuses mutations,
// so its epochs are static — consistent with the open-time catalog
// snapshot the coordinator already treats as the data's state.

// initResultCache installs the coordinator tier; a helper so the open
// paths (OpenSharded, OpenShardedRemote) need no rescache import.
func (s *ShardedDB) initResultCache(opts Options) {
	s.resCache = rescache.New(opts.ResultCacheBytes, opts.ResultCacheTTL)
}

// ResultCacheStats snapshots the coordinator-level result-cache tier's
// counters (zero when the tier is disabled). Per-shard tiers are
// reachable via Shard(i).ResultCacheStats().
func (s *ShardedDB) ResultCacheStats() ResultCacheStats { return s.resCache.Stats() }

// epochOf sums the named table's write epoch across shards — the
// coordinator tier's invalidation clock. Each shard's epoch is read
// under its own lock; the sum is monotonic because shard epochs only
// ever increase.
func (s *ShardedDB) epochOf(name string) uint64 {
	var sum uint64
	for _, db := range s.shards {
		sum += db.epochOf(name)
	}
	return sum
}

// cacheable reports whether this sharded execution participates in the
// coordinator tier. Beyond the local rules (tier enabled, key derived,
// no empty short-circuit), any shard carrying a fault policy bypasses
// — degraded shard runs may skip corrupted pages, and a partial result
// must never be pinned. A remote broadcast join also bypasses: its
// replicated side drains through cursors whose degradation state the
// coordinator cannot observe.
func (se *shardExec) cacheable() bool {
	s := se.s
	if s.resCache == nil || se.cq0.resKey == "" || se.emptyWhy != "" {
		return false
	}
	for _, db := range s.shards {
		if db.dev.FaultPolicy() != nil {
			return false
		}
	}
	return !(s.remote && se.strategy == strategyBroadcast)
}

// store admits a drained sharded result unless a shard was unavailable
// or degraded (a gather that lost or degraded a shard delivered a
// best-effort result, not the query's answer). The coordinator epochs
// are re-checked inside: a write that routed to any shard during the
// gather moves the sum and the entry would be born stale.
func (se *shardExec) store(a *resAccum) {
	for _, ad := range se.adapters {
		if ad.unavailable {
			return
		}
		if ad.cur == nil {
			continue
		}
		if st, ok := ad.cur.execStats(); ok && len(st.Degraded) > 0 {
			return
		}
	}
	storeResult(se.s.resCache, a, se.s.epochOf)
}
