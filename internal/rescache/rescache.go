// Package rescache is the engine's semantic query-result cache: it
// stores fully materialized result sets keyed on the canonical plan
// shape plus the execution's constant values, so a repeated query —
// ad hoc or prepared, local, sharded or remote — is served from memory
// with zero device I/O.
//
// This tier is distinct from the scan-internal Result Cache of
// internal/core (the paper's Section IV-A structure that holds
// not-yet-deliverable tuples *inside one ordered Smooth Scan*, bounded
// by ScanOptions.ResultCacheBudget). That cache lives and dies with a
// single operator; this package caches *across* executions at the
// query boundary and is bounded by Options.ResultCacheBytes.
//
// Correctness is write-driven: every entry captures the epoch counter
// of each table it read at creation time, and a lookup revalidates
// those epochs against the caller's current view. A write (DB.Insert)
// bumps the table's epoch, so any entry that read the pre-write state
// can never serve again — it is dropped on its next lookup, unless
// budget pressure evicts it first. There is no invalidation broadcast
// to miss.
//
// Eviction is least-recently-referenced by list order: a hit moves its
// entry to the front, and when a store pushes the cache over its byte
// budget the entries at the back are evicted until it fits. The byte
// budget is the tier's only setting; entries have no time-to-live,
// because the epochs already keep every served result correct.
package rescache

import (
	"sync"
	"time"
)

// defaultEntryDivisor caps one entry at budget/defaultEntryDivisor
// bytes: a single giant result must not be able to evict the whole
// working set on its way in.
const defaultEntryDivisor = 4

// Stats is a point-in-time snapshot of a Cache's accounting.
type Stats struct {
	// Hits and Misses count Lookup outcomes. A lookup that finds an
	// entry whose epochs no longer match counts as a miss (and an
	// InvalidatedStale).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Stores counts entries admitted; StoreSkips counts results offered
	// but refused (over the per-entry cap).
	Stores     int64 `json:"stores"`
	StoreSkips int64 `json:"store_skips"`
	// InvalidatedStale counts entries dropped because a referenced
	// table's epoch moved past the entry's snapshot — the write-driven
	// invalidation churn.
	InvalidatedStale int64 `json:"invalidated_stale"`
	// Evicted counts entries pushed out by byte-budget pressure, least
	// recently referenced first.
	Evicted int64 `json:"evicted"`
	// Entries and Bytes are the current population; Budget is the
	// configured byte bound.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
}

// View is the caller-visible face of a cache hit: the materialized
// rows (views into the entry — read-only, shared across hits) and the
// entry's metadata at lookup time.
type View struct {
	// Flat is the row data, Rows*Width values back to back.
	Flat []uint64
	// Rows and Width are the result dimensions.
	Rows, Width int
	// Bytes is the entry's accounted size.
	Bytes int64
	// Age is the time since the entry was created (stored).
	Age time.Duration
}

// entry is one cached result set with its invalidation metadata.
// Entries form a doubly linked list in recency order (front = most
// recently referenced).
type entry struct {
	key    string
	flat   []uint64
	rows   int
	width  int
	bytes  int64
	epochs map[string]uint64 // table -> epoch captured at creation

	created time.Time

	prev, next *entry
}

// Cache is a mutex-guarded semantic result cache bounded by a byte
// budget. It is safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	// entryCap is the per-entry admission bound (budget/defaultEntryDivisor).
	entryCap int64
	now      func() time.Time // injectable for deterministic Age tests

	entries map[string]*entry
	// head/tail of the recency list: head = most recent.
	head, tail *entry
	bytes      int64

	stats Stats
}

// New creates a cache bounded to budget bytes. A non-positive budget
// returns nil — callers treat a nil *Cache as "tier disabled". ttl is
// ignored, since entries do not expire; the parameter remains because
// the bench module calls New(budget, 0).
func New(budget int64, ttl time.Duration) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{
		budget:   budget,
		entryCap: budget / defaultEntryDivisor,
		now:      time.Now,
		entries:  make(map[string]*entry),
	}
}

// EntryCap returns the per-entry admission bound in bytes: results
// accumulating past it stop accumulating early (the producing query
// will not be cached).
func (c *Cache) EntryCap() int64 { return c.entryCap }

// unlink removes e from the recency list.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront inserts e at the most-recently-referenced end.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// remove drops e from the cache entirely.
func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// stale reports whether any table e read has moved past the entry's
// epoch snapshot.
func stale(e *entry, epochOf func(string) uint64) bool {
	for table, ep := range e.epochs {
		if epochOf(table) != ep {
			return true
		}
	}
	return false
}

// Lookup returns the entry under key after revalidating it: every
// table epoch captured at creation must still match epochOf's current
// view. A failed revalidation drops the entry and reports a miss — a
// stale entry can never serve. A hit moves the entry to the front of
// the recency list.
func (c *Cache) Lookup(key string, epochOf func(string) uint64) (View, bool) {
	if c == nil {
		return View{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return View{}, false
	}
	if stale(e, epochOf) {
		c.remove(e)
		c.stats.InvalidatedStale++
		c.stats.Misses++
		return View{}, false
	}
	c.unlink(e)
	c.pushFront(e)
	c.stats.Hits++
	return View{
		Flat:  e.flat,
		Rows:  e.rows,
		Width: e.width,
		Bytes: e.bytes,
		Age:   c.now().Sub(e.created),
	}, true
}

// Store admits a materialized result under key, recording the table
// epochs its execution captured. The accounted size covers the row
// data plus a fixed per-entry overhead; a result over the per-entry
// cap is refused (StoreSkips). Admission evicts least-recently-
// referenced entries until the budget holds. Storing over an existing
// key replaces it. It reports whether the result was admitted.
func (c *Cache) Store(key string, flat []uint64, rows, width int, epochs map[string]uint64) bool {
	if c == nil {
		return false
	}
	bytes := int64(len(flat))*8 + 256 // data + entry/bookkeeping overhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.entryCap {
		c.stats.StoreSkips++
		return false
	}
	if old, ok := c.entries[key]; ok {
		c.remove(old)
	}
	e := &entry{
		key:     key,
		flat:    flat,
		rows:    rows,
		width:   width,
		bytes:   bytes,
		epochs:  epochs,
		created: c.now(),
	}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += bytes
	for c.bytes > c.budget && c.tail != nil {
		victim := c.tail
		if victim == e {
			break // never evict the entry being admitted
		}
		c.remove(victim)
		c.stats.Evicted++
	}
	c.stats.Stores++
	return true
}

// Purge empties the cache, keeping the counters. DB.ColdCache calls it
// so cold-state measurements cannot be served warm results.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
	c.head, c.tail = nil, nil
	c.bytes = 0
}

// Stats snapshots the counters and the current population.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Bytes = c.bytes
	st.Budget = c.budget
	return st
}
