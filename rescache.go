package smoothscan

import (
	"smoothscan/internal/exec"
	"smoothscan/internal/rescache"
	"smoothscan/internal/tuple"
)

// Result-cache tier glue: how the semantic query-result cache
// (internal/rescache) plugs into the execute path.
//
// Lookup happens in DB.run, under the same db.mu read lock the
// compile/bind phases hold, so the epoch revalidation sees a view
// consistent with the bind-time capture: any Insert either completed
// before the lock (its epoch bump fails the revalidation) or waits
// until after the serve. A hit builds a Rows over cachedOp — a pure
// in-memory operator — so the execution performs zero device I/O.
// The sharded coordinator runs the same lookup/tee/store above
// scatter-gather with its own tier and epoch reader (see
// "Coordinator-level result caching" in sharded.go).
//
// The store path is a passive tee: a cacheable miss gets a resAccum
// that copies every delivered batch; Close admits the accumulated
// result only when the stream drained completely, error-free and
// undegraded, and only after re-checking the captured epochs (a write
// that interleaved with the scan — open-scan interference — makes the
// re-check fail and the store is skipped).
//
// Bypass rules (no lookup, no store): tier disabled, plans
// short-circuited to empty, executions with a fault policy attached,
// and fault-degraded runs. ColdCache purges the tier wholesale so cold
// measurements stay cold.

// resAccum accumulates one execution's result stream for a
// store-on-Close, bounded by the cache's per-entry byte cap.
type resAccum struct {
	key    string
	epochs map[string]uint64
	width  int
	flat   []uint64
	rows   int
	// overflow marks a result past the per-entry cap: accumulation
	// stops and Close will not store.
	overflow bool
	capVals  int // flat length bound derived from the entry cap
}

// newResAccum sizes an accumulator for the compiled query's output.
func newResAccum(key string, epochs map[string]uint64, entryCap int64, width int) *resAccum {
	capVals := int(entryCap / 8)
	return &resAccum{key: key, epochs: epochs, width: width, capVals: capVals}
}

// addBatch copies the first n rows of b into the accumulator.
func (a *resAccum) addBatch(b *tuple.Batch, n int) {
	if a.overflow {
		return
	}
	if len(a.flat)+n*a.width > a.capVals {
		a.overflow = true
		a.flat = nil
		return
	}
	for i := 0; i < n; i++ {
		a.flat = append(a.flat, b.Row(i)...)
	}
	a.rows += n
}

// storeResult admits a drained execution's accumulated result into the
// cache — unless the result overflowed the entry cap, or a write moved
// any referenced table's epoch (as epochOf reads it now) since bind
// time: the entry would be born stale.
func storeResult(cache *rescache.Cache, a *resAccum, epochOf func(table string) uint64) {
	if a.overflow || cache == nil {
		return
	}
	for name, ep := range a.epochs {
		if epochOf(name) != ep {
			return
		}
	}
	cache.Store(a.key, a.flat, a.rows, a.width, a.epochs)
}

// cachedOp is the leaf operator serving a materialized result set: a
// read-only view over the cache entry's flat row data. It touches no
// device and charges no simulated cost — the entire point of the tier.
type cachedOp struct {
	schema *tuple.Schema
	flat   []uint64
	width  int
	rows   int
	pos    int
	open   bool
}

func newCachedOp(schema *tuple.Schema, v rescache.View) *cachedOp {
	return &cachedOp{schema: schema, flat: v.Flat, width: v.Width, rows: v.Rows}
}

func (c *cachedOp) Schema() *tuple.Schema { return c.schema }
func (c *cachedOp) Open() error           { c.pos = 0; c.open = true; return nil }
func (c *cachedOp) Close() error          { c.open = false; return nil }

func (c *cachedOp) NextBatch(out *tuple.Batch) (int, error) {
	if !c.open {
		return 0, exec.ErrClosed
	}
	out.Reset()
	dst := out.AppendRowsRaw(c.rows - c.pos)
	n := out.Len()
	copy(dst, c.flat[c.pos*c.width:(c.pos+n)*c.width])
	c.pos += n
	return n, nil
}

// cacheable reports whether this execution participates in the result
// cache at all, and is the single place the bypass rules live.
func (db *DB) cacheable(cq *compiledQuery) bool {
	return db.resCache != nil && cq.resKey != "" && db.dev.FaultPolicy() == nil
}

// serveCached turns a not-yet-started Rows into the replay of a
// result-cache hit: its operator becomes a cachedOp under a single
// "result-cache" counter, whatever tree the execution would have run.
func (r *Rows) serveCached(v rescache.View) *Rows {
	c := &opCounter{name: "result-cache"}
	r.op = &countedOp{inner: newCachedOp(r.schema, v), c: c}
	_ = r.op.Open() // cachedOp.Open cannot fail
	r.counters = []*opCounter{c}
	r.cacheHit, r.cacheBytes, r.cacheAge = true, v.Bytes, v.Age
	return r
}
