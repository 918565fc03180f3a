package btree

import (
	"fmt"
	"sort"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
)

// Incremental inserts.
//
// The bulk-loaded tree keeps its leaves physically contiguous — the
// property that makes leaf traversal sequential and that the paper's
// index-scan cost model (Eq. 11) assumes. Split-based in-place inserts
// would destroy that contiguity, so new entries go to a sorted
// in-memory delta instead (the classic read-optimised-store design):
// iterators merge the on-disk run with the delta transparently, and
// Compact rebuilds the on-disk run when the delta has grown enough.
// Queries therefore keep both correctness (all entries visible) and the
// cost profile the experiments measure (delta probes are CPU-only).

// Insert adds an entry to the in-memory delta. It keeps the delta
// sorted by (key, TID); cost is amortised by inserting in batches via
// sort at the first read after a run of inserts.
func (t *Tree) Insert(e Entry) {
	t.delta = append(t.delta, e)
	t.deltaSorted = t.deltaSorted && (len(t.delta) < 2 || less(t.delta[len(t.delta)-2], e))
	t.numKeys++
}

// DeltaLen returns the number of entries waiting in the delta.
func (t *Tree) DeltaLen() int { return len(t.delta) }

func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.TID.Less(b.TID)
}

func (t *Tree) sortDelta() {
	if t.deltaSorted {
		return
	}
	sort.Slice(t.delta, func(i, j int) bool { return less(t.delta[i], t.delta[j]) })
	t.deltaSorted = true
}

// Compact merges the delta into a freshly bulk-loaded on-disk run,
// restoring contiguous leaves. The old pages are abandoned (the
// simulated device is append-only; a real system would reclaim them).
func (t *Tree) Compact(dev *disk.Device, pool *bufferpool.Pool) error {
	t.sortDelta()
	entries := make([]Entry, 0, t.numKeys)
	// Read the existing run directly from the device (compaction is a
	// maintenance operation, like the original bulk load).
	for leaf := int64(0); leaf < t.numLeaves; leaf++ {
		page, err := dev.ReadPage(t.space, leaf)
		if err != nil {
			return err
		}
		if dev.Faulty() && !disk.VerifyChecksum(page) {
			return fmt.Errorf("%w: btree space %d page %d", disk.ErrPageCorrupt, t.space, leaf)
		}
		n := nodeCount(page)
		for i := 0; i < n; i++ {
			entries = append(entries, leafEntry(page, i))
		}
	}
	entries = append(entries, t.delta...)
	rebuilt, err := Build(dev, entries)
	if err != nil {
		return err
	}
	if pool != nil {
		pool.InvalidateSpace(t.space)
	}
	*t = *rebuilt
	return nil
}

// deltaCursor walks the sorted delta from the first entry >= lo.
type deltaCursor struct {
	entries []Entry
	pos     int
}

func (t *Tree) deltaSeek(lo int64) *deltaCursor {
	if len(t.delta) == 0 {
		return nil
	}
	t.sortDelta()
	pos := sort.Search(len(t.delta), func(i int) bool { return t.delta[i].Key >= lo })
	return &deltaCursor{entries: t.delta, pos: pos}
}

func (c *deltaCursor) peek() (Entry, bool) {
	if c == nil || c.pos >= len(c.entries) {
		return Entry{}, false
	}
	return c.entries[c.pos], true
}

func (c *deltaCursor) advance() { c.pos++ }

// countBelow advances past the entries with key < hi and returns how
// many there were.
func (c *deltaCursor) countBelow(hi int64) int64 {
	if c == nil {
		return 0
	}
	rest := c.entries[c.pos:]
	n := sort.Search(len(rest), func(i int) bool { return rest[i].Key >= hi })
	c.pos += n
	return int64(n)
}
