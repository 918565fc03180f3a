package core

import (
	"testing"
	"testing/quick"

	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

func TestResultCachePartitioning(t *testing.T) {
	// Bounds 10, 20 -> partitions (-inf,10), [10,20), [20,+inf).
	c := newResultCache([]int64{10, 20}, 2, nil, 0)
	if len(c.parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(c.parts))
	}
	cases := []struct {
		key  int64
		part int
	}{{-100, 0}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {1 << 40, 2}}
	for _, cse := range cases {
		if got := c.partFor(cse.key); got != cse.part {
			t.Errorf("partFor(%d) = %d, want %d", cse.key, got, cse.part)
		}
	}
}

func TestResultCacheInsertTake(t *testing.T) {
	c := newResultCache([]int64{100}, 3, nil, 0)
	tid := heap.TID{Page: 1, Slot: 2}
	row := tuple.IntsRow(1, 2, 3)
	c.insert(50, tid, row)
	if c.curTuples != 1 {
		t.Fatalf("size=%d", c.curTuples)
	}
	if _, ok := c.take(50, heap.TID{Page: 9, Slot: 9}); ok {
		t.Error("took a tuple that was never inserted")
	}
	got, ok := c.take(50, tid)
	if !ok || !got.Equal(row) {
		t.Fatalf("take = %v, %v", got, ok)
	}
	if c.curTuples != 0 {
		t.Errorf("after take: size=%d", c.curTuples)
	}
	if _, ok := c.take(50, tid); ok {
		t.Error("double take succeeded")
	}
}

func TestResultCacheDropBelow(t *testing.T) {
	c := newResultCache([]int64{10, 20, 30}, 1, nil, 0)
	c.insert(5, heap.TID{Page: 0, Slot: 0}, tuple.IntsRow(5))
	c.insert(15, heap.TID{Page: 0, Slot: 1}, tuple.IntsRow(15))
	c.insert(25, heap.TID{Page: 0, Slot: 2}, tuple.IntsRow(25))
	c.insert(35, heap.TID{Page: 0, Slot: 3}, tuple.IntsRow(35))
	if c.curTuples != 4 {
		t.Fatalf("size = %d", c.curTuples)
	}
	// Advancing to key 20 drops partitions with hi <= 20: (-inf,10)
	// and [10,20).
	c.dropBelow(20)
	if c.curTuples != 2 {
		t.Errorf("size after dropBelow(20) = %d, want 2", c.curTuples)
	}
	// The remaining tuples are still reachable.
	if _, ok := c.take(25, heap.TID{Page: 0, Slot: 2}); !ok {
		t.Error("tuple in live partition lost")
	}
	if _, ok := c.take(35, heap.TID{Page: 0, Slot: 3}); !ok {
		t.Error("tuple in last partition lost")
	}
	// dropBelow below every bound is a no-op.
	c.dropBelow(-1000)
}

func TestResultCacheDropBelowBoundaryKey(t *testing.T) {
	// A tuple whose key equals a partition bound belongs to the NEXT
	// partition and must survive dropBelow(bound).
	c := newResultCache([]int64{10}, 1, nil, 0)
	c.insert(10, heap.TID{Page: 0, Slot: 0}, tuple.IntsRow(10))
	c.dropBelow(10)
	if _, ok := c.take(10, heap.TID{Page: 0, Slot: 0}); !ok {
		t.Error("boundary-key tuple dropped prematurely")
	}
}

func TestResultCachePeaks(t *testing.T) {
	c := newResultCache(nil, 4, nil, 0) // single partition
	for i := int64(0); i < 10; i++ {
		c.insert(i, heap.TID{Page: 0, Slot: int32(i)}, tuple.IntsRow(i, 0, 0, 0))
	}
	for i := int64(0); i < 10; i++ {
		c.take(i, heap.TID{Page: 0, Slot: int32(i)})
	}
	if c.peakTuples != 10 {
		t.Errorf("peakTuples = %d", c.peakTuples)
	}
	if c.peakBytes != 10*c.rowBytes {
		t.Errorf("peakBytes = %d", c.peakBytes)
	}
	if c.curTuples != 0 || c.curBytes != 0 {
		t.Errorf("not drained: %d tuples %d bytes", c.curTuples, c.curBytes)
	}
}

// Property: the cache behaves like a map keyed by TID, regardless of
// partition layout and memory budget, as long as dropBelow only
// advances and tuples are parked at or above the current key (as the
// scan parks them). The test keeps each live partition's spilled flag
// as it last saw it: every flip to spilled must be one counted spill of
// that partition's bytes and one ChargeSpill, every flip back one
// counted reload, spills must go furthest partition first and never hit
// the partition an insert just used, and a take or insert must find its
// partition resident afterwards.
func TestResultCacheMapEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16, boundSeed, budgetSeed uint8) bool {
		b := int64(boundSeed % 64)
		bounds := []int64{b, b + 25, b + 50}
		dev := disk.NewDevice(disk.HDD)
		c := newResultCache(bounds, 1, dev.DefaultChannel(), int64(budgetSeed%4)*2*(8+24))
		pageSize := int64(dev.PageSize())
		ref := map[heap.TID]int64{}
		spilled := make([]bool, len(c.parts))
		var want SpillStats
		var wantPages, cur int64
		// check compares the cache's flags with the test's after an
		// operation on partition at (-1: none), and takes them over.
		check := func(at int, reloadBytes []int64) bool {
			if len(c.parts) != len(spilled) {
				return false
			}
			lowestSpill := len(spilled)
			for i, p := range c.parts {
				switch {
				case p.spilled && !spilled[i]:
					want.Spills++
					want.SpillBytes += c.bytes(i)
					wantPages += (c.bytes(i) + pageSize - 1) / pageSize
					lowestSpill = min(lowestSpill, i)
				case !p.spilled && spilled[i]:
					want.Reloads++
					want.ReloadBytes += reloadBytes[i]
				}
				spilled[i] = p.spilled
			}
			if at >= 0 && (spilled[at] || lowestSpill <= at) {
				return false
			}
			for i := lowestSpill + 1; i < len(spilled); i++ {
				if !spilled[i] && len(c.parts[i].rows) > 0 {
					return false // spilled a nearer partition first
				}
			}
			return c.spill == want && dev.Stats().PagesWritten == wantPages
		}
		sizes := func() []int64 {
			out := make([]int64, len(c.parts))
			for i := range out {
				out[i] = c.bytes(i)
			}
			return out
		}
		for _, op := range ops {
			tid := heap.TID{Page: int64(op % 16), Slot: int32(op % 8)}
			before := sizes()
			at := -1
			switch op % 5 {
			case 0, 1:
				if _, dup := ref[tid]; dup {
					continue
				}
				key := cur + int64(op>>4%96)
				c.insert(key, tid, tuple.IntsRow(key))
				ref[tid] = key
				at = c.partFor(key)
			case 2, 3:
				key, inRef := ref[tid]
				got, ok := c.take(key, tid)
				if inRef != ok {
					return false
				}
				if ok {
					if got.Int(0) != key {
						return false
					}
					delete(ref, tid)
					at = c.partFor(key)
				}
			case 4:
				cur += int64(op >> 4 % 32)
				n := len(c.parts)
				c.dropBelow(cur)
				gone := n - len(c.parts)
				if gone > 0 {
					lower := bounds[len(bounds)-len(c.parts)]
					for tid, key := range ref {
						if key < lower {
							delete(ref, tid)
						}
					}
				}
				spilled, before = spilled[gone:], before[gone:]
			}
			if !check(at, before) {
				return false
			}
		}
		return int(c.curTuples) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func newSpillFixture(budget int64) (*resultCache, *disk.Device) {
	dev := disk.NewDevice(disk.HDD)
	return newResultCache([]int64{100, 200, 300}, 4, dev.DefaultChannel(), budget), dev // 4 partitions
}

func fill(c *resultCache, key int64, n int) {
	for i := 0; i < n; i++ {
		c.insert(key, heap.TID{Page: key, Slot: int32(i)}, tuple.IntsRow(key, 0, 0, 0))
	}
}

func TestSpillDisabledByDefault(t *testing.T) {
	c, dev := newSpillFixture(0)
	fill(c, 50, 1000)
	fill(c, 350, 1000)
	if c.spill.Spills != 0 {
		t.Errorf("spilled with no budget: %+v", c.spill)
	}
	if dev.Stats().IOTime != 0 {
		t.Errorf("charged I/O with no budget")
	}
}

func TestSpillFurthestPartitionFirst(t *testing.T) {
	// Budget fits ~one partition; inserting into partition 0 while
	// partitions 2 and 3 hold data must spill the far ones, not the
	// current one.
	c, dev := newSpillFixture(0) // fill without budget first
	fill(c, 250, 100)            // partition 2
	fill(c, 350, 100)            // partition 3
	c.budget = 100 * c.rowBytes  // now tighten the budget
	fill(c, 50, 100)             // partition 0 (current)

	if c.parts[0].spilled {
		t.Error("current partition was spilled")
	}
	if c.spill.Spills == 0 {
		t.Fatal("no partition spilled despite exceeding budget")
	}
	if !c.parts[3].spilled {
		t.Error("furthest partition not spilled first")
	}
	if dev.Stats().PagesWritten == 0 {
		t.Error("spill charged no I/O")
	}
}

func TestSpillReloadOnTake(t *testing.T) {
	c, _ := newSpillFixture(0)
	fill(c, 350, 50)
	c.budget = 1 // force spill on next insert
	fill(c, 50, 1)
	if !c.parts[3].spilled {
		t.Fatal("partition 3 not spilled")
	}
	// Taking from the spilled partition reloads it transparently.
	row, ok := c.take(350, heap.TID{Page: 350, Slot: 0})
	if !ok || row.Int(0) != 350 {
		t.Fatalf("take from spilled partition: %v %v", row, ok)
	}
	if c.parts[3].spilled {
		t.Error("partition not marked resident after reload")
	}
	if c.spill.Reloads != 1 {
		t.Errorf("reloads = %d", c.spill.Reloads)
	}
}

func TestSpillDropBelowKeepsStateAligned(t *testing.T) {
	c, _ := newSpillFixture(0)
	fill(c, 50, 10)  // p0
	fill(c, 150, 10) // p1
	fill(c, 350, 10) // p3
	c.budget = 1
	fill(c, 50, 1)   // triggers spill of p3 (and possibly p1/p2)
	c.dropBelow(200) // drops p0, p1
	// p3 (now index 1) still reachable.
	if _, ok := c.take(350, heap.TID{Page: 350, Slot: 0}); !ok {
		t.Error("tuple lost across dropBelow with spilled partitions")
	}
}
