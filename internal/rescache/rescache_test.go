package rescache

import (
	"fmt"
	"testing"
	"time"
)

// fixedEpochs returns an epochOf that always reports the given value.
func fixedEpochs(v uint64) func(string) uint64 {
	return func(string) uint64 { return v }
}

func flatOf(n int) []uint64 {
	f := make([]uint64, n)
	for i := range f {
		f[i] = uint64(i)
	}
	return f
}

func TestDisabledIsNil(t *testing.T) {
	if New(0, 0) != nil {
		t.Fatal("budget 0 must return a nil cache")
	}
	if New(-1, 0) != nil {
		t.Fatal("negative budget must return a nil cache")
	}
	// A nil cache is inert on every method.
	var c *Cache
	if _, ok := c.Lookup("k", fixedEpochs(0)); ok {
		t.Fatal("nil cache hit")
	}
	if c.Store("k", flatOf(2), 1, 2, nil) {
		t.Fatal("nil cache admitted a store")
	}
	c.Purge()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestStoreLookupRoundTrip(t *testing.T) {
	c := New(1<<20, 0)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	epochs := map[string]uint64{"t": 3}
	if !c.Store("k", flatOf(6), 3, 2, epochs) {
		t.Fatal("store refused")
	}
	clock = clock.Add(30 * time.Second)
	v, ok := c.Lookup("k", func(table string) uint64 {
		if table != "t" {
			t.Fatalf("unexpected table %q", table)
		}
		return 3
	})
	if !ok {
		t.Fatal("miss after store")
	}
	if v.Rows != 3 || v.Width != 2 || len(v.Flat) != 6 || v.Age != 30*time.Second {
		t.Fatalf("view = %+v", v)
	}
	if _, ok := c.Lookup("k", fixedEpochs(3)); !ok {
		t.Fatal("second lookup missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(1<<20, 0)
	c.Store("k", flatOf(2), 1, 2, map[string]uint64{"t": 1})
	// The table moved: the entry must be dropped, not served.
	if _, ok := c.Lookup("k", fixedEpochs(2)); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.InvalidatedStale != 1 || st.Misses != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Even reverting to the old epoch cannot resurrect it.
	if _, ok := c.Lookup("k", fixedEpochs(1)); ok {
		t.Fatal("dropped entry served")
	}
}

func TestPerEntryCap(t *testing.T) {
	c := New(4096, 0) // entryCap = 1024 bytes
	if c.EntryCap() != 1024 {
		t.Fatalf("EntryCap = %d", c.EntryCap())
	}
	// 200 values * 8 B + 256 B overhead = 1856 > 1024.
	if c.Store("big", flatOf(200), 100, 2, nil) {
		t.Fatal("oversized entry admitted")
	}
	if st := c.Stats(); st.StoreSkips != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionByRecency(t *testing.T) {
	// Budget fits four entries of (32*8 + 256) = 512 bytes exactly (the
	// per-entry cap is budget/4 = 512, which 512-byte entries just
	// meet); the fifth store must evict the least recently *referenced*
	// entry.
	c := New(2048, 0)
	for i := 0; i < 4; i++ {
		if !c.Store(fmt.Sprintf("k%d", i), flatOf(32), 16, 2, nil) {
			t.Fatalf("store %d refused", i)
		}
	}
	// Touch k0 so k1 becomes the coldest.
	if _, ok := c.Lookup("k0", fixedEpochs(0)); !ok {
		t.Fatal("k0 missing")
	}
	if !c.Store("k4", flatOf(32), 16, 2, nil) {
		t.Fatal("store k4 refused")
	}
	if _, ok := c.Lookup("k1", fixedEpochs(0)); ok {
		t.Fatal("k1 survived eviction; recency order not honoured")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Lookup(k, fixedEpochs(0)); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	st := c.Stats()
	if st.Evicted != 1 || st.Entries != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.Budget)
	}
}

func TestStoreReplacesAndPurge(t *testing.T) {
	c := New(1<<20, 0)
	c.Store("k", flatOf(2), 1, 2, nil)
	c.Store("k", flatOf(4), 2, 2, nil)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("replace left %d entries", st.Entries)
	}
	v, ok := c.Lookup("k", fixedEpochs(0))
	if !ok || v.Rows != 2 {
		t.Fatalf("replaced entry: ok=%v rows=%d", ok, v.Rows)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("purge left %+v", st)
	}
	if _, ok := c.Lookup("k", fixedEpochs(0)); ok {
		t.Fatal("purged entry served")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1<<20, 0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if _, ok := c.Lookup(key, fixedEpochs(0)); !ok {
					c.Store(key, flatOf(8), 4, 2, map[string]uint64{"t": 0})
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > 8 {
		t.Fatalf("entries = %d", st.Entries)
	}
}
