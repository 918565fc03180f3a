package plan

import (
	"math"
	"testing"
)

// TestFoldRange pins the bind-time fold against the eager literal
// semantics, including the MaxInt64 edges the facade constructors
// handle specially.
func TestFoldRange(t *testing.T) {
	max := int64(math.MaxInt64)
	min := int64(math.MinInt64)
	cases := []struct {
		name   string
		kind   PredKind
		a, b   int64
		lo, hi int64
	}{
		{"between", KindBetween, 3, 9, 3, 9},
		{"eq", KindEq, 5, 0, 5, 6},
		{"eq-max", KindEq, max, 0, max, max}, // unrepresentable: empty
		{"lt", KindLt, 7, 0, min, 7},
		{"le", KindLe, 7, 0, min, 8},
		{"le-max", KindLe, max, 0, min, max},
		{"gt", KindGt, 7, 0, 8, max},
		{"gt-max", KindGt, max, 0, max, max}, // matches nothing
		{"ge", KindGe, 7, 0, 7, max},
	}
	for _, c := range cases {
		lo, hi := FoldRange(c.kind, c.a, c.b)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: FoldRange = [%d,%d), want [%d,%d)", c.name, lo, hi, c.lo, c.hi)
		}
	}
	if n := KindBetween.NumArgs(); n != 2 {
		t.Errorf("between takes %d args", n)
	}
	if n := KindEq.NumArgs(); n != 1 {
		t.Errorf("eq takes %d args", n)
	}
}

// TestCacheLRU covers hit/miss/eviction accounting and recency.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now LRU; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("evicted entry still present")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Errorf("recency-refreshed entry evicted: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Refreshing an existing key must not evict.
	c.Put("a", 10)
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Errorf("Put refresh lost: %v", v)
	}
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("entries after refresh = %d", got)
	}
}
