package btree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
)

// countCase is one CountBelow check: a tree of entries plus delta
// inserted after the build, an iterator sought to lo and advanced pre
// entries, and the count of the entries below hi.
type countCase struct {
	name    string
	entries []Entry
	delta   []Entry
	lo, hi  int64
	pre     int
	poolCap int
}

// countSide is one of the two identical set-ups a countCase compares.
type countSide struct {
	dev  *disk.Device
	pool *bufferpool.Pool
	it   *Iter
}

func openCountSide(t *testing.T, c countCase) countSide {
	t.Helper()
	dev := testDevice()
	tr := buildTree(t, dev, c.entries)
	for _, e := range c.delta {
		tr.Insert(e)
	}
	dev.ResetStats()
	pool := bufferpool.New(dev, c.poolCap)
	it, err := tr.SeekGE(pool, c.lo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.pre; i++ {
		if _, _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return countSide{dev: dev, pool: pool, it: it}
}

// checkCountBelow runs a Next loop that stops at the first key >= hi on
// one set-up and CountBelow(hi) on the other, and requires equal
// counts, equal device and pool counters, the loop's stopping entry as
// the next Next, and equal streams after it.
func checkCountBelow(t *testing.T, c countCase) {
	t.Helper()
	walk, count := openCountSide(t, c), openCountSide(t, c)

	var want int64
	var stop Entry
	var stopOK bool
	for {
		e, ok, err := walk.it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.Key >= c.hi {
			stop, stopOK = e, ok
			break
		}
		want++
	}
	got, err := count.it.CountBelow(c.hi)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s: CountBelow(%d) = %d, Next loop counted %d", c.name, c.hi, got, want)
	}
	if w, g := walk.dev.Stats(), count.dev.Stats(); w != g {
		t.Fatalf("%s: device stats\n Next loop  %+v\n CountBelow %+v", c.name, w, g)
	}
	if w, g := walk.pool.Stats(), count.pool.Stats(); w != g {
		t.Fatalf("%s: pool stats: Next loop %+v, CountBelow %+v", c.name, w, g)
	}
	e, ok, err := count.it.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ok != stopOK || e != stop {
		t.Fatalf("%s: Next after CountBelow = %v %v, the loop stopped at %v %v", c.name, e, ok, stop, stopOK)
	}
	if w, g := walk.dev.Stats(), count.dev.Stats(); w != g {
		t.Fatalf("%s: Next after CountBelow read more: %+v, loop %+v", c.name, g, w)
	}
	if w, g := collect(t, walk.it, math.MaxInt64), collect(t, count.it, math.MaxInt64); !slices.Equal(w, g) {
		t.Fatalf("%s: streams differ after the stop: %v vs %v", c.name, w, g)
	}
}

// spacedEntries returns n entries with keys 0, 10, 20, …, so delta keys
// can fall between two leaves' keys.
func spacedEntries(n int) []Entry {
	entries := seqEntries(n)
	for i := range entries {
		entries[i].Key *= 10
	}
	return entries
}

func deltaKeys(keys ...int64) []Entry {
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{Key: k, TID: heap.TID{Page: 1000 + int64(i), Slot: 1}}
	}
	return out
}

// TestCountBelowMatchesNext pins CountBelow to the Next loop it
// replaces. The test device's leaves hold 12 entries, so seqEntries(100)
// spans leaves [0,12), [12,24), … and spacedEntries puts keys 110 and
// 120 on either side of the first leaf boundary.
func TestCountBelowMatchesNext(t *testing.T) {
	var dups []Entry
	for i := 0; i < 60; i++ {
		key := int64(i)
		if i >= 10 && i < 40 {
			key = 10 // 30 duplicates spanning three leaves
		}
		dups = append(dups, Entry{Key: key, TID: heap.TID{Page: int64(i), Slot: 0}})
	}
	cases := []countCase{
		{name: "mid-leaf", entries: seqEntries(100), lo: 5, hi: 30},
		{name: "last entry of a leaf", entries: seqEntries(100), lo: 5, hi: 24},
		{name: "first entry of a leaf", entries: seqEntries(100), lo: 5, hi: 25},
		{name: "past the last leaf", entries: seqEntries(100), lo: 5, hi: 1000},
		{name: "to the last key", entries: seqEntries(100), lo: 0, hi: 99},
		{name: "empty range", entries: seqEntries(100), lo: 50, hi: 50},
		{name: "inverted range", entries: seqEntries(100), lo: 50, hi: 20},
		{name: "beyond every key", entries: seqEntries(100), lo: 200, hi: 300},
		{name: "empty tree", entries: nil, lo: 0, hi: 10},
		{name: "exhausted landing leaf", entries: seqEntries(100), lo: 12, hi: 40},
		{name: "exhausted landing leaf, empty range", entries: seqEntries(100), lo: 12, hi: 12},
		{name: "duplicates across leaves", entries: dups, lo: 10, hi: 11},
		{name: "duplicates, stop inside the run", entries: dups, lo: 5, hi: 10},
		{name: "delta below, inside and beyond", entries: spacedEntries(100),
			delta: deltaKeys(3, 55, 55, 260, 995, 2000), lo: 40, hi: 300},
		{name: "delta between two leaves", entries: spacedEntries(100),
			delta: deltaKeys(115, 115), lo: 0, hi: 120},
		{name: "delta only past the run", entries: spacedEntries(30),
			delta: deltaKeys(500, 600, 700), lo: 250, hi: 650},
		{name: "delta on the stop key", entries: spacedEntries(100),
			delta: deltaKeys(120), lo: 0, hi: 120},
		{name: "delta only", entries: nil, delta: deltaKeys(5, 6, 7, 8), lo: 0, hi: 8},
		// lo 5 lands the run on key 10, and delta key 5 comes first,
		// so one Next leaves run entry 10 pending.
		{name: "pending run entry below hi", entries: spacedEntries(100),
			delta: deltaKeys(5, 7), lo: 5, hi: 500, pre: 1},
		{name: "pending run entry at hi", entries: spacedEntries(100),
			delta: deltaKeys(5, 7), lo: 5, hi: 10, pre: 1},
		{name: "pending run entry beyond hi", entries: spacedEntries(100),
			delta: deltaKeys(5, 7, 8), lo: 5, hi: 8, pre: 1},
		{name: "after a partial walk", entries: seqEntries(100), lo: 5, hi: 70, pre: 17},
		{name: "walk already past hi", entries: seqEntries(100), lo: 5, hi: 20, pre: 30},
	}
	for _, c := range cases {
		for _, capacity := range []int{2, 64} {
			c.poolCap = capacity
			checkCountBelow(t, c)
		}
	}
}

// TestCountBelowTwice: a second CountBelow at the same bound counts
// nothing and reads nothing.
func TestCountBelowTwice(t *testing.T) {
	s := openCountSide(t, countCase{entries: seqEntries(100), lo: 5, poolCap: 4})
	if n, err := s.it.CountBelow(40); err != nil || n != 35 {
		t.Fatalf("first CountBelow = %d, %v; want 35", n, err)
	}
	before := s.dev.Stats()
	if n, err := s.it.CountBelow(40); err != nil || n != 0 {
		t.Fatalf("second CountBelow = %d, %v; want 0", n, err)
	}
	if s.dev.Stats() != before {
		t.Fatal("second CountBelow read the device")
	}
}

// FuzzCountBelow compares CountBelow with the Next loop over random
// trees, deltas, bounds and pool sizes.
func FuzzCountBelow(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(50), uint8(5), int16(10), int16(60), uint8(0), uint8(3))
	f.Add(int64(2), uint16(300), uint16(20), uint8(40), int16(0), int16(25), uint8(2), uint8(1))
	f.Add(int64(3), uint16(0), uint16(10), uint8(8), int16(-5), int16(5), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, domain uint16, ndelta uint8, lo, hi int16, pre, poolCap uint8) {
		n %= 400
		dom := int64(domain%500) + 1
		rng := rand.New(rand.NewSource(seed))
		entry := func(i int) Entry {
			return Entry{Key: rng.Int63n(dom), TID: heap.TID{Page: int64(i), Slot: int32(rng.Intn(4))}}
		}
		c := countCase{name: "fuzz", lo: int64(lo), hi: int64(hi), pre: int(pre % 32), poolCap: int(poolCap%8) + 1}
		for i := 0; i < int(n); i++ {
			c.entries = append(c.entries, entry(i))
		}
		for i := 0; i < int(ndelta); i++ {
			c.delta = append(c.delta, entry(int(n)+i))
		}
		checkCountBelow(t, c)
	})
}
