package bufferpool

import (
	"math/rand"
	"testing"

	"smoothscan/internal/disk"
)

// refKey, refFrame and refPool are the reference the frame table is
// checked against: the clock pool keyed by a map, as the pool was
// before its per-space page arrays. It tracks which pages are cached
// and the counters, not page contents.
type refKey struct {
	space disk.SpaceID
	page  int64
}

type refFrame struct {
	key       refKey
	ref, used bool
}

type refPool struct {
	frames []refFrame
	table  map[refKey]int
	hand   int
	stats  Stats
}

func newRefPool(capacity int) *refPool {
	return &refPool{frames: make([]refFrame, capacity), table: map[refKey]int{}}
}

func (r *refPool) get(k refKey) {
	if idx, ok := r.table[k]; ok {
		r.stats.Hits++
		r.frames[idx].ref = true
		return
	}
	r.stats.Misses++
	r.insert(k)
}

// getResident follows GetResident: a cached page is a hit, referenced;
// any other is left alone, uncounted. It reports whether the page was
// cached.
func (r *refPool) getResident(k refKey) bool {
	idx, ok := r.table[k]
	if ok {
		r.stats.Hits++
		r.frames[idx].ref = true
	}
	return ok
}

// getRun follows GetRun: a hit is counted and referenced before the
// uncached stretch in front of it is read and inserted.
func (r *refPool) getRun(space disk.SpaceID, start, n int64) {
	runStart := int64(-1)
	flush := func(end int64) {
		for p := runStart; runStart >= 0 && p < end; p++ {
			r.insert(refKey{space, p})
		}
		runStart = -1
	}
	for p := start; p < start+n; p++ {
		if idx, ok := r.table[refKey{space, p}]; ok {
			r.stats.Hits++
			r.frames[idx].ref = true
			flush(p)
			continue
		}
		r.stats.Misses++
		if runStart < 0 {
			runStart = p
		}
	}
	flush(start + n)
}

func (r *refPool) insert(k refKey) {
	for {
		f := &r.frames[r.hand]
		slot := r.hand
		r.hand = (r.hand + 1) % len(r.frames)
		if !f.used {
			*f = refFrame{key: k, ref: true, used: true}
			r.table[k] = slot
			return
		}
		if f.ref {
			f.ref = false
			continue
		}
		delete(r.table, f.key)
		r.stats.Evictions++
		*f = refFrame{key: k, ref: true, used: true}
		r.table[k] = slot
		return
	}
}

func (r *refPool) invalidatePage(k refKey) {
	if idx, ok := r.table[k]; ok {
		r.frames[idx] = refFrame{}
		delete(r.table, k)
	}
}

func (r *refPool) invalidateSpace(space disk.SpaceID) {
	for k, idx := range r.table {
		if k.space == space {
			r.frames[idx] = refFrame{}
			delete(r.table, k)
		}
	}
}

func (r *refPool) reset() {
	clear(r.frames)
	clear(r.table)
	r.hand = 0
	r.stats = Stats{}
}

// TestFrameTableMatchesMapModel drives the pool and the map-keyed
// reference through the same random Get, GetResident, GetRun,
// InvalidatePage, InvalidateSpace and Reset sequences over four spaces, whose pages
// run far past the page arrays' first lengths, with pools small enough
// to evict. Stats and Contains must agree after every step, and every
// page served must be the one asked for.
func TestFrameTableMatchesMapModel(t *testing.T) {
	sizes := []int64{1, 5, 40, 130}
	d := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	spaces := make([]disk.SpaceID, len(sizes))
	for s, n := range sizes {
		spaces[s] = d.CreateSpace()
		for i := int64(0); i < n; i++ {
			page := make([]byte, 64)
			page[0], page[1] = byte(s), byte(i)
			if _, err := d.AppendPage(spaces[s], page); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkPage := func(data []byte, s int, pageNo int64) {
		t.Helper()
		if data[0] != byte(s) || data[1] != byte(pageNo) {
			t.Fatalf("space %d page %d: served page %d of space %d", s, pageNo, data[1], data[0])
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(12) + 1
		p, ref := New(d, capacity), newRefPool(capacity)
		var scratch [][]byte
		for step := 0; step < 1500; step++ {
			s := rng.Intn(len(sizes))
			space, size := spaces[s], sizes[s]
			pageNo := rng.Int63n(size)
			var op string
			switch k := rng.Intn(100); {
			case k < 45:
				op = "Get"
				data, err := p.Get(space, pageNo)
				if err != nil {
					t.Fatal(err)
				}
				checkPage(data, s, pageNo)
				ref.get(refKey{space, pageNo})
			case k < 55:
				op = "GetResident"
				data := p.GetResident(space, pageNo)
				if want := ref.getResident(refKey{space, pageNo}); (data != nil) != want {
					t.Fatalf("seed %d step %d: GetResident(%d, %d) served %v, reference cached %v",
						seed, step, space, pageNo, data != nil, want)
				}
				if data != nil {
					checkPage(data, s, pageNo)
				}
			case k < 85:
				op = "GetRun"
				n := rng.Int63n(min(16, size-pageNo)) + 1
				pages, err := p.GetRun(space, pageNo, n, scratch)
				if err != nil {
					t.Fatal(err)
				}
				for i, data := range pages {
					checkPage(data, s, pageNo+int64(i))
				}
				scratch = pages
				ref.getRun(space, pageNo, n)
			case k < 93:
				op = "InvalidatePage"
				p.InvalidatePage(space, pageNo)
				ref.invalidatePage(refKey{space, pageNo})
			case k < 98:
				op = "InvalidateSpace"
				p.InvalidateSpace(space)
				ref.invalidateSpace(space)
				if p.st.table[space] != nil {
					t.Fatalf("InvalidateSpace(%d) kept its page array", space)
				}
			default:
				op = "Reset"
				p.Reset()
				ref.reset()
			}
			if got, want := p.Stats(), ref.stats; got != want {
				t.Fatalf("seed %d step %d (%s space %d page %d): stats %+v, reference %+v",
					seed, step, op, space, pageNo, got, want)
			}
			for si, sp := range spaces {
				for i := int64(0); i < sizes[si]; i++ {
					_, want := ref.table[refKey{sp, i}]
					if got := p.Contains(sp, i); got != want {
						t.Fatalf("seed %d step %d (%s space %d page %d): Contains(%d, %d) = %v, reference %v",
							seed, step, op, space, pageNo, sp, i, got, want)
					}
				}
			}
		}
	}
}

// TestContainsOutsideTable: pages and spaces the table never saw are
// not cached.
func TestContainsOutsideTable(t *testing.T) {
	d, sp := newDev(t, 4)
	p := New(d, 4)
	if _, err := p.Get(sp, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		space disk.SpaceID
		page  int64
	}{{sp, -1}, {sp, 2}, {sp, 1 << 40}, {sp + 1, 0}, {-1, 0}} {
		if p.Contains(c.space, c.page) {
			t.Errorf("Contains(%d, %d) on a page never cached", c.space, c.page)
		}
	}
}

// TestMissesAllocateNothing: with no fault policy attached, a Get miss
// reads into the pool's own one-page list and a GetRun miss into the
// scratch it is handed, so neither allocates once the page table covers
// the pages.
func TestMissesAllocateNothing(t *testing.T) {
	const pages = 16
	d, sp := newDev(t, pages)
	p := New(d, 4)
	for i := int64(0); i < pages; i++ {
		if _, err := p.Get(sp, i); err != nil {
			t.Fatal(err)
		}
	}
	// Cycling through four times the capacity makes every Get a miss.
	next := int64(0)
	before := p.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Get(sp, next%pages); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if s := p.Stats(); s.Hits != before.Hits {
		t.Fatalf("Get hit %d times; the test needs misses", s.Hits-before.Hits)
	}
	if allocs != 0 {
		t.Errorf("Get miss allocates %.1f times", allocs)
	}
	scratch := make([][]byte, 8)
	allocs = testing.AllocsPerRun(100, func() {
		p.Reset()
		if _, err := p.GetRun(sp, 4, 8, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if s := p.Stats(); s.Hits != 0 || s.Misses != 8 {
		t.Fatalf("GetRun after Reset: %+v, want 8 misses", s)
	}
	if allocs != 0 {
		t.Errorf("GetRun miss allocates %.1f times", allocs)
	}
}
