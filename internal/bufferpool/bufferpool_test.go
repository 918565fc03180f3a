package bufferpool

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"smoothscan/internal/disk"
)

func newDev(t *testing.T, numPages int) (*disk.Device, disk.SpaceID) {
	t.Helper()
	d := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	sp := d.CreateSpace()
	for i := 0; i < numPages; i++ {
		page := make([]byte, 64)
		page[0] = byte(i)
		if _, err := d.AppendPage(sp, page); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	return d, sp
}

func TestGetCachesPages(t *testing.T) {
	d, sp := newDev(t, 4)
	p := New(d, 4)
	for i := 0; i < 2; i++ {
		data, err := p.Get(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 1 {
			t.Fatalf("wrong page content %d", data[0])
		}
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
	if ds := d.Stats(); ds.PagesRead != 1 {
		t.Errorf("device read %d pages, want 1", ds.PagesRead)
	}
	if !p.Contains(sp, 1) || p.Contains(sp, 0) {
		t.Error("Contains wrong")
	}
}

func TestClockEviction(t *testing.T) {
	d, sp := newDev(t, 8)
	p := New(d, 2)
	mustGet := func(page int64) {
		t.Helper()
		if _, err := p.Get(sp, page); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(0)
	mustGet(1)
	mustGet(2) // evicts one of {0,1}
	s := p.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if p.Contains(sp, 0) && p.Contains(sp, 1) {
		t.Error("no page was actually evicted")
	}
	if !p.Contains(sp, 2) {
		t.Error("newly read page not cached")
	}
}

func TestClockSecondChance(t *testing.T) {
	d, sp := newDev(t, 8)
	p := New(d, 3)
	for _, pg := range []int64{0, 1, 2} {
		if _, err := p.Get(sp, pg); err != nil {
			t.Fatal(err)
		}
	}
	// Inserting page 3 sweeps all ref bits (all set) and evicts page 0.
	if _, err := p.Get(sp, 3); err != nil {
		t.Fatal(err)
	}
	if p.Contains(sp, 0) {
		t.Fatal("full sweep should have evicted page 0")
	}
	// Now ref bits are clear except page 3's. Touch page 1 to set its
	// ref bit; inserting page 4 must then skip page 1 (second chance)
	// and evict page 2 instead.
	if _, err := p.Get(sp, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(sp, 4); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(sp, 1) {
		t.Error("recently referenced page evicted despite second chance")
	}
	if p.Contains(sp, 2) {
		t.Error("unreferenced page 2 survived")
	}
}

func TestGetRunSingleRequest(t *testing.T) {
	d, sp := newDev(t, 16)
	p := New(d, 16)
	pages, err := p.GetRun(sp, 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 4 || pages[0][0] != 4 || pages[3][0] != 7 {
		t.Fatal("wrong pages returned")
	}
	if ds := d.Stats(); ds.Requests != 1 || ds.PagesRead != 4 {
		t.Errorf("device stats %+v, want 1 request 4 pages", ds)
	}
	// All four pages are now cached.
	d.ResetStats()
	if _, err := p.GetRun(sp, 4, 4, nil); err != nil {
		t.Fatal(err)
	}
	if ds := d.Stats(); ds.Requests != 0 {
		t.Errorf("cached run hit device: %+v", ds)
	}
}

func TestGetRunSkipsCachedStretches(t *testing.T) {
	d, sp := newDev(t, 16)
	p := New(d, 16)
	if _, err := p.Get(sp, 6); err != nil { // cache the middle page
		t.Fatal(err)
	}
	d.ResetStats()
	if _, err := p.GetRun(sp, 4, 5, nil); err != nil { // pages 4..8, 6 cached
		t.Fatal(err)
	}
	ds := d.Stats()
	if ds.Requests != 2 {
		t.Errorf("requests = %d, want 2 (runs [4,5] and [7,8])", ds.Requests)
	}
	if ds.PagesRead != 4 {
		t.Errorf("pages read = %d, want 4", ds.PagesRead)
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 5 { // 1 earlier miss + 4 run misses; hit on 6
		t.Errorf("pool stats = %+v", s)
	}
}

func TestGetRunValidation(t *testing.T) {
	d, sp := newDev(t, 4)
	p := New(d, 4)
	if _, err := p.GetRun(sp, 0, 0, nil); err == nil {
		t.Error("zero-length run accepted")
	}
	if _, err := p.GetRun(sp, 2, 10, nil); err == nil {
		t.Error("out-of-range run accepted")
	}
}

func TestErrorPropagation(t *testing.T) {
	d, sp := newDev(t, 4)
	p := New(d, 4)
	d.FailAfter(0)
	if _, err := p.Get(sp, 0); !errors.Is(err, disk.ErrInjected) {
		t.Errorf("Get err = %v, want ErrInjected", err)
	}
	d.FailAfter(0)
	if _, err := p.GetRun(sp, 0, 2, nil); !errors.Is(err, disk.ErrInjected) {
		t.Errorf("GetRun err = %v, want ErrInjected", err)
	}
}

func TestResetColdCache(t *testing.T) {
	d, sp := newDev(t, 4)
	p := New(d, 4)
	if _, err := p.Get(sp, 0); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Contains(sp, 0) {
		t.Error("page survived Reset")
	}
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset: %+v", s)
	}
	d.ResetStats()
	if _, err := p.Get(sp, 0); err != nil {
		t.Fatal(err)
	}
	if ds := d.Stats(); ds.PagesRead != 1 {
		t.Error("read after Reset did not hit device")
	}
}

func TestInvalidateSpace(t *testing.T) {
	d, sp := newDev(t, 4)
	sp2 := d.CreateSpace()
	page := make([]byte, 64)
	if _, err := d.AppendPage(sp2, page); err != nil {
		t.Fatal(err)
	}
	p := New(d, 8)
	if _, err := p.Get(sp, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(sp2, 0); err != nil {
		t.Fatal(err)
	}
	p.InvalidateSpace(sp)
	if p.Contains(sp, 0) {
		t.Error("invalidated page still cached")
	}
	if !p.Contains(sp2, 0) {
		t.Error("unrelated space invalidated")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate not 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

// Property: under any access pattern, the pool never holds more than
// capacity pages, and every Get returns the correct page content.
func TestPoolInvariants(t *testing.T) {
	const numPages = 32
	f := func(accesses []uint8, capSeed uint8) bool {
		capacity := int(capSeed)%8 + 1
		d := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
		sp := d.CreateSpace()
		for i := 0; i < numPages; i++ {
			page := make([]byte, 64)
			page[0] = byte(i)
			if _, err := d.AppendPage(sp, page); err != nil {
				return false
			}
		}
		p := New(d, capacity)
		cached := 0
		for _, a := range accesses {
			pageNo := int64(a) % numPages
			data, err := p.Get(sp, pageNo)
			if err != nil || data[0] != byte(pageNo) {
				return false
			}
			cached = 0
			for i := int64(0); i < numPages; i++ {
				if p.Contains(sp, i) {
					cached++
				}
			}
			if cached > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWriteDuringMissIsNotCached: a writer replaces page 0 and
// invalidates its frame over and over while other views miss on it
// through Get and GetRun. A miss that read the page before a write
// must not cache it after the invalidation, so after every write the
// pool serves that write.
func TestWriteDuringMissIsNotCached(t *testing.T) {
	d, sp := newDev(t, 1)
	p := New(d, 4)
	const writes = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		v := p.View()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					_, err = v.Get(sp, 0)
				} else {
					_, err = v.GetRun(sp, 0, 1, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		page := make([]byte, 64)
		page[0] = byte(i)
		if err := d.WritePage(sp, 0, page); err != nil {
			t.Fatal(err)
		}
		p.InvalidatePage(sp, 0)
		got, err := p.Get(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Errorf("write %d: page 0 reads %d, an older write", i, got[0])
			break
		}
	}
	close(done)
	wg.Wait()
}
