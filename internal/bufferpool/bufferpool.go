// Package bufferpool implements a clock-sweep page cache over a
// simulated disk device.
//
// All query-time page reads in the engine go through a Pool so that
// repeated accesses to a cached page cost no I/O — the effect the
// paper's Index Scan suffers from only partially (the buffer pool
// cannot hold the whole table, so repeated accesses at scale still hit
// the disk). The paper evaluates cold runs; Reset restores that state
// between queries.
//
// Frames hold read-only aliases of device memory, and eviction only
// drops a frame: it never writes back and never overwrites the bytes a
// caller was handed. So a scan may hold page slices across NextBatch
// calls — a full scan its read-ahead chunk, Smooth Scan its current
// morphing region. The one writer is heap Insert, which replaces the
// table's last page with a fresh copy (disk.Device.WritePage) and then
// invalidates that page's frame; the device installs the copy rather
// than writing into the old slice, so a scan holding the old page reads
// the bytes it was handed, never a torn write. A miss that read the
// device while an invalidation ran does not cache its page, so the old
// page cannot come back as a frame after the write.
//
// A Pool is safe for concurrent use: the frame table is guarded by one
// mutex shared by every view of the pool. A Pool value is itself a
// lightweight view — a handle over the shared cache that reads and
// charges through its own disk.Channel. A query's view (On) reads
// through the query's channel, so every miss it takes lands in the
// query's I/O account; View forks a view's channel, so each parallel
// scan worker keeps its own random-vs-sequential head position and its
// own deferred CPU meter while sharing every cached page and the
// query's account.
package bufferpool

import (
	"fmt"
	"sync"

	"smoothscan/internal/disk"
)

// Stats holds cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns hits / (hits+misses), or 0 when no accesses occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type key struct {
	space disk.SpaceID
	page  int64
}

type frame struct {
	key  key
	data []byte
	ref  bool // clock reference bit
	used bool // slot occupied
}

// state is the cache shared by every view of a Pool.
type state struct {
	mu       sync.Mutex
	dev      *disk.Device
	capacity int
	frames   []frame
	table    map[key]int // key -> frame index
	hand     int
	stats    Stats
	// gen counts invalidations. A miss reads the device with mu
	// released; if gen moved meanwhile, the page it read may be the one
	// a write just replaced, so it is returned but not cached.
	gen uint64
}

// Pool is a view of a fixed-capacity page cache: the cache itself is
// shared with every other view, while the I/O channel is this view's.
// The Pool returned by New reads through the device's default channel
// (classic single-stream behaviour); On and View give views over other
// channels.
type Pool struct {
	st *state
	ch *disk.Channel
}

// New creates a pool of capacity pages over the device. Capacity must
// be positive.
func New(dev *disk.Device, capacity int) *Pool {
	if capacity <= 0 {
		// Invariant, not an error return: every caller either passes a
		// compile-time constant or validates user input first (the
		// facade's Open rejects PoolPages < 1 before reaching here).
		panic(fmt.Sprintf("bufferpool: capacity %d", capacity))
	}
	return &Pool{
		st: &state{
			dev:      dev,
			capacity: capacity,
			frames:   make([]frame, capacity),
			table:    make(map[key]int, capacity),
		},
		ch: dev.DefaultChannel(),
	}
}

// View returns a new handle over the same shared cache whose device
// reads go through a fork of this view's channel: a fresh head
// position and deferred CPU accounting, charging the same account.
// Parallel scan workers each take one view; the caller must flush the
// view (FlushCPU) when the worker finishes.
func (p *Pool) View() *Pool {
	return &Pool{st: p.st, ch: p.ch.Fork()}
}

// On returns a view of the same shared cache that reads and charges
// through ch — an execution's own channel, so that its misses land in
// its account. It is returned by value so that the execution can embed
// its view without an allocation.
func (p *Pool) On(ch *disk.Channel) Pool { return Pool{st: p.st, ch: ch} }

// Device returns the underlying device.
func (p *Pool) Device() *disk.Device { return p.st.dev }

// Channel returns the disk channel this view reads through.
func (p *Pool) Channel() *disk.Channel { return p.ch }

// FlushCPU folds the view's deferred CPU charges into the device
// counters and its account (no-op for a view that charges
// immediately).
func (p *Pool) FlushCPU() { p.ch.FlushCPU() }

// ChargeCPU charges t CPU cost units through the view's channel.
// Operators charge through their pool view so that a parallel worker's
// per-tuple accounting stays off the device mutex.
func (p *Pool) ChargeCPU(t float64) { p.ch.ChargeCPU(t) }

// ChargeCPUN charges t CPU cost units n times through the view's
// channel (n individual additions, like disk.Channel.ChargeCPUN).
func (p *Pool) ChargeCPUN(t float64, n int64) { p.ch.ChargeCPUN(t, n) }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.st.capacity }

// Stats returns a snapshot of the cache counters.
func (p *Pool) Stats() Stats {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	return p.st.stats
}

// Contains reports whether the page is currently cached, without
// touching reference bits or counters.
func (p *Pool) Contains(space disk.SpaceID, pageNo int64) bool {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	_, ok := p.st.table[key{space, pageNo}]
	return ok
}

// Get returns the page, reading it from the device on a miss. The
// returned slice is read-only.
//
// The pool mutex is released during the device read so concurrent
// views overlap their page fetches; two views missing the same page
// may both read it (a benign duplicate charge — insert tolerates the
// race), and a single-threaded caller sees exactly the classic probe,
// read, insert sequence.
func (p *Pool) Get(space disk.SpaceID, pageNo int64) ([]byte, error) {
	st := p.st
	k := key{space, pageNo}
	st.mu.Lock()
	if idx, ok := st.table[k]; ok {
		st.stats.Hits++
		st.frames[idx].ref = true
		data := st.frames[idx].data
		st.mu.Unlock()
		return data, nil
	}
	st.stats.Misses++
	gen := st.gen
	st.mu.Unlock()
	data, err := p.readPage(space, pageNo)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.gen == gen {
		st.insert(k, data)
	}
	st.mu.Unlock()
	return data, nil
}

// GetRun returns n consecutive pages starting at start, reading
// contiguous uncached stretches from the device as single run requests.
// This is the read primitive behind Smooth Scan's flattening mode and
// Sort Scan's sorted fetch: a morphing region of pages costs one seek
// plus sequential transfers, and pages already cached cost nothing.
//
// scratch, when non-nil, is reused as the backing array of the returned
// slice if it has the capacity; hot scan loops pass the previous result
// back in to avoid a per-run allocation. Pass nil when unsure.
func (p *Pool) GetRun(space disk.SpaceID, start, n int64, scratch [][]byte) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bufferpool: GetRun of %d pages", n)
	}
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var out [][]byte
	if int64(cap(scratch)) >= n {
		out = scratch[:n]
		// Drop stale page pointers beyond this run so the scratch tail
		// cannot pin evicted page buffers for the scan's lifetime.
		clear(scratch[n:cap(scratch)])
	} else {
		out = make([][]byte, n)
	}
	var runStart int64 = -1 // start of the current uncached stretch
	flush := func(end int64) error {
		if runStart < 0 {
			return nil
		}
		// Read the stretch with the pool unlocked so concurrent views
		// overlap their device requests; re-lock for frame insertion
		// (and for the caller's loop). insert tolerates pages raced in
		// by another view meanwhile, and a single-threaded caller sees
		// the classic probe/read/insert order unchanged.
		gen := st.gen
		st.mu.Unlock()
		pages, err := p.readRun(space, runStart, end-runStart)
		st.mu.Lock()
		if err != nil {
			return err
		}
		for i, data := range pages {
			pageNo := runStart + int64(i)
			if st.gen == gen {
				st.insert(key{space, pageNo}, data)
			}
			out[pageNo-start] = data
		}
		runStart = -1
		return nil
	}
	for pageNo := start; pageNo < start+n; pageNo++ {
		if idx, ok := st.table[key{space, pageNo}]; ok {
			st.stats.Hits++
			st.frames[idx].ref = true
			out[pageNo-start] = st.frames[idx].data
			if err := flush(pageNo); err != nil {
				return nil, err
			}
			continue
		}
		st.stats.Misses++
		if runStart < 0 {
			runStart = pageNo
		}
	}
	if err := flush(start + n); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxReadRetries bounds the attempts the pool makes per page read when
// a fault policy is active. Transient-fault and corruption decisions
// re-roll per attempt, so bounded per-page retry recovers unless the
// fault rate is 1 (or the fault is permanent, which is never retried).
const MaxReadRetries = 4

// readRun is the pool's device-read primitive: ch.ReadRun plus, when a
// fault policy is attached, checksum verification of every returned
// page and bounded retry with simulated-clock backoff for transient
// faults. Corrupted or failed reads never reach the frame table — the
// callers insert only pages this function returned, so a later retry
// re-reads the device rather than serving damaged bytes from cache.
// With no policy attached this is exactly ch.ReadRun.
//
// Retry is page-granular: when a multi-page run hits a transient fault
// or a corrupted page, the run is re-read page by page, each page with
// its own bounded retry. Re-issuing the whole run would make recovery
// LESS likely the longer the run — at per-page fault rate r a fresh
// n-page attempt fails somewhere with probability 1-(1-r)^n, so long
// runs would fail almost every attempt — whereas real storage re-reads
// the flaky sector, not the whole transfer. The split costs the same
// simulated I/O time as the run (head position makes the follow-on
// pages sequential) plus the backoff charges of the retried pages.
func (p *Pool) readRun(space disk.SpaceID, start, n int64) ([][]byte, error) {
	if !p.st.dev.Faulty() {
		return p.ch.ReadRun(space, start, n)
	}
	if n == 1 {
		page, err := p.readPageRetried(space, start)
		if err != nil {
			return nil, err
		}
		return [][]byte{page}, nil
	}
	pages, err := p.readVerified(space, start, n)
	if err == nil {
		return pages, nil
	}
	if !disk.IsTransient(err) {
		return nil, err
	}
	p.ch.ChargeRetryBackoff(0)
	out := make([][]byte, n)
	for i := int64(0); i < n; i++ {
		page, perr := p.readPageRetried(space, start+i)
		if perr != nil {
			return nil, perr
		}
		out[i] = page
	}
	return out, nil
}

// readVerified is one read attempt: ch.ReadRun plus checksum
// verification of every returned page.
func (p *Pool) readVerified(space disk.SpaceID, start, n int64) ([][]byte, error) {
	pages, err := p.ch.ReadRun(space, start, n)
	if err != nil {
		return nil, err
	}
	if err := verifyRun(space, start, pages); err != nil {
		return nil, err
	}
	return pages, nil
}

// readPageRetried reads one page with bounded retry; each retry
// charges backoff time and re-rolls the page's fault decisions.
func (p *Pool) readPageRetried(space disk.SpaceID, pageNo int64) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		pages, err := p.readVerified(space, pageNo, 1)
		if err == nil {
			return pages[0], nil
		}
		if attempt+1 >= MaxReadRetries || !disk.IsTransient(err) {
			return nil, err
		}
		p.ch.ChargeRetryBackoff(attempt)
	}
}

func (p *Pool) readPage(space disk.SpaceID, pageNo int64) ([]byte, error) {
	pages, err := p.readRun(space, pageNo, 1)
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}

// verifyRun checks every page of a run against its stored checksum.
func verifyRun(space disk.SpaceID, start int64, pages [][]byte) error {
	for i, page := range pages {
		if !disk.VerifyChecksum(page) {
			return fmt.Errorf("%w: space %d page %d", disk.ErrPageCorrupt, space, start+int64(i))
		}
	}
	return nil
}

// insert places a page into a frame, evicting via clock sweep if full.
// Callers hold st.mu.
func (st *state) insert(k key, data []byte) {
	if idx, ok := st.table[k]; ok { // already present (raced via GetRun)
		st.frames[idx].data = data
		st.frames[idx].ref = true
		return
	}
	for {
		f := &st.frames[st.hand]
		slot := st.hand
		st.hand = (st.hand + 1) % st.capacity
		if !f.used {
			*f = frame{key: k, data: data, ref: true, used: true}
			st.table[k] = slot
			return
		}
		if f.ref {
			f.ref = false
			continue
		}
		delete(st.table, f.key)
		st.stats.Evictions++
		*f = frame{key: k, data: data, ref: true, used: true}
		st.table[k] = slot
		return
	}
}

// Reset empties the cache and zeroes its counters, simulating the cold
// buffer cache the paper starts every measured query with. The frame
// array and the lookup map are cleared in place and reused, so a
// benchmark resetting between queries does not churn the allocator.
//
// Reset is not safe to run while other views are scanning; the facade
// guards its ColdCache entry point against open scans.
func (p *Pool) Reset() {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.frames {
		st.frames[i] = frame{}
	}
	clear(st.table)
	st.hand = 0
	st.stats = Stats{}
}

// InvalidatePage drops one cached page, if present; callers must
// invoke it after a page write (heap inserts). A read that was in
// flight meanwhile does not cache what it read.
func (p *Pool) InvalidatePage(space disk.SpaceID, pageNo int64) {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen++
	k := key{space, pageNo}
	if idx, ok := st.table[k]; ok {
		st.frames[idx] = frame{}
		delete(st.table, k)
	}
}

// InvalidateSpace drops every cached page of the space; callers must
// invoke it after writing to a space outside the pool (bulk loads).
func (p *Pool) InvalidateSpace(space disk.SpaceID) {
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen++
	for k, idx := range st.table {
		if k.space == space {
			st.frames[idx] = frame{}
			delete(st.table, k)
		}
	}
}
