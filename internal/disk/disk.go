// Package disk implements a cost-accounting disk simulator.
//
// The Smooth Scan paper (Section V) models operator cost purely in terms
// of the number of random and sequential page I/Os, weighted by the
// device's random/sequential cost ratio (10:1 for the paper's HDD, 2:1
// for its SSD). This package reproduces that model: it stores pages in
// memory, classifies every access as random or sequential based on the
// previous physical position, and charges simulated time accordingly.
//
// A Device hosts any number of Spaces (independent page-addressed
// files, e.g. one per heap file or index). All I/O statistics —
// requests issued, random vs sequential accesses, pages and bytes
// transferred, simulated time — are tracked per device, matching the
// units the paper reports (Table II, Figures 4–11), and per account: a
// Channel charges the same counters to the account it carries, which
// is how a query's own I/O is told apart from everything else the
// device did.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Profile describes the cost characteristics of a simulated device.
// Costs are in abstract cost units; by convention one sequential page
// read costs 1 unit.
type Profile struct {
	// Name identifies the profile in reports ("hdd", "ssd").
	Name string
	// RandCost is the cost of a page read that requires a seek.
	RandCost float64
	// SeqCost is the cost of a page read adjacent to the previous one.
	SeqCost float64
	// PageSize is the page size in bytes.
	PageSize int
}

// HDD mirrors the paper's hard-disk assumption: random accesses are an
// order of magnitude slower than sequential ones (Section V-A).
var HDD = Profile{Name: "hdd", RandCost: 10, SeqCost: 1, PageSize: 8192}

// SSD mirrors the paper's solid-state assumption: random accesses are
// twice as slow as sequential ones (Section VI-E).
var SSD = Profile{Name: "ssd", RandCost: 2, SeqCost: 1, PageSize: 8192}

// Stats aggregates all I/O and CPU accounting for a device.
type Stats struct {
	// Requests counts I/O requests issued. A multi-page run read
	// counts as a single request (this is the "#I/O Req." column of
	// Table II).
	Requests int64
	// RandomAccesses counts page reads charged at RandCost.
	RandomAccesses int64
	// SeqAccesses counts page reads charged at SeqCost (including
	// short-forward-skip reads, see SkippedPages).
	SeqAccesses int64
	// SkippedPages counts pages the head passed over (charged at
	// SeqCost each) during short forward skips: when the next read
	// lies a few pages ahead, streaming through the gap is cheaper
	// than a seek, and the device model picks the cheaper option.
	SkippedPages int64
	// PagesRead counts pages transferred from the device.
	PagesRead int64
	// PagesWritten counts pages transferred to the device.
	PagesWritten int64
	// BytesRead is PagesRead times the page size.
	BytesRead int64
	// IOTime is the simulated time spent on I/O, in cost units.
	IOTime float64
	// CPUTime is the simulated time spent on CPU work, in cost
	// units. Operators charge CPU through Channel.ChargeCPU; keeping
	// the two clocks side by side lets the harness reproduce the
	// CPU-vs-I/O-wait breakdown of Figure 4.
	CPUTime float64
	// Faults counts reads failed by an injected fault (transient or
	// permanent). All four fault counters stay zero when no
	// FaultPolicy is attached.
	Faults int64
	// Corruptions counts pages returned with a corrupted payload.
	Corruptions int64
	// LatencySpikes counts latency-spike hits (reads that succeeded
	// but were charged extra simulated time).
	LatencySpikes int64
	// Retries counts retried reads, charged via ChargeRetryBackoff.
	Retries int64
}

// Time returns total simulated time (I/O plus CPU).
func (s Stats) Time() float64 { return s.IOTime + s.CPUTime }

// Sub returns the difference s minus t, field by field: the counters
// accrued between two snapshots of the same device or account.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Requests:       s.Requests - t.Requests,
		RandomAccesses: s.RandomAccesses - t.RandomAccesses,
		SeqAccesses:    s.SeqAccesses - t.SeqAccesses,
		SkippedPages:   s.SkippedPages - t.SkippedPages,
		PagesRead:      s.PagesRead - t.PagesRead,
		PagesWritten:   s.PagesWritten - t.PagesWritten,
		BytesRead:      s.BytesRead - t.BytesRead,
		IOTime:         s.IOTime - t.IOTime,
		CPUTime:        s.CPUTime - t.CPUTime,
		Faults:         s.Faults - t.Faults,
		Corruptions:    s.Corruptions - t.Corruptions,
		LatencySpikes:  s.LatencySpikes - t.LatencySpikes,
		Retries:        s.Retries - t.Retries,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("req=%d rand=%d seq=%d pages=%d io=%.1f cpu=%.1f",
		s.Requests, s.RandomAccesses, s.SeqAccesses, s.PagesRead, s.IOTime, s.CPUTime)
}

// SpaceID identifies a page space (file) on a device.
type SpaceID int32

// ErrOutOfRange is returned when a read addresses a page beyond the end
// of its space.
var ErrOutOfRange = errors.New("disk: page out of range")

// ErrNoSpace is returned when an operation addresses an unknown space.
var ErrNoSpace = errors.New("disk: unknown space")

// ErrInjected is the error returned by reads once failure injection is
// armed; tests use it to verify error propagation through the stack.
var ErrInjected = errors.New("disk: injected I/O failure")

type space struct {
	pages [][]byte
}

// Device is a simulated disk. It is safe for concurrent use: page
// storage and the Stats counters are guarded by one mutex, and Stats
// always returns a consistent snapshot taken under that mutex.
//
// Random-vs-sequential classification is per Channel. The device owns
// a default channel that its own read methods use, so single-threaded
// callers see exactly the classic single-head behaviour; each query
// and each of its parallel workers reads through a Channel of its own
// (OpenChannel, Fork) so that interleaved requests from independent
// streams do not destroy each other's sequentiality — the model is a
// device with per-stream read-ahead state, which is what makes the
// random/sequential split meaningful under concurrent scans.
type Device struct {
	mu      sync.Mutex
	profile Profile
	spaces  []*space
	stats   Stats

	// def is the device's default I/O channel, used by the Device-level
	// read methods.
	def Channel

	// failAfter, when >= 0, counts down on every page read; the read
	// that decrements it to below zero fails with ErrInjected.
	failAfter int64

	// faults is the attached fault policy, nil when injection is off.
	// Atomic so readers above the device (buffer pool, decoders) can
	// check Faulty() without taking the device mutex; the policy's own
	// state is still only touched under mu (in ReadRun).
	faults atomic.Pointer[FaultPolicy]
}

// NewDevice creates an empty device with the given profile.
func NewDevice(p Profile) *Device {
	if p.PageSize <= 0 {
		panic("disk: profile requires positive page size")
	}
	d := &Device{profile: p, failAfter: -1}
	d.def.dev = d
	return d
}

// Channel is an independent I/O stream on a device and the account it
// charges. Each channel keeps its own head position (lastSpace/lastPage),
// so the random-vs-sequential classification of its reads is
// unaffected by other channels' interleaved requests. Every read, spill
// and CPU charge made through a channel adds to the device Stats and to
// the channel's account, under the device mutex.
//
// A channel from OpenChannel, NewChannel or DefaultChannel is its own
// account. A channel forked from one (Fork) gets a fresh head position
// but charges the same account: a query's parallel workers keep their
// own sequentiality while every page they read stays the query's.
//
// Channels from NewChannel and Fork additionally defer CPU charges:
// ChargeCPU/ChargeCPUN accumulate into a channel-local meter with no
// locking, and FlushCPU folds the pending total into the device and
// the account. A parallel scan gives each worker one such channel and
// flushes when the worker finishes, so per-tuple CPU accounting never
// contends on the device mutex.
//
// A Channel must be used by one goroutine at a time, and a channel
// that has been forked must not be copied.
type Channel struct {
	dev *Device

	// Head position for random-vs-sequential classification, guarded
	// by dev.mu (reads touch it together with the shared stats).
	lastSpace SpaceID
	lastPage  int64
	hasPos    bool

	// owner is the channel whose account a forked channel charges; nil
	// when the channel is its own account.
	owner *Channel
	// local is the account's counters when owner is nil, guarded by
	// dev.mu.
	local Stats

	// deferred selects local CPU accumulation (worker channels) over
	// immediate charging.
	deferred   bool
	pendingCPU float64
}

// OpenChannel returns a fresh I/O stream that is its own account: no
// head position (its first read is classified random, like any cold
// stream) and immediate CPU charging. It is returned by value so that
// an execution can embed its channel without an allocation.
func (d *Device) OpenChannel() Channel { return Channel{dev: d} }

// NewChannel opens a fresh I/O stream that is its own account, with no
// head position and deferred CPU accounting.
func (d *Device) NewChannel() *Channel {
	return &Channel{dev: d, deferred: true}
}

// Fork opens a fresh I/O stream charging c's account: no head position,
// deferred CPU accounting.
func (c *Channel) Fork() *Channel {
	return &Channel{dev: c.dev, owner: c.account(), deferred: true}
}

// account returns the channel that owns c's account.
func (c *Channel) account() *Channel {
	if c.owner != nil {
		return c.owner
	}
	return c
}

// charge adds delta to the device totals and to c's account. The
// caller holds dev.mu.
func (c *Channel) charge(delta Stats) {
	c.dev.stats.add(delta)
	c.account().local.add(delta)
}

// DefaultChannel returns the device's built-in channel: the head
// position the Device-level read methods use, with immediate CPU
// charging. Single-stream callers share it.
func (d *Device) DefaultChannel() *Channel { return &d.def }

// Device returns the device the channel reads from.
func (c *Channel) Device() *Device { return c.dev }

// Profile returns the device's cost profile.
func (d *Device) Profile() Profile { return d.profile }

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.profile.PageSize }

// CreateSpace allocates a new, empty page space and returns its ID.
func (d *Device) CreateSpace() SpaceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spaces = append(d.spaces, &space{})
	return SpaceID(len(d.spaces) - 1)
}

// SpacePages returns the number of pages currently in the space.
func (d *Device) SpacePages(id SpaceID) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sp, err := d.space(id)
	if err != nil {
		return 0, err
	}
	return int64(len(sp.pages)), nil
}

func (d *Device) space(id SpaceID) (*space, error) {
	if id < 0 || int(id) >= len(d.spaces) {
		return nil, fmt.Errorf("%w: %d", ErrNoSpace, id)
	}
	return d.spaces[id], nil
}

// AppendPage appends a page to the space and returns its page number.
// Writes are charged sequentially; bulk loading is not the object of
// the paper's study, so write cost accounting is deliberately simple.
func (d *Device) AppendPage(id SpaceID, data []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sp, err := d.space(id)
	if err != nil {
		return 0, err
	}
	if len(data) != d.profile.PageSize {
		return 0, fmt.Errorf("disk: append of %d bytes, want page size %d", len(data), d.profile.PageSize)
	}
	page := make([]byte, d.profile.PageSize)
	copy(page, data)
	sp.pages = append(sp.pages, page)
	d.stats.PagesWritten++
	return int64(len(sp.pages) - 1), nil
}

// WritePage replaces an existing page with data. The device takes
// ownership of data, which becomes the page: the caller must not reuse
// it. The slice the page used to be is left as it was, so a reader that
// still holds it — a buffer-pool frame, a scan's region — keeps seeing
// the old bytes instead of racing with the write.
func (d *Device) WritePage(id SpaceID, pageNo int64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sp, err := d.space(id)
	if err != nil {
		return err
	}
	if pageNo < 0 || pageNo >= int64(len(sp.pages)) {
		return fmt.Errorf("%w: space %d page %d", ErrOutOfRange, id, pageNo)
	}
	if len(data) != d.profile.PageSize {
		return fmt.Errorf("disk: write of %d bytes, want page size %d", len(data), d.profile.PageSize)
	}
	sp.pages[pageNo] = data
	d.stats.PagesWritten++
	return nil
}

// ReadPage reads a single page through the device's default channel.
// It issues one I/O request, charged RandCost unless the page
// physically follows the previously accessed one, in which case
// SeqCost applies.
func (d *Device) ReadPage(id SpaceID, pageNo int64) ([]byte, error) {
	return d.def.ReadPage(id, pageNo)
}

// ReadRun reads n consecutive pages through the device's default
// channel (see Channel.ReadRun).
func (d *Device) ReadRun(id SpaceID, start, n int64) ([][]byte, error) {
	return d.def.ReadRun(id, start, n)
}

// ReadPage reads a single page on this channel; see Device.ReadPage.
func (c *Channel) ReadPage(id SpaceID, pageNo int64) ([]byte, error) {
	pages, err := c.ReadRun(id, pageNo, 1)
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}

// ReadRun reads n consecutive pages starting at start as one I/O
// request: the first page is classified random or sequential against
// the channel's head position and the remaining n-1 pages are
// sequential. This models the flattened, prefetcher-friendly access
// pattern of Smooth Scan's Mode 2 and of Sort Scan.
//
// The returned slices alias device memory and must not be modified.
func (c *Channel) ReadRun(id SpaceID, start, n int64) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("disk: ReadRun of %d pages", n)
	}
	d := c.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	sp, err := d.space(id)
	if err != nil {
		return nil, err
	}
	if start < 0 || start+n > int64(len(sp.pages)) {
		return nil, fmt.Errorf("%w: space %d pages [%d,%d)", ErrOutOfRange, id, start, start+n)
	}
	if d.failAfter >= 0 {
		if d.failAfter < n {
			d.failAfter = -1
			return nil, ErrInjected
		}
		d.failAfter -= n
	}
	var dec faultDecision
	if fp := d.faults.Load(); fp != nil {
		dec = fp.evaluate(id, start, n)
		if dec.err != nil {
			// A failed read is counted but charged no transfer time:
			// the request never completed.
			c.charge(Stats{Faults: 1})
			return nil, dec.err
		}
	}

	var delta Stats
	delta.Requests++
	switch gap := start - (c.lastPage + 1); {
	case c.hasPos && c.lastSpace == id && gap == 0:
		// Head is already in position: pure sequential transfer.
		delta.SeqAccesses++
		delta.IOTime += d.profile.SeqCost
	case c.hasPos && c.lastSpace == id && gap > 0 &&
		float64(gap+1)*d.profile.SeqCost < d.profile.RandCost:
		// Short forward skip: streaming through the gap is cheaper
		// than seeking (shortest-positioning-time rule). The paper
		// relies on this when calling page-ordered patterns "nearly
		// sequential" (Sort Scan, Section II).
		delta.SeqAccesses++
		delta.SkippedPages += gap
		delta.IOTime += float64(gap+1) * d.profile.SeqCost
	default:
		delta.RandomAccesses++
		delta.IOTime += d.profile.RandCost
	}
	if n > 1 {
		delta.SeqAccesses += n - 1
		delta.IOTime += float64(n-1) * d.profile.SeqCost
	}
	delta.PagesRead += n
	delta.BytesRead += n * int64(d.profile.PageSize)
	delta.IOTime += dec.extraCost
	delta.LatencySpikes += dec.latency
	delta.Corruptions += int64(len(dec.corrupt))
	c.lastSpace, c.lastPage, c.hasPos = id, start+n-1, true
	c.charge(delta)

	out := make([][]byte, n)
	for i := int64(0); i < n; i++ {
		out[i] = sp.pages[start+i]
	}
	for _, i := range dec.corrupt {
		// Corruption damages the returned copy, not the stored page;
		// re-reading can return clean data.
		out[i] = corruptCopy(out[i])
	}
	return out, nil
}

// ChargeSpill models an external-sort (or other out-of-core) spill:
// pages are written to scratch space and read back once, both
// sequentially, as two requests. The channel's head position is
// invalidated — after a spill the stream's next data access seeks.
func (c *Channel) ChargeSpill(pages int64) {
	if pages <= 0 {
		return
	}
	d := c.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	var delta Stats
	delta.Requests += 2
	delta.SeqAccesses += 2 * pages
	delta.PagesWritten += pages
	delta.PagesRead += pages
	delta.BytesRead += pages * int64(d.profile.PageSize)
	delta.IOTime += 2 * float64(pages) * d.profile.SeqCost
	c.hasPos = false
	c.charge(delta)
}

// ChargeCPU adds t cost units to the CPU clock via this channel: on a
// deferred (worker) channel it accumulates locally with no locking,
// otherwise it charges the device and the account immediately.
// Operators use it to account for per-tuple predicate evaluation,
// sorting and hashing so that the harness can reproduce the paper's
// CPU/I-O breakdown.
func (c *Channel) ChargeCPU(t float64) { c.ChargeCPUN(t, 1) }

// ChargeCPUN adds t cost units to the CPU clock n times via this
// channel. It performs n individual floating-point additions on every
// clock it charges — the device's and the account's, in one loop under
// a single lock acquisition, or the deferred meter — so the accumulated
// CPUTime is bit-identical to n successive ChargeCPU(t) calls: batched
// operators rely on this to keep the simulated cost of a query
// independent of execution granularity.
func (c *Channel) ChargeCPUN(t float64, n int64) {
	if n <= 0 {
		return
	}
	if c.deferred {
		c.pendingCPU = addN(c.pendingCPU, t, n)
		return
	}
	d, a := c.dev, c.account()
	d.mu.Lock()
	dev, acct := d.stats.CPUTime, a.local.CPUTime
	for i := int64(0); i < n; i++ {
		dev += t
		acct += t
	}
	d.stats.CPUTime, a.local.CPUTime = dev, acct
	d.mu.Unlock()
}

// addN returns acc after n successive additions of t — the same
// additions in the same order as a loop over the accumulator's memory,
// carried in a register.
func addN(acc, t float64, n int64) float64 {
	for i := int64(0); i < n; i++ {
		acc += t
	}
	return acc
}

// FlushCPU folds the channel's pending deferred CPU charges into the
// device counters and the account. A parallel scan calls it once per
// worker when the worker finishes; it is a no-op on non-deferred
// channels.
func (c *Channel) FlushCPU() {
	if c.pendingCPU == 0 {
		return
	}
	d := c.dev
	d.mu.Lock()
	d.stats.CPUTime += c.pendingCPU
	c.account().local.CPUTime += c.pendingCPU
	d.mu.Unlock()
	c.pendingCPU = 0
}

// Stats returns the channel's account — everything charged through
// this channel and the channels sharing its account — plus this
// channel's not-yet-flushed deferred CPU. Reading it while a deferred
// channel's goroutine is still running requires external
// synchronization for the pending-CPU part.
func (c *Channel) Stats() Stats {
	c.dev.mu.Lock()
	st := c.account().local
	c.dev.mu.Unlock()
	st.CPUTime += c.pendingCPU
	return st
}

// Add returns the field-wise sum of two counter snapshots — how the
// deltas of independent devices (one per shard) combine.
func Add(a, b Stats) Stats {
	a.add(b)
	return a
}

// add accumulates t into s field by field.
func (s *Stats) add(t Stats) {
	s.Requests += t.Requests
	s.RandomAccesses += t.RandomAccesses
	s.SeqAccesses += t.SeqAccesses
	s.SkippedPages += t.SkippedPages
	s.PagesRead += t.PagesRead
	s.PagesWritten += t.PagesWritten
	s.BytesRead += t.BytesRead
	s.IOTime += t.IOTime
	s.CPUTime += t.CPUTime
	s.Faults += t.Faults
	s.Corruptions += t.Corruptions
	s.LatencySpikes += t.LatencySpikes
	s.Retries += t.Retries
}

// Stats returns a snapshot of the device counters, taken under the
// device mutex so concurrent readers always observe a consistent state
// (no torn Requests-vs-IOTime pairs).
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters and forgets the default channel's
// head position, so the next access is classified random. The paper
// reports cold runs; the harness calls this (together with buffer-pool
// reset) between queries. Worker channels opened with NewChannel keep
// their positions — they are per-query-ephemeral and start cold anyway.
func (d *Device) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	d.def.hasPos = false
	d.def.local = Stats{}
	d.mu.Unlock()
}

// FailAfter arms failure injection: the read that would transfer page
// number n+1 (counting from the call) fails with ErrInjected, after
// which injection disarms. FailAfter(-1) disarms immediately.
func (d *Device) FailAfter(n int64) {
	d.mu.Lock()
	d.failAfter = n
	d.mu.Unlock()
}
