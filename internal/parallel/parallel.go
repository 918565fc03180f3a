// Package parallel merges the streams of concurrent scan workers into
// one operator over the batched NextBatch protocol: an unordered
// fan-in, or a k-way ordered merge when the plan needs key order. Two
// kinds of workers feed it. A parallel full scan partitions a table's
// heap page range into P disjoint shards (PartitionPages) and runs one
// access.FullScan per shard behind the fan-in; a sharded query runs
// one worker per database shard behind the fan-in or, under ORDER BY,
// the merge (the coordinator's gather and gather-merge).
//
// # Exactly-once
//
// Page shards never share heap pages: PartitionPages produces
// disjoint, contiguous page ranges, and a full-scan worker walks only
// its own subrange. Every qualifying tuple therefore belongs to
// exactly one worker with no cross-worker coordination. Database
// shards hold disjoint rows by partitioning.
//
// # Ordering
//
// The ordered merge serves only the sharded gather-merge: each shard
// stream arrives sorted on the key column, and merging by key —
// breaking ties in favour of the lowest worker index — yields one
// stream sorted on that key. The fan-in keeps no order.
//
// # Cost accounting
//
// Each full-scan worker reads through its own bufferpool view (a
// private disk.Channel), so its sequential shard traversal is
// classified sequential regardless of how the scheduler interleaves
// workers; its per-tuple CPU charges are atomic adds of integer ticks
// to the query's account, so the CPU total is exact whatever the
// interleaving. Device totals after the scan are the sum of the
// per-worker contributions. Workers read disjoint heap pages and no
// index, so no two of them ever miss on the same page: from a cold
// pool the totals are the same on every run with P workers. Relative
// to the serial scan only the seek count differs, as each worker pays
// its own initial seek; which heap pages are read never differs.
//
// # Exchange buffers
//
// Batches cross from workers to the consumer through bounded free
// lists: one shared by every worker of an unordered fan-in, capped at
// 2P+1 batches, and one per stream of an ordered merge, capped at three.
// A list starts empty at Open. A worker that finds it empty takes a
// batch from the engine's batch pool (exec.GetBatch) while its
// exchange holds fewer than the cap, and otherwise waits for the
// consumer to recycle one, so a query that returns a few rows pays for
// the batches it used, not for the cap. Every batch of an exchange fits
// in its free list, so recycling never blocks. A worker that stops —
// at end of stream, on an error or on cancellation — puts the batch it
// holds back on its free list; once the workers have quiesced, Close
// hands the free lists, the batches still unread in the pipes and the
// consumer's current batch back to the pool (exec.PutBatch).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

// ErrClosed is returned by NextBatch before Open or after Close.
var ErrClosed = errors.New("parallel: scan is not open")

// Shard is one worker's disjoint heap page range [PageLo, PageHi).
type Shard struct {
	Index  int
	PageLo int64
	PageHi int64
}

// PartitionPages splits [0, numPages) into min(p, numPages) contiguous,
// disjoint, non-empty shards of near-equal size, in increasing page
// order. With numPages == 0 it returns a single empty shard.
func PartitionPages(numPages int64, p int) []Shard {
	if p < 1 {
		p = 1
	}
	if int64(p) > numPages {
		p = int(numPages)
		if p < 1 {
			p = 1
		}
	}
	shards := make([]Shard, 0, p)
	base, rem := numPages/int64(p), numPages%int64(p)
	lo := int64(0)
	for i := 0; i < p; i++ {
		size := base
		if int64(i) < rem {
			size++
		}
		shards = append(shards, Shard{Index: i, PageLo: lo, PageHi: lo + size})
		lo += size
	}
	return shards
}

// Options configures a parallel Scan.
type Options struct {
	// Schema describes the rows every worker produces.
	Schema *tuple.Schema
	// Ordered selects the k-way ordered merge (workers must each emit
	// key-ordered rows); false selects the unordered fan-in.
	Ordered bool
	// KeyCol is the merge key column (Ordered only).
	KeyCol int
	// BatchSize is the per-batch row capacity exchanged between
	// workers and the merger (default exec.DefaultBatchSize).
	BatchSize int
	// Ctx, when non-nil, cancels the scan: workers observe
	// cancellation between batches (and while parked on an exchange
	// channel, even with the consumer gone) and exit promptly, and
	// NextBatch returns ctx.Err(). Nil means no cancellation.
	Ctx context.Context
}

// Scan is the merged parallel scan operator (an exec.Operator).
//
// A Scan (like any operator) must be driven by a single goroutine; the
// parallelism lives behind it.
type Scan struct {
	workers []exec.Operator
	opts    Options

	open bool
	quit chan struct{}
	done <-chan struct{} // opts.Ctx.Done(), nil when no context
	// fail is closed (once) by the first worker that hits an error, so
	// sibling workers parked on an exchange channel stop promptly
	// instead of filling their pipes with results nobody will read —
	// errgroup-style first-error propagation.
	fail     chan struct{}
	failOnce *sync.Once
	// wg is allocated fresh per Open: the fan-in closer goroutine of a
	// previous generation may still be inside Wait when the scan is
	// reopened, and a WaitGroup must not see a new Add concurrently
	// with an old Wait.
	wg   *sync.WaitGroup
	errs chan error
	err  error
	eos  bool

	// Unordered fan-in.
	results chan *tuple.Batch
	free    *freeList
	cur     *tuple.Batch // partially-copied received batch
	curPos  int

	// Ordered k-way merge.
	streams []*stream
}

// stream is one worker's bounded pipe into the ordered merge.
type stream struct {
	ch   chan *tuple.Batch
	free *freeList
	cur  *tuple.Batch
	pos  int
	done bool
}

// freeList recycles an exchange's batches from the consumer back to its
// workers. Its capacity is the exchange's cap on batches: made counts
// the batches taken from the pool since Open, and a worker takes one
// only while made is under the cap, so every batch of the exchange fits
// in ch and a send to it never blocks.
type freeList struct {
	ch   chan *tuple.Batch
	made atomic.Int32
}

func newFreeList(capacity int) *freeList {
	return &freeList{ch: make(chan *tuple.Batch, capacity)}
}

// mayGrow reserves one more batch for the exchange, reporting false at
// the cap. The Load keeps made from climbing past the cap on every
// empty-list poll of a long scan.
func (f *freeList) mayGrow() bool {
	capacity := int32(cap(f.ch))
	return f.made.Load() < capacity && f.made.Add(1) <= capacity
}

// Tests observe the exchange's batch traffic through these hooks; they
// are nil outside tests.
var (
	testHookTake    func(b *tuple.Batch)
	testHookRelease func(b *tuple.Batch, pooled bool)
)

// NewScan builds a parallel scan over the shard workers. Workers must
// be listed in increasing shard page order for ordered merges to
// reproduce the serial (key, TID) order.
func NewScan(workers []exec.Operator, opts Options) (*Scan, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("parallel: no workers")
	}
	if opts.Schema == nil {
		return nil, fmt.Errorf("parallel: options require a schema")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = exec.DefaultBatchSize
	}
	if opts.Ordered && (opts.KeyCol < 0 || opts.KeyCol >= opts.Schema.NumCols()) {
		return nil, fmt.Errorf("parallel: merge key column %d out of range", opts.KeyCol)
	}
	return &Scan{workers: workers, opts: opts}, nil
}

// Schema returns the row schema.
func (s *Scan) Schema() *tuple.Schema { return s.opts.Schema }

// newBatch takes one exchange batch from the pool (allocating it when
// BatchSize is not the pooled size).
func (s *Scan) newBatch() *tuple.Batch {
	var b *tuple.Batch
	if s.opts.BatchSize == exec.DefaultBatchSize {
		b = exec.GetBatch(s.opts.Schema)
	} else {
		b = tuple.NewBatchFor(s.opts.Schema, s.opts.BatchSize)
	}
	if testHookTake != nil {
		testHookTake(b)
	}
	return b
}

// release gives an exchange batch back to the pool; nil is a no-op.
func release(b *tuple.Batch) {
	if b == nil {
		return
	}
	pooled := exec.PutBatch(b)
	if testHookRelease != nil {
		testHookRelease(b, pooled)
	}
}

// releaseAll releases every batch buffered in ch. Senders have all
// returned, so ch holds everything it will ever hold; it may or may not
// have been closed yet.
func releaseAll(ch chan *tuple.Batch) {
	for {
		select {
		case b, ok := <-ch:
			if !ok {
				return
			}
			release(b)
		default:
			return
		}
	}
}

// Open opens every shard operator — concurrently, but Open does not
// return until all have opened or one has failed. An open-time fault
// (a dead index root, say) therefore surfaces from Open itself, where
// the planner's degradation ladder can still rebuild the query; only
// mid-scan and close errors surface later, from NextBatch or Close.
// On an open failure every already-opened operator is closed again and
// no goroutine is left behind.
func (s *Scan) Open() error {
	if s.open {
		return fmt.Errorf("parallel: scan already open")
	}
	p := len(s.workers)
	s.quit = make(chan struct{})
	s.fail = make(chan struct{})
	s.failOnce = &sync.Once{}
	s.done = nil
	if s.opts.Ctx != nil {
		s.done = s.opts.Ctx.Done()
	}
	s.wg = &sync.WaitGroup{}
	s.errs = make(chan error, p)
	s.err = nil
	s.eos = false
	s.cur = nil
	s.curPos = 0

	openErrs := make([]error, p)
	opened := make([]bool, p)
	var owg sync.WaitGroup
	for i := range s.workers {
		owg.Add(1)
		go func(i int) {
			defer owg.Done()
			if err := s.workers[i].Open(); err != nil {
				openErrs[i] = err
			} else {
				opened[i] = true
			}
		}(i)
	}
	owg.Wait()
	for _, openErr := range openErrs {
		if openErr == nil {
			continue
		}
		for i, ok := range opened {
			if ok {
				_ = s.workers[i].Close()
			}
		}
		return openErr
	}

	if s.opts.Ordered {
		s.streams = make([]*stream, p)
		for i := range s.workers {
			st := &stream{ch: make(chan *tuple.Batch, 2), free: newFreeList(3)}
			s.streams[i] = st
			s.wg.Add(1)
			go s.runWorker(s.workers[i], s.wg, s.quit, st.free, st.ch, true)
		}
	} else {
		s.results = make(chan *tuple.Batch, 2*p)
		s.free = newFreeList(2*p + 1)
		for i := range s.workers {
			s.wg.Add(1)
			go s.runWorker(s.workers[i], s.wg, s.quit, s.free, s.results, false)
		}
		// Single closer: the fan-in channel has many senders.
		results, wg := s.results, s.wg
		go func() {
			wg.Wait()
			close(results)
		}()
	}
	s.open = true
	return nil
}

// runWorker drains one already-opened shard operator into out,
// recycling batches through free and taking new ones from the pool
// while the exchange is under its cap. With ownsOut (ordered mode: out has
// a single sender) the channel is closed when the worker finishes. The
// WaitGroup, quit and fail channels and error sink are passed
// explicitly (or captured before any blocking) so the goroutine stays
// bound to the generation of the Open that spawned it even if the scan
// is closed and reopened.
func (s *Scan) runWorker(w exec.Operator, wg *sync.WaitGroup, quit <-chan struct{}, free *freeList, out chan<- *tuple.Batch, ownsOut bool) {
	errs := s.errs
	done := s.done
	fail := s.fail
	failOnce := s.failOnce
	report := func(err error) {
		errs <- err
		failOnce.Do(func() { close(fail) })
	}
	defer wg.Done()
	if ownsOut {
		defer close(out)
	}
	defer func() {
		if err := w.Close(); err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}()
	// b is the batch the worker holds; whatever stops the worker, it
	// goes back on the free list for Close to release.
	var b *tuple.Batch
	defer func() {
		if b != nil {
			free.ch <- b
		}
	}()
	for {
		// Cancellation is checked once per batch (never per tuple): a
		// non-blocking poll here, plus the done/fail arms below that
		// unblock a worker parked on an exchange channel after the
		// consumer has abandoned the scan or a sibling has failed.
		select {
		case <-done:
			return
		case <-fail:
			return
		default:
		}
		select {
		case b = <-free.ch:
		default:
			if free.mayGrow() {
				b = s.newBatch()
				break
			}
			select {
			case b = <-free.ch:
			case <-quit:
				return
			case <-done:
				return
			case <-fail:
				return
			}
		}
		n, err := w.NextBatch(b)
		if err != nil {
			report(err)
			return
		}
		if n == 0 {
			return
		}
		select {
		case out <- b:
			b = nil
		case <-quit:
			return
		case <-done:
			return
		case <-fail:
			return
		}
	}
}

// firstErr returns a pending worker error without blocking.
func (s *Scan) firstErr() error {
	select {
	case err := <-s.errs:
		return err
	default:
		return nil
	}
}

// NextBatch fills out with the next merged rows; 0 at end of stream.
func (s *Scan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	if s.err != nil {
		return 0, s.err
	}
	if s.opts.Ctx != nil {
		if err := s.opts.Ctx.Err(); err != nil {
			s.err = err
			return 0, err
		}
	}
	if s.eos {
		return 0, nil
	}
	if err := s.firstErr(); err != nil {
		s.err = err
		return 0, err
	}
	if s.opts.Ordered {
		return s.nextBatchOrdered(out)
	}
	return s.nextBatchUnordered(out)
}

// nextBatchUnordered hands the caller the next worker batch: swapped
// in O(1) when the caller's batch can take it whole, copied flat (and
// possibly split across calls) otherwise.
func (s *Scan) nextBatchUnordered(out *tuple.Batch) (int, error) {
	for {
		if s.cur != nil {
			n := out.AppendRows(s.cur, s.curPos, s.cur.Len()-s.curPos)
			s.curPos += n
			if s.curPos >= s.cur.Len() {
				s.free.ch <- s.cur
				s.cur = nil
			}
			if out.Len() > 0 {
				return out.Len(), nil
			}
		}
		b, ok := <-s.results
		if !ok {
			s.eos = true
			if err := s.firstErr(); err != nil {
				s.err = err
				return 0, err
			}
			return out.Len(), nil
		}
		if out.Len() == 0 && out.TrySwap(b) {
			s.free.ch <- b
			return out.Len(), nil
		}
		s.cur, s.curPos = b, 0
	}
}

// nextBatchOrdered merges the worker streams by key, breaking ties by
// worker index (= shard page order), which reproduces the serial
// ordered scan's (key, TID) order exactly.
func (s *Scan) nextBatchOrdered(out *tuple.Batch) (int, error) {
	for !out.Full() {
		best := -1
		var bestKey int64
		for i, st := range s.streams {
			if err := s.ensure(st); err != nil {
				s.err = err
				return 0, err
			}
			if st.done {
				continue
			}
			k := st.cur.Row(st.pos).Int(s.opts.KeyCol)
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			s.eos = true
			break
		}
		st := s.streams[best]
		out.Append(st.cur.Row(st.pos))
		st.pos++
	}
	return out.Len(), nil
}

// ensure gives the stream a current row (or marks it done), recycling
// drained batches.
func (s *Scan) ensure(st *stream) error {
	for !st.done && (st.cur == nil || st.pos >= st.cur.Len()) {
		if st.cur != nil {
			st.free.ch <- st.cur
			st.cur = nil
		}
		b, ok := <-st.ch
		if !ok {
			st.done = true
			return s.firstErr()
		}
		st.cur, st.pos = b, 0
	}
	return nil
}

// Close stops the workers (cancelling any still running), waits for
// them to finish and returns every exchange batch of this Open to the
// pool: the free lists, the batches still unread in the pipes and the
// consumer's current batch. It returns the first worker error not yet
// surfaced through NextBatch, so a failed scan closed before being
// fully drained still reports its failure. The scan may be reopened.
func (s *Scan) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	close(s.quit)
	// Unblock workers parked on a full results/stream channel: the
	// select on quit in runWorker releases them; nothing to drain.
	s.wg.Wait()
	if err := s.firstErr(); err != nil && s.err == nil {
		s.err = err
	}
	if s.opts.Ordered {
		for _, st := range s.streams {
			release(st.cur)
			releaseAll(st.ch)
			releaseAll(st.free.ch)
		}
	} else {
		release(s.cur)
		releaseAll(s.results)
		releaseAll(s.free.ch)
	}
	s.results = nil
	s.free = nil
	s.streams = nil
	s.cur = nil
	return s.err
}
