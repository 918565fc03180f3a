// Package core implements Smooth Scan, the paper's contribution: a
// statistics-oblivious access path that morphs continuously between a
// non-clustered index look-up and a full table scan as its run-time
// understanding of the operator's selectivity evolves (Section III).
//
// The operator follows the index leaf entries in key order, like an
// index scan, but instead of fetching single tuples it analyses whole
// heap pages (Mode 1, Entire Page Probe) and, as observed selectivity
// grows, whole morphing regions of adjacent pages (Mode 2+, Flattening
// Access) whose size expands and — under the Elastic policy — shrinks
// with the local result density. Bookkeeping structures (Page ID
// cache, Tuple ID cache, Result Cache) guarantee every qualifying
// tuple is produced exactly once, and in index-key order when the plan
// requires it.
//
// The Entire Page Probe trades CPU for I/O: it reads a page once
// instead of once per pointer, and pays for testing every slot. A page
// the buffer pool already holds saves no I/O, so an unordered scan
// without residual conjuncts probes such a page pointer by pointer, as
// Mode 0 does, when the pages it has analysed are sparse: fewer than one
// examined slot in costmodel.ResidentProbeSlots qualified. Its first
// page is always analysed, and the pointers it probes never outnumber
// the slots it has analysed, so it analyses a page again at least that
// often and sees a change in density. A probed page stays probed for the
// rest of the scan, however often its pointers recur, and is never
// analysed. Which pages the pool holds is not something a scan can
// repeat, so an unordered scan's row order may differ between runs of
// one query; its rows do not.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// Policy selects how the morphing region evolves (Section III-B).
type Policy int

const (
	// Elastic morphs two ways: it doubles in dense regions and halves
	// in sparse ones, exploiting skew as an opportunity. It is the
	// paper's recommended policy and therefore the zero value.
	Elastic Policy = iota
	// Greedy doubles the morphing region after every index probe,
	// converging to a full scan as fast as possible.
	Greedy
	// SelectivityIncrease doubles the region when the local
	// selectivity of the last region reaches the global selectivity,
	// and otherwise keeps the current size (a ratchet).
	SelectivityIncrease
)

func (p Policy) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case SelectivityIncrease:
		return "selectivity-increase"
	case Elastic:
		return "elastic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Trigger selects when morphing starts (Section III-C).
type Trigger int

const (
	// Eager replaces the access path entirely: Smooth Scan behaviour
	// from the very first tuple. The paper's default.
	Eager Trigger = iota
	// OptimizerDriven starts as a classic index scan and morphs once
	// the produced cardinality exceeds the optimizer's estimate.
	OptimizerDriven
	// SLADriven starts as a classic index scan and morphs at the
	// cardinality beyond which, per the Section V cost model, a
	// worst-case (100% selectivity) completion could no longer meet
	// the configured SLA bound.
	SLADriven
)

func (t Trigger) String() string {
	switch t {
	case Eager:
		return "eager"
	case OptimizerDriven:
		return "optimizer-driven"
	case SLADriven:
		return "sla-driven"
	default:
		return fmt.Sprintf("Trigger(%d)", int(t))
	}
}

// Mode identifies the operator's execution mode (Section III-A).
type Mode int

const (
	// ModeIndex (Mode 0) is classic index-scan behaviour before a
	// non-eager trigger fires.
	ModeIndex Mode = iota
	// ModeEntirePage (Mode 1) analyses every record of each heap page
	// it loads.
	ModeEntirePage
	// ModeFlattening (Mode 2+) additionally fetches an expanding
	// region of adjacent pages per probe.
	ModeFlattening
)

func (m Mode) String() string {
	switch m {
	case ModeIndex:
		return "index(0)"
	case ModeEntirePage:
		return "entire-page-probe(1)"
	case ModeFlattening:
		return "flattening(2+)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultMaxRegionPages caps the morphing region at 2K pages (16 MB of
// 8 KB pages) — the value the paper's sensitivity analysis found
// optimal (Section VI-D).
const DefaultMaxRegionPages = 2048

// Config configures a SmoothScan. The zero value is the paper's
// favoured configuration: the Elastic policy with the Eager trigger.
// No option selects the resident-page probe (see the package doc): it
// applies to every unordered scan without residual conjuncts, and
// never to an ordered one.
type Config struct {
	// Policy is the morphing policy; the paper favours Elastic.
	Policy Policy
	// Trigger is the morphing trigger; the paper favours Eager.
	Trigger Trigger
	// Ordered preserves index-key output order using the Result
	// Cache. Leave false when no operator upstream needs the order;
	// extra qualifying tuples are then emitted as soon as found.
	Ordered bool
	// MaxRegionPages caps the morphing region (default 2048).
	MaxRegionPages int64
	// MaxMode caps morphing: ModeEntirePage reproduces the paper's
	// "Entire Page Probe only" sensitivity configuration (Figure 6).
	// Zero value means no cap (ModeFlattening).
	MaxMode Mode
	// EstimatedCard is the optimizer's cardinality estimate, used by
	// the OptimizerDriven trigger.
	EstimatedCard int64
	// SLABound is the operator cost bound (in I/O cost units) for the
	// SLADriven trigger.
	SLABound float64
	// CostParams parameterises the Section V cost model for the
	// SLADriven trigger. Required when Trigger == SLADriven.
	CostParams costmodel.Params
	// ResultCacheBudget bounds the ordered variant's Result Cache
	// resident memory in bytes; beyond it, the partitions furthest
	// from the current key range spill to simulated overflow files
	// (Section IV-A). Zero means unlimited.
	ResultCacheBudget int64
	// Residual holds extra conjunctive predicates pushed into page
	// analysis (heap.DecodeBatchMatching and the Mode 0 probes): tuples
	// failing any of them are examined but never produced, so a
	// multi-predicate plan materialises only its final matches.
	// Residual conjuncts must not reference the indexed column (fold
	// those into Pred instead) and are incompatible with Ordered — the
	// ordered Result Cache's invariants assume every index entry in the
	// key range is eventually produced.
	Residual []tuple.RangePred
}

// Stats exposes the operator's run-time counters, the raw material of
// Figures 6–9. An unordered scan fetches a morphing region at once but
// analyses each of its pages as it delivers the page's rows, so
// mid-scan the page counters settle page by page with the rows: a
// fetched page's tuple charges and PagesWithResults when drain first
// reaches it, the region's policy step (Expansions, Shrinks,
// PeakRegionPages) once its last page is analysed. Close analyses
// whatever of the region was not delivered, so after Close every
// counter and charge is what a scan that delivered the whole region
// would show.
type Stats struct {
	// Produced is the number of result tuples returned.
	Produced int64
	// PagesFetched counts heap pages fetched by the morphing modes,
	// each exactly once, thanks to the Page ID cache; every one is
	// analysed by the time the scan closes. A resident page probed
	// pointer by pointer (see the package doc) is not fetched.
	PagesFetched int64
	// PagesWithResults counts fetched pages that contained at least
	// one qualifying tuple; PagesWithResults/PagesFetched is the
	// morphing accuracy of Figure 9b.
	PagesWithResults int64
	// LeafPointersSkipped counts index entries skipped because their
	// page had already been analysed (the ✕ marks of Figure 3). An
	// unordered scan counts them by leaf once every page is analysed.
	// An entry pointing to a page probed pointer by pointer is probed,
	// not skipped.
	LeafPointersSkipped int64
	// Expansions and Shrinks count morphing-region size changes.
	Expansions int64
	Shrinks    int64
	// PeakRegionPages is the largest morphing region used.
	PeakRegionPages int64
	// TriggeredAt is the produced-cardinality at which morphing began
	// (0 for Eager; -1 if a non-eager trigger never fired).
	TriggeredAt int64
	// CacheHits / CacheInserts / DirectReturns instrument the Result
	// Cache (ordered mode): hit rate = CacheHits / (CacheHits +
	// DirectReturns), Figure 9a.
	CacheHits     int64
	CacheInserts  int64
	DirectReturns int64
	// CachePeakTuples / CachePeakBytes are the Result Cache high-water
	// marks (the "couple of MB" discussion of Section IV-A).
	CachePeakTuples int64
	CachePeakBytes  int64
	// Spill instruments Result Cache overflow-file activity when a
	// ResultCacheBudget is configured.
	Spill SpillStats
	// PageCacheBytes and TupleCacheBytes are the bitmap footprints.
	PageCacheBytes  int64
	TupleCacheBytes int64
}

// MorphingAccuracy returns PagesWithResults/PagesFetched (Figure 9b),
// or 0 when nothing was fetched.
func (s Stats) MorphingAccuracy() float64 {
	if s.PagesFetched == 0 {
		return 0
	}
	return float64(s.PagesWithResults) / float64(s.PagesFetched)
}

// CacheHitRate returns the Result Cache hit rate (Figure 9a).
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.DirectReturns
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// ErrClosed is returned by NextBatch before Open or after Close.
var ErrClosed = errors.New("core: smooth scan is not open")

// SmoothScan is the morphing access-path operator. It produces exactly
// the tuples of its table matching the range predicate on the indexed
// column, each exactly once, in index-key order when Ordered is set.
type SmoothScan struct {
	file *heap.File
	pool *bufferpool.Pool
	tree *btree.Tree
	pred tuple.RangePred
	cfg  Config

	open     bool
	done     bool  // index exhausted or key bound passed; latched
	pages    int64 // heap pages at construction; regions stop here
	mode     Mode
	it       *btree.Iter
	pageSeen *bitmap.Bitmap // Page ID cache
	tupSeen  *bitmap.Bitmap // Tuple ID cache (non-eager triggers only)
	cache    *resultCache   // ordered mode only

	// region is GetRun's scratch, reused across regions. In unordered
	// mode it holds every page of the current region, in page order;
	// drain analyses and delivers them into the caller's batch from
	// region[next], whose cursor is cur, on. Ordered mode keeps nothing
	// there.
	region [][]byte
	next   int
	cur    pageCursor

	regionPages   int64 // current morphing region size
	regionWithRes int64 // pages of the current region analysed with results
	triggerCard   int64 // produced-count threshold for non-eager triggers

	// The resident-page probe (see the package doc): the slots drain has
	// examined and the rows it delivered from them, the pointers probed
	// in Mode 1 and above, and the pages those probes took.
	slotsExamined, rowsFound, probes int64
	probed                           pageSet

	stats counters
}

// counters are the Stats the operator counts as it runs. Stats adds the
// rest, read off the structures they describe: the Result Cache's peaks
// and spills and the bitmaps' footprints.
type counters struct {
	Produced, PagesFetched, PagesWithResults, LeafPointersSkipped int64
	Expansions, Shrinks, PeakRegionPages, TriggeredAt             int64
	CacheHits, CacheInserts, DirectReturns                        int64
}

// pageSet is the set of pages the resident-page probe took. The first
// few are held inline, so a short scan allocates nothing for them; past
// those, a bitmap over the table holds every one.
type pageSet struct {
	n    int
	few  [4]int64
	bits *bitmap.Bitmap // every page once n > len(few)
}

func (p *pageSet) reset() { p.n = 0 }

func (p *pageSet) has(no int64) bool {
	if p.n > len(p.few) {
		return p.bits.Get(no)
	}
	for _, q := range p.few[:p.n] {
		if q == no {
			return true
		}
	}
	return false
}

// add puts page no, not yet in the set, into it; pages bounds the
// page numbers the set may hold.
func (p *pageSet) add(no, pages int64) {
	if p.n < len(p.few) {
		p.few[p.n] = no
		p.n++
		return
	}
	if p.n == len(p.few) {
		if p.bits == nil || p.bits.Len() != pages {
			p.bits = bitmap.New(pages)
		} else {
			p.bits.Reset()
		}
		for _, q := range p.few {
			p.bits.Set(q)
		}
	}
	p.bits.Set(no)
	p.n++
}

// pageCursor locates the region page drain is at: its page number, the
// slot its delivery resumes at and its tuple count, which is negative
// until drain (or Close) analyses the page. The page is the buffer
// GetRun returned, and an Insert writes a new buffer rather than into
// it, so the analysis counts and drain delivers the tuples that were
// fetched, however late the page is analysed.
type pageCursor struct {
	no          int64
	slot, count int32
}

// Validate checks everything about the configuration that does not
// depend on the scanned file: the region cap (zero means the default),
// the policy, the trigger and the inputs the trigger needs, and that
// residual conjuncts are not combined with ordered delivery.
func (c Config) Validate() error {
	if c.MaxRegionPages < 0 {
		return fmt.Errorf("core: MaxRegionPages %d < 1", c.MaxRegionPages)
	}
	if c.Ordered && len(c.Residual) > 0 {
		return fmt.Errorf("core: residual predicates are incompatible with ordered delivery; filter above the scan instead")
	}
	switch c.Policy {
	case Elastic, Greedy, SelectivityIncrease:
	default:
		return fmt.Errorf("core: unknown policy %d", c.Policy)
	}
	switch c.Trigger {
	case Eager:
	case OptimizerDriven:
		if c.EstimatedCard < 0 {
			return fmt.Errorf("core: negative cardinality estimate")
		}
	case SLADriven:
		if err := c.CostParams.Validate(); err != nil {
			return fmt.Errorf("core: SLA trigger: %w", err)
		}
		if c.SLABound <= 0 {
			return fmt.Errorf("core: SLA trigger requires a positive bound")
		}
	default:
		return fmt.Errorf("core: unknown trigger %d", c.Trigger)
	}
	return nil
}

// NewSmoothScan creates a Smooth Scan over file using the secondary
// index tree, which must index pred.Col.
func NewSmoothScan(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, pred tuple.RangePred, cfg Config) (*SmoothScan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRegionPages == 0 {
		cfg.MaxRegionPages = DefaultMaxRegionPages
	}
	if cfg.MaxMode == ModeIndex {
		cfg.MaxMode = ModeFlattening
	}
	return &SmoothScan{file: file, pool: pool, tree: tree, pred: pred, cfg: cfg, pages: file.NumPages()}, nil
}

// Schema returns the table schema.
func (s *SmoothScan) Schema() *tuple.Schema { return s.file.Schema() }

// Stats returns a snapshot of the operator counters.
func (s *SmoothScan) Stats() Stats {
	c := s.stats
	st := Stats{
		Produced: c.Produced, PagesFetched: c.PagesFetched, PagesWithResults: c.PagesWithResults,
		LeafPointersSkipped: c.LeafPointersSkipped, Expansions: c.Expansions, Shrinks: c.Shrinks,
		PeakRegionPages: c.PeakRegionPages, TriggeredAt: c.TriggeredAt,
		CacheHits: c.CacheHits, CacheInserts: c.CacheInserts, DirectReturns: c.DirectReturns,
	}
	if s.pageSeen != nil {
		st.PageCacheBytes = s.pageSeen.MemoryBytes()
	}
	if s.tupSeen != nil {
		st.TupleCacheBytes = s.tupSeen.MemoryBytes()
	}
	if s.cache != nil {
		st.CachePeakTuples = s.cache.peakTuples
		st.CachePeakBytes = s.cache.peakBytes
		st.Spill = s.cache.spill
	}
	return st
}

// CurrentMode returns the operator's current execution mode.
func (s *SmoothScan) CurrentMode() Mode { return s.mode }

// RegionPages returns the current morphing-region size in pages.
func (s *SmoothScan) RegionPages() int64 { return s.regionPages }

// Open positions the scan at the first qualifying index entry.
func (s *SmoothScan) Open() error {
	it, err := s.tree.SeekGE(s.pool, s.pred.Lo)
	if err != nil {
		return fmt.Errorf("smooth scan: %w", err)
	}
	s.it = it
	s.done = false
	s.stats = counters{TriggeredAt: -1}
	s.pageSeen = bitmap.New(s.file.NumPages())
	s.regionPages = 1
	s.region, s.next = s.region[:0], 0
	s.slotsExamined, s.rowsFound, s.probes = 0, 0, 0
	s.probed.reset()

	switch s.cfg.Trigger {
	case Eager:
		s.mode = ModeEntirePage
		s.triggerCard = 0
		s.stats.TriggeredAt = 0
	case OptimizerDriven:
		s.mode = ModeIndex
		s.triggerCard = s.cfg.EstimatedCard
	case SLADriven:
		s.mode = ModeIndex
		s.triggerCard = s.cfg.CostParams.SLATriggerCard(s.cfg.SLABound)
	}
	if s.mode == ModeIndex {
		s.tupSeen = bitmap.New(s.file.NumTuples())
	}
	if s.cfg.Ordered {
		bounds, err := s.tree.RootKeys(s.pool)
		if err != nil {
			return fmt.Errorf("smooth scan: %w", err)
		}
		s.cache = newResultCache(bounds, s.file.Schema().NumCols(), s.pool.Channel(), s.cfg.ResultCacheBudget)
	}
	s.open = true
	return nil
}

// Close releases the scan, dropping any undelivered rest of the
// current region. It first analyses the region's pages drain has not
// reached, so a scan closed mid-region ends with the charges, counters
// and policy state of one that delivered the region to its end.
// Statistics (including Result Cache peaks) remain readable after
// Close.
func (s *SmoothScan) Close() error {
	for ; s.next < len(s.region); s.step() {
		if s.cur.count < 0 {
			page := s.region[s.next]
			s.cur.count = int32(heap.PageTupleCount(page))
			found := false
			for lo := 0; lo < int(s.cur.count) && !found; lo += 64 {
				_, found = s.file.SelectChunk(page, lo, int(s.cur.count), s.pred, s.cfg.Residual, nil)
			}
			s.analysed(found)
		}
	}
	s.open = false
	s.it = nil
	s.region, s.next = s.region[:0], 0
	return nil
}

// NextBatch fills out with the next qualifying tuples. Every row is
// decoded or copied straight into out — an unordered region's from its
// pages, resuming where the previous call stopped — so no path
// allocates a row of its own; Produced counts what out gained.
func (s *SmoothScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	for more := true; more && !out.Full(); {
		before := out.Len()
		if s.next < len(s.region) {
			s.drain(out)
		} else {
			var err error
			if more, err = s.advance(out); err != nil {
				return 0, err
			}
		}
		s.stats.Produced += int64(out.Len() - before)
	}
	return out.Len(), nil
}

// drain delivers the region's pages into out from the resume cursor
// on, until out fills or the region is delivered. A page drain reaches
// for the first time is analysed in the same pass that delivers its
// rows (heap.ProbeBatch), while it is still in cache, and its charges
// and counters settle then (analysed). The slots each pass examines and
// the rows it delivers are the resident-page probe's evidence.
func (s *SmoothScan) drain(out *tuple.Batch) {
	for ; s.next < len(s.region) && !out.Full(); s.step() {
		page := s.region[s.next]
		fresh := s.cur.count < 0
		if fresh {
			s.cur.count = int32(heap.PageTupleCount(page))
		}
		var veto *heap.Veto
		if s.tupSeen != nil {
			veto = &heap.Veto{Seen: s.tupSeen, Base: s.file.TIDBit(heap.TID{Page: s.cur.no})}
		}
		n := out.Len()
		slot, found := s.file.ProbeBatch(page, int(s.cur.slot), int(s.cur.count), s.pred, s.cfg.Residual, veto, out)
		s.slotsExamined += int64(slot) - int64(s.cur.slot)
		s.rowsFound += int64(out.Len() - n)
		if fresh {
			s.analysed(found)
		}
		if slot < int(s.cur.count) {
			s.cur.slot = int32(slot)
			return
		}
	}
}

// analysed settles the Entire Page Probe of the region page at the
// cursor: the Page ID cache, the per-tuple CPU of each of its records,
// the page's result count when found (a tuple qualified, whether or not
// Mode 0 already produced it, as the ordered analysePage counts a page
// with results) and, after the region's last page, the policy's look at
// the whole region.
func (s *SmoothScan) analysed(found bool) {
	s.pageSeen.Set(s.cur.no)
	s.pool.ChargeCPUN(simcost.Tuple, int64(s.cur.count))
	if found {
		s.stats.PagesWithResults++
		s.regionWithRes++
	}
	if s.next == len(s.region)-1 {
		s.updatePolicy(int64(len(s.region)))
	}
}

// step moves the cursor to the region's next page: the first page
// after the current one that the Page ID cache does not hold, since
// the region's pages join it as they are analysed, and that the
// resident-page probe did not take.
func (s *SmoothScan) step() {
	if s.next++; s.next < len(s.region) {
		no := s.cur.no + 1
		for s.pageSeen.Get(no) || s.probed.has(no) {
			no++
		}
		s.cur = pageCursor{no: no, count: -1}
	}
}

// advance runs the morphing loop until it appends a direct row to out
// (Mode 0 probe, ordered direct return or cache hit), fetches an
// unordered region for drain, or exhausts the index (false). out must
// have room for a row; the caller accounts Produced.
func (s *SmoothScan) advance(out *tuple.Batch) (bool, error) {
	if s.done {
		return false, nil
	}
	if !s.cfg.Ordered && s.mode != ModeIndex && s.pageSeen.Count() == s.pageSeen.Len() {
		// Every page is analysed, so each entry left below Hi is a leaf
		// pointer to a seen page (✕ in Fig. 3): count them by leaf.
		n, err := s.it.CountBelow(s.pred.Hi)
		if err != nil {
			return false, fmt.Errorf("smooth scan: %w", err)
		}
		s.stats.LeafPointersSkipped += n
		s.done = true
		return false, nil
	}
	for {
		e, ok, err := s.it.Next()
		if ok && e.Key >= s.pred.Hi {
			ok = false
		}
		if err != nil {
			return false, fmt.Errorf("smooth scan: %w", err)
		}
		if !ok {
			s.done = true
			return false, nil
		}
		// Morphing trigger check (non-eager strategies).
		if s.mode == ModeIndex && s.stats.Produced >= s.triggerCard {
			s.mode = ModeEntirePage
			s.stats.TriggeredAt = s.stats.Produced
		}
		if s.mode == ModeIndex {
			// Mode 0: classic index-scan probe.
			ok, err := s.probe(e.TID, nil, out)
			if err != nil {
				return false, err
			}
			s.tupSeen.Set(s.file.TIDBit(e.TID))
			if !ok {
				continue
			}
			return true, nil
		}

		if s.cfg.Ordered {
			s.cache.dropBelow(e.Key)
		}
		if s.pageSeen.Get(e.TID.Page) {
			// Leaf pointer to an already-analysed page (✕ in Fig. 3).
			s.stats.LeafPointersSkipped++
			if !s.cfg.Ordered {
				continue // tuple was delivered with its region
			}
			if s.tupSeen != nil && s.tupSeen.Get(s.file.TIDBit(e.TID)) {
				continue // produced during Mode 0
			}
			s.pool.ChargeCPU(simcost.Hash)
			row, ok := s.cache.take(e.Key, e.TID)
			if !ok {
				return false, fmt.Errorf("smooth scan: result cache miss for key %d tid %v (invariant violation)", e.Key, e.TID)
			}
			s.stats.CacheHits++
			out.Append(row)
			return true, nil
		}

		if !s.cfg.Ordered {
			// A page the resident-page probe took, or one it takes now, is
			// probed pointer by pointer, through the pool (page nil) if it
			// has been evicted since.
			var page []byte
			probed := s.probed.has(e.TID.Page)
			if !probed {
				if page = s.residentPage(e.TID.Page); page != nil {
					s.probed.add(e.TID.Page, s.pageSeen.Len())
					probed = true
				}
			}
			if probed {
				s.probes++
				ok, err := s.probe(e.TID, page, out)
				if err != nil {
					return false, err
				}
				if !ok {
					continue
				}
				return true, nil
			}
		}

		// Unseen page: fetch a whole morphing region around it.
		if err := s.processRegion(e, out); err != nil {
			return false, err
		}
		if s.cfg.Ordered {
			s.stats.DirectReturns++
		}
		return true, nil
	}
}

// residentPage decides how an unordered scan meets an unseen page in
// Mode 1 or above (see the package doc). It returns the page, for
// advance to probe pointer by pointer, when the scan has no residual
// conjuncts, the slots drain has examined hold fewer than one delivered
// row in costmodel.ResidentProbeSlots (none before the first page is
// analysed), the pointers probed so far do not outnumber those slots,
// and the pool holds the page. Otherwise it returns nil, and the page
// is fetched and analysed. The pool is asked last, so a dense scan pays
// only the arithmetic.
func (s *SmoothScan) residentPage(no int64) []byte {
	if len(s.cfg.Residual) > 0 || s.rowsFound*costmodel.ResidentProbeSlots >= s.slotsExamined || s.probes >= s.slotsExamined {
		return nil
	}
	return s.pool.GetResident(s.file.Space(), no)
}

// probe is the classic index-scan probe, of Mode 0 and of a page the
// resident-page probe took: it decodes tid's tuple into out, from page
// when the caller holds it and through the pool otherwise, charges its
// CPU, and reports whether it passes every residual conjunct, taking it
// back out of out when it does not.
func (s *SmoothScan) probe(tid heap.TID, page []byte, out *tuple.Batch) (bool, error) {
	var err error
	if page == nil {
		if page, err = s.file.GetPage(s.pool, tid.Page); err != nil {
			return false, fmt.Errorf("smooth scan: %w", err)
		}
	}
	row, err := s.file.DecodeRowIn(page, tid, out.AppendSlotRaw())
	if err != nil {
		return false, fmt.Errorf("smooth scan: %w", err)
	}
	s.pool.ChargeCPU(simcost.Tuple)
	if !tuple.MatchesAll(s.cfg.Residual, row) {
		out.Truncate(out.Len() - 1)
		return false, nil
	}
	return true, nil
}

// processRegion fetches the morphing region starting at the probed
// entry's page: the maximal runs of pages the Page ID cache does not
// hold and the resident-page probe did not take. In ordered mode it
// analyses every page at once, adding it to the Page ID cache, parking
// qualifying tuples and appending the probed tuple to out, and lets the
// policy adjust the region size. In unordered mode it records the
// pages, not yet analysed, for drain, which settles each as it delivers
// it.
func (s *SmoothScan) processRegion(probe btree.Entry, out *tuple.Batch) error {
	start := probe.TID.Page
	end := min(start+s.regionPages, s.pages)

	direct := false
	s.region, s.next, s.regionWithRes = s.region[:0], 0, 0
	s.cur = pageCursor{no: start, count: -1}
	regionSeen := int64(0)

	// Fetch maximal unseen sub-runs of [start, end).
	for p := start; p < end; {
		if s.pageSeen.Get(p) || s.probed.has(p) {
			p++
			continue
		}
		runEnd := p + 1
		for runEnd < end && !s.pageSeen.Get(runEnd) && !s.probed.has(runEnd) {
			runEnd++
		}
		// GetRun writes the run behind the pages recorded so far.
		s.growRegion(int(runEnd - p))
		pages, err := s.file.GetRun(s.pool, p, runEnd-p, s.region[len(s.region):cap(s.region)])
		if err != nil {
			return fmt.Errorf("smooth scan: %w", err)
		}
		s.stats.PagesFetched += int64(len(pages))
		regionSeen += int64(len(pages))
		if !s.cfg.Ordered {
			s.region = s.region[:len(s.region)+len(pages)]
		} else {
			for i, page := range pages {
				pageNo := p + int64(i)
				s.pageSeen.Set(pageNo)
				if s.analysePage(page, pageNo, probe, out, &direct) {
					s.stats.PagesWithResults++
					s.regionWithRes++
				}
			}
		}
		p = runEnd
	}

	if s.cfg.Ordered {
		s.updatePolicy(regionSeen)
		if !direct {
			return fmt.Errorf("smooth scan: probed tuple %v not found on page %d (invariant violation)", probe.TID, probe.TID.Page)
		}
	}
	return nil
}

// growRegion makes room in region for n more pages, doubling the
// capacity when it must grow.
func (s *SmoothScan) growRegion(n int) {
	if cap(s.region)-len(s.region) >= n {
		return
	}
	c := max(2*cap(s.region), len(s.region)+n)
	s.region = append(make([][]byte, 0, c), s.region...)
}

// analysePage is ordered mode's Entire Page Probe: it walks every
// qualifying record of the page, 64 slots at a time, appending the
// probed tuple to out (setting *direct) and parking the others in the
// Result Cache; the Tuple ID veto skips those Mode 0 already produced.
// It reports whether any qualified, whether or not Mode 0 already
// produced it, and charges the per-tuple CPU of every record once, up
// front. Ordered scans carry no residual conjuncts (Config.Validate).
func (s *SmoothScan) analysePage(page []byte, pageNo int64, probe btree.Entry, out *tuple.Batch, direct *bool) bool {
	count := heap.PageTupleCount(page)
	s.pool.ChargeCPUN(simcost.Tuple, int64(count))
	var veto *heap.Veto
	if s.tupSeen != nil {
		veto = &heap.Veto{Seen: s.tupSeen, Base: s.file.TIDBit(heap.TID{Page: pageNo})}
	}
	found := false
	for lo := 0; lo < count; lo += 64 {
		m, any := s.file.SelectChunk(page, lo, count, s.pred, nil, veto)
		found = found || any
		for ; m != 0; m &= m - 1 {
			slot := lo + bits.TrailingZeros64(m)
			tid := heap.TID{Page: pageNo, Slot: int32(slot)}
			if tid == probe.TID {
				s.file.DecodeRow(page, slot, out.AppendSlotRaw())
				*direct = true
				continue
			}
			s.pool.ChargeCPU(simcost.Hash)
			row := s.file.DecodeRow(page, slot, nil)
			s.cache.insert(row.Int(s.pred.Col), tid, row)
			s.stats.CacheInserts++
		}
	}
	return found
}

// updatePolicy adjusts the morphing region once every page of a region
// of regionSeen pages is analysed, comparing the region's page-level
// result density (Eq. 1) against the global density over all
// previously seen pages (Eq. 2): the pages fetched, and those with
// results, before this region.
// Ties count as "dense": a region exactly as dense as the global
// average is evidence the data keeps qualifying, so the scan keeps
// flattening — this is what lets Smooth Scan converge to sequential
// behaviour at 100% selectivity (Figures 5 and 6).
func (s *SmoothScan) updatePolicy(regionSeen int64) {
	regionWithRes := s.regionWithRes
	globalSeen := s.stats.PagesFetched - regionSeen
	globalWithRes := s.stats.PagesWithResults - regionWithRes
	defer func() {
		if s.regionPages > s.stats.PeakRegionPages {
			s.stats.PeakRegionPages = s.regionPages
		}
	}()
	if s.cfg.MaxMode == ModeEntirePage {
		s.regionPages = 1
		return
	}
	grow := func() {
		if s.regionPages < s.cfg.MaxRegionPages {
			s.regionPages = min(s.regionPages*2, s.cfg.MaxRegionPages)
			s.stats.Expansions++
			s.mode = ModeFlattening
		}
	}
	shrink := func() {
		if s.regionPages > 1 {
			s.regionPages /= 2
			s.stats.Shrinks++
		}
	}
	// local >= global  ⇔  regionWithRes/regionSeen >= globalWithRes/globalSeen,
	// compared without division. Before any page was seen, any result
	// counts as an increase.
	denser := regionWithRes*max(globalSeen, 1) >= globalWithRes*regionSeen
	if globalSeen == 0 {
		denser = regionWithRes > 0
	}
	switch s.cfg.Policy {
	case Greedy:
		grow()
	case SelectivityIncrease:
		if denser {
			grow()
		}
	case Elastic:
		if denser {
			grow()
		} else {
			shrink()
		}
	}
}
