package exec

import (
	"smoothscan/internal/bitmap"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// This file implements the join-level morphing Section IV-B sketches
// as the natural extension of Smooth Scan's philosophy — MorphingLookup:
// "by performing caching of additional (qualifying) tuples from the
// inner input found along the way (i.e., for each page we fetch, we
// put the remaining tuples in the cache), INLJ morphs into a variant
// of Hash Join (HJ) over time, with the index used only when a tuple
// is not found in the cache."
//
// The paper leaves it as future work and does not use it in its
// evaluation; it is provided (and tested) as a documented extension.

// MorphingLookup is an INLJ inner input that morphs toward a hash
// join: every heap page it fetches is analysed completely and all its
// tuples enter an in-memory hash table on the join column. A probe
// first consults the hash table; the index (and heap) is touched only
// for keys whose TIDs lie on pages not yet seen. Under repeated
// probing the lookup converges to pure hash-join behaviour with zero
// I/O per probe.
type MorphingLookup struct {
	file    *heap.File
	pool    *bufferpool.Pool
	tree    *btree.Tree
	joinCol int

	pageSeen *bitmap.Bitmap
	cache    map[int64][]tuple.Row

	// Instrumentation.
	probes     int64
	hashHits   int64
	pagesRead  int64
	cacheBytes int64
}

// NewMorphingLookup creates the morphing inner. joinCol is the column
// the tree indexes (and the join equi-column).
func NewMorphingLookup(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, joinCol int) *MorphingLookup {
	return &MorphingLookup{
		file:     file,
		pool:     pool,
		tree:     tree,
		joinCol:  joinCol,
		pageSeen: bitmap.New(file.NumPages()),
		cache:    make(map[int64][]tuple.Row),
	}
}

// Schema returns the table schema.
func (l *MorphingLookup) Schema() *tuple.Schema { return l.file.Schema() }

// MorphingLookupStats reports how far the operator has morphed toward
// a hash join.
type MorphingLookupStats struct {
	// Probes is the number of Find calls.
	Probes int64
	// HashHits counts probes served without any index or heap access.
	HashHits int64
	// PagesRead counts heap pages fetched (each at most once).
	PagesRead int64
	// CachedBytes estimates the hash-table memory.
	CachedBytes int64
	// PageCoverage is the fraction of heap pages analysed so far.
	PageCoverage float64
}

// Stats returns a snapshot.
func (l *MorphingLookup) Stats() MorphingLookupStats {
	cov := 0.0
	if l.file.NumPages() > 0 {
		cov = float64(l.pageSeen.Count()) / float64(l.file.NumPages())
	}
	return MorphingLookupStats{
		Probes:       l.probes,
		HashHits:     l.hashHits,
		PagesRead:    l.pagesRead,
		CachedBytes:  l.cacheBytes,
		PageCoverage: cov,
	}
}

// Find returns all rows whose join column equals key.
//
// Correctness: a key's rows are served from the hash table alone only
// when every TID the index lists for the key lies on an analysed page
// — in that case each of those rows was inserted when its page was
// analysed. The index walk that establishes this is cheap (internal
// nodes and leaves are hot in the buffer pool); the savings are the
// random heap accesses.
func (l *MorphingLookup) Find(key int64) ([]tuple.Row, error) {
	l.probes++
	dev := l.pool.Device()
	it, err := l.tree.SeekGE(l.pool, key)
	if err != nil {
		return nil, err
	}
	var tids []heap.TID
	allSeen := true
	for {
		e, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok || e.Key != key {
			break
		}
		tids = append(tids, e.TID)
		if !l.pageSeen.Get(e.TID.Page) {
			allSeen = false
		}
	}
	if len(tids) == 0 {
		return nil, nil
	}
	dev.ChargeCPU(simcost.Hash)
	if allSeen {
		l.hashHits++
		return l.cache[key], nil
	}
	// Analyse every unseen page holding a TID for this key; all their
	// tuples — whatever their key — enter the cache (the hash-join
	// morph).
	for _, tid := range tids {
		if l.pageSeen.Get(tid.Page) {
			continue
		}
		page, err := l.file.GetPage(l.pool, tid.Page)
		if err != nil {
			return nil, err
		}
		l.pageSeen.Set(tid.Page)
		l.pagesRead++
		count := heap.PageTupleCount(page)
		for s := 0; s < count; s++ {
			row := l.file.DecodeRow(page, s, nil)
			dev.ChargeCPU(simcost.Tuple + simcost.Hash)
			k := row.Int(l.joinCol)
			l.cache[k] = append(l.cache[k], row)
			l.cacheBytes += int64(len(row) * 8)
		}
	}
	return l.cache[key], nil
}
