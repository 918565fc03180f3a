package exec

import (
	"sync"

	"smoothscan/internal/tuple"
)

// maxPooledWidth is the widest row the batch pool keeps. Scans and
// projections are far narrower; a wider join output allocates fresh.
const maxPooledWidth = 32

// batchPools recycles DefaultBatchSize-row batches, one sync.Pool per
// row width, across queries: a Rows' drain batch, a parallel
// exchange's batches and a sharded broadcast's drain batch all come
// from here, so a query's fixed cost does not include fresh 1024-row
// buffers.
var batchPools [maxPooledWidth + 1]sync.Pool

// GetBatch returns an empty DefaultBatchSize-row batch for rows of s:
// a recycled one when the pool holds one of that width, a fresh one
// otherwise. A recycled batch carries no fill limit.
func GetBatch(s *tuple.Schema) *tuple.Batch {
	if w := s.NumCols(); w <= maxPooledWidth {
		if b, _ := batchPools[w].Get().(*tuple.Batch); b != nil {
			b.Reset()
			b.SetFillLimit(0)
			return b
		}
	}
	return tuple.NewBatchFor(s, DefaultBatchSize)
}

// PutBatch hands b back to the pool and reports whether the pool kept
// it. The caller gives up b and every row view into it. Only a
// DefaultBatchSize-row batch whose backing array is exactly that size
// is kept: a TrySwap may have left b a caller's smaller, larger or
// growable array, and pooling a grown array would pin it.
func PutBatch(b *tuple.Batch) bool {
	w := b.Width()
	if w > maxPooledWidth || b.Cap() != DefaultBatchSize || !b.ExactArray() {
		return false
	}
	batchPools[w].Put(b)
	return true
}
