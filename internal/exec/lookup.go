package exec

import (
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// IndexLookup is the classic parameterised inner input of an INLJ: one
// index probe per key, one (potentially random) heap access per match.
type IndexLookup struct {
	file *heap.File
	pool *bufferpool.Pool
	tree *btree.Tree
}

// NewIndexLookup creates a per-key index look-up on the column tree
// indexes.
func NewIndexLookup(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree) *IndexLookup {
	return &IndexLookup{file: file, pool: pool, tree: tree}
}

// Schema returns the table schema.
func (l *IndexLookup) Schema() *tuple.Schema { return l.file.Schema() }

// Find returns all rows with the given key, fetching each by TID.
func (l *IndexLookup) Find(key int64) ([]tuple.Row, error) {
	it, err := l.tree.SeekGE(l.pool, key)
	if err != nil {
		return nil, err
	}
	var out []tuple.Row
	for {
		e, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok || e.Key != key {
			return out, nil
		}
		row, err := l.file.RowAt(l.pool, e.TID)
		if err != nil {
			return nil, err
		}
		l.pool.Device().ChargeCPU(simcost.Tuple)
		out = append(out, row)
	}
}
