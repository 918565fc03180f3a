package exec

import (
	"fmt"

	"smoothscan/internal/tuple"
)

// Lookup is a parameterised inner input for index-nested-loop joins:
// given a join key, it returns the matching rows. Implementations
// decide the access strategy (plain index look-up, or the per-key
// morphing Smooth Scan variant of Section IV-B).
type Lookup interface {
	// Schema describes the rows Find returns.
	Schema() *tuple.Schema
	// Find returns all rows whose join column equals key.
	Find(key int64) ([]tuple.Row, error)
}

// IndexNestedLoopJoin probes a Lookup for each outer row — the INLJ of
// the paper's TPC-H plans, where the inner is a primary-key look-up or
// a per-key Smooth Scan.
//
// It fills the caller's batch like any operator, but pulls its outer
// through a persistent one-row batch: the one place the per-tuple
// discipline survives. In the paper's plans the outer scan's I/O must
// interleave with the inner look-ups row by row; a wider pull would run
// the outer scan ahead of the look-ups, reorder requests on the shared
// disk.Channel head (changing which are sequential) and move the
// simulated-cost goldens. The capacity-one pull propagates down through
// Filter, Project and a nested IndexNestedLoopJoin unchanged.
type IndexNestedLoopJoin struct {
	outer    Operator
	inner    Lookup
	outerCol int
	schema   *tuple.Schema
	lw       int

	cur     *tuple.Batch // the one-row outer batch; Row(0) is the current outer row
	matches []tuple.Row  // inner matches of the current outer row
	mi      int
	open    bool
}

// NewIndexNestedLoopJoin joins outer.outerCol = inner key.
func NewIndexNestedLoopJoin(outer Operator, inner Lookup, outerCol int) *IndexNestedLoopJoin {
	return &IndexNestedLoopJoin{
		outer: outer, inner: inner, outerCol: outerCol,
		schema: outer.Schema().Concat(inner.Schema()),
		lw:     outer.Schema().NumCols(),
		cur:    tuple.NewBatchFor(outer.Schema(), 1),
	}
}

// Schema returns the concatenated schema.
func (j *IndexNestedLoopJoin) Schema() *tuple.Schema { return j.schema }

// Open opens the outer input.
func (j *IndexNestedLoopJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	j.matches, j.mi = nil, 0
	j.open = true
	return nil
}

// NextBatch fills out with joined rows until it is full or the outer
// input ends. An outer row with more matches than out has room for
// resumes on the next call.
func (j *IndexNestedLoopJoin) NextBatch(out *tuple.Batch) (int, error) {
	if !j.open {
		return 0, ErrClosed
	}
	out.Reset()
	for {
		for j.mi < len(j.matches) {
			slot := out.AppendSlotRaw()
			if slot == nil {
				return out.Len(), nil
			}
			copy(slot[:j.lw], j.cur.Row(0))
			copy(slot[j.lw:], j.matches[j.mi])
			j.mi++
		}
		if out.Full() {
			return out.Len(), nil
		}
		n, err := j.outer.NextBatch(j.cur)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return out.Len(), nil
		}
		j.matches, err = j.inner.Find(j.cur.Row(0).Int(j.outerCol))
		if err != nil {
			return 0, fmt.Errorf("inlj: %w", err)
		}
		j.mi = 0
	}
}

// Close closes the outer input.
func (j *IndexNestedLoopJoin) Close() error {
	j.open = false
	j.matches = nil
	return j.outer.Close()
}
