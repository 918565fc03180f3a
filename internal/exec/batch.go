package exec

import (
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// DefaultBatchSize is the row capacity of the batches the executor's
// drain helpers allocate: large enough to amortise per-batch overhead
// across many pages of tuples, small enough to stay cache-resident
// (1024 rows × 10 columns × 8 B = 80 KB).
const DefaultBatchSize = 1024

// Invariance under batch capacity: the capacity of the batch a consumer
// passes changes neither the I/O request schedule nor the per-tuple CPU
// charge counts of any operator. Within one operator the charge
// *sequence* is also preserved (see disk.Channel.ChargeCPUN), so pure scan
// pipelines — the paper-figure experiments — produce bit-identical
// simulated costs at every capacity, one row included. Across operator
// boundaries a wider batch groups charges (a Filter charges its whole
// input batch before the consumer charges any of it), so a pipeline
// mixing different cost constants (e.g. HashAgg's Aggregate over
// Filter's Tuple) accumulates the same terms in a different order;
// CPUTime then agrees only to floating-point reassociation (ULPs),
// which is invisible at any reported precision.

// NextBatch is op.NextBatch(b); the free-function form is what the
// frozen bench/ module calls.
func NextBatch(op Operator, b *tuple.Batch) (int, error) { return op.NextBatch(b) }

// newScratchFor returns a scratch batch sized for op's schema.
func newScratchFor(op Operator) *tuple.Batch {
	return tuple.NewBatchFor(op.Schema(), DefaultBatchSize)
}

// NextBatch fills out with the next block of in-memory rows.
func (v *Values) NextBatch(out *tuple.Batch) (int, error) {
	if !v.open {
		return 0, ErrClosed
	}
	out.Reset()
	for v.pos < len(v.rows) && out.Append(v.rows[v.pos]) {
		v.pos++
	}
	return out.Len(), nil
}

// NextBatch fills out with the next rows matching the predicate. The
// child's batch is filtered by in-place compaction, so a dense filter
// moves almost no data.
func (f *Filter) NextBatch(out *tuple.Batch) (int, error) {
	if !f.open {
		return 0, ErrClosed
	}
	for {
		n, err := f.child.NextBatch(out)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		if f.ch != nil {
			f.ch.ChargeCPUN(simcost.Tuple, int64(n))
		}
		out.Filter(f.pred)
		if out.Len() > 0 {
			return out.Len(), nil
		}
	}
}

// NextBatch fills out with the next block of projected rows.
func (p *Project) NextBatch(out *tuple.Batch) (int, error) {
	if !p.open {
		return 0, ErrClosed
	}
	if p.scratch == nil {
		p.scratch = newScratchFor(p.child)
	}
	// Pull no more child rows than out can take, so no projected row is
	// ever dropped on the floor.
	p.scratch.SetFillLimit(out.FillCap())
	n, err := p.child.NextBatch(p.scratch)
	if err != nil {
		return 0, err
	}
	out.Reset()
	for i := 0; i < n; i++ {
		out.Append(p.fn(p.scratch.Row(i)))
	}
	return out.Len(), nil
}

// NextBatch fills out with the next block of column-projected rows,
// copying the selected columns batch-to-batch with no per-row
// allocation.
func (p *ColProject) NextBatch(out *tuple.Batch) (int, error) {
	if !p.open {
		return 0, ErrClosed
	}
	if p.scratch == nil {
		p.scratch = newScratchFor(p.child)
	}
	// Pull no more child rows than out can take, so no projected row is
	// ever dropped on the floor.
	p.scratch.SetFillLimit(out.FillCap())
	n, err := p.child.NextBatch(p.scratch)
	if err != nil {
		return 0, err
	}
	out.Reset()
	for i := 0; i < n; i++ {
		row := p.scratch.Row(i)
		slot := out.AppendSlotRaw()
		for j, c := range p.cols {
			slot[j] = row[c]
		}
	}
	return out.Len(), nil
}

// NextBatch fills out with the next rows while under the limit. The
// batch's fill limit stops the child from producing (and paying for)
// rows beyond the limit.
func (l *Limit) NextBatch(out *tuple.Batch) (int, error) {
	if !l.open {
		return 0, ErrClosed
	}
	remaining := l.n - l.seen
	if remaining <= 0 {
		out.Reset()
		return 0, nil
	}
	if fc := out.FillCap(); fc == 0 || remaining < int64(fc) {
		prev := out.FillLimit()
		out.SetFillLimit(int(remaining))
		defer out.SetFillLimit(prev)
	}
	n, err := l.child.NextBatch(out)
	if err != nil {
		return 0, err
	}
	l.seen += int64(n)
	return n, nil
}

// NextBatch streams the sorted rows in blocks.
func (s *SortOp) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	for s.pos < len(s.rows) && out.Append(s.rows[s.pos]) {
		s.pos++
	}
	return out.Len(), nil
}

// NextBatch streams the per-group aggregate results in blocks.
func (h *HashAgg) NextBatch(out *tuple.Batch) (int, error) {
	if !h.open {
		return 0, ErrClosed
	}
	out.Reset()
	for h.pos < len(h.out) && out.Append(h.out[h.pos]) {
		h.pos++
	}
	return out.Len(), nil
}
