package tuple

import "sort"

// Batch is a block of fixed-width rows stored back to back in one flat
// []uint64, the unit of the engine's vectorized execution path. A batch
// created with NewBatch has a fixed row capacity and never reallocates:
// producers decode rows directly into slots returned by AppendSlot, so
// moving a tuple through the pipeline costs no allocation. A batch
// created with NewGrowableBatch instead grows amortised without bound;
// the engine uses that form for operators that must hold a whole input
// before producing (Sort Scan's result buffer, the hash join's build
// arena, the merge join's duplicate-key group).
//
// Rows obtained from Row and AppendSlot are views into the backing
// slice: they are valid until the next Reset (or, for growable batches,
// the next growth-triggering append). Callers that retain rows beyond
// that must copy them (Row.Clone).
type Batch struct {
	width   int
	maxRows int // 0 = growable without bound
	maxFill int // 0 = no soft cap; else Full() at maxFill rows
	n       int
	data    []uint64
}

// NewBatch creates a fixed-capacity batch of capacity rows of width
// columns. The backing array is allocated once, up front.
//
// The panics below (and in NewGrowableBatch, AppendRows, Append and
// Truncate) guard engine invariants, not user input: widths come from
// schemas NewSchema already validated as non-empty, and capacities are
// compile-time constants (exec.DefaultBatchSize) — no public API call
// can reach them with bad values. Faults from user input or the device
// surface as typed errors instead.
func NewBatch(width, capacity int) *Batch {
	if width < 1 {
		panic("tuple: batch width < 1")
	}
	if capacity < 1 {
		panic("tuple: batch capacity < 1")
	}
	return &Batch{width: width, maxRows: capacity, data: make([]uint64, 0, width*capacity)}
}

// NewBatchFor is NewBatch for rows of the given schema.
func NewBatchFor(s *Schema, capacity int) *Batch { return NewBatch(s.NumCols(), capacity) }

// NewGrowableBatch creates an unbounded batch of the given width. It
// grows amortised on append and keeps its backing array across Resets.
func NewGrowableBatch(width int) *Batch {
	if width < 1 {
		panic("tuple: batch width < 1")
	}
	return &Batch{width: width}
}

// Width returns the number of columns per row.
func (b *Batch) Width() int { return b.width }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the fixed row capacity, or 0 for a growable batch.
func (b *Batch) Cap() int { return b.maxRows }

// Full reports whether another row can be appended. Growable batches
// are never full unless a fill limit is set.
func (b *Batch) Full() bool {
	if b.maxFill > 0 && b.n >= b.maxFill {
		return true
	}
	return b.maxRows > 0 && b.n >= b.maxRows
}

// SetFillLimit caps the batch at n rows for subsequent fills — Full
// reports true and AppendSlot refuses once Len reaches n — without
// shrinking the allocation. Zero removes the limit. The limit survives
// Reset; operators such as Limit use it to stop a producer from
// overrunning the rows still wanted.
func (b *Batch) SetFillLimit(n int) {
	if n < 0 {
		n = 0
	}
	if b.maxRows > 0 && n > b.maxRows {
		n = b.maxRows
	}
	b.maxFill = n
}

// FillLimit returns the current fill limit, 0 when none is set.
// Operators that tighten the limit temporarily (e.g. Limit) save it
// and restore it when done.
func (b *Batch) FillLimit() int { return b.maxFill }

// FillCap returns the effective row capacity of the current fill: the
// smaller of the fixed capacity and the fill limit, or 0 when the
// batch is unbounded.
func (b *Batch) FillCap() int {
	if b.maxFill > 0 && (b.maxRows == 0 || b.maxFill < b.maxRows) {
		return b.maxFill
	}
	return b.maxRows
}

// Reset empties the batch, keeping the backing array for reuse.
func (b *Batch) Reset() {
	b.n = 0
	b.data = b.data[:0]
}

// Row returns the i-th row as a view into the batch.
func (b *Batch) Row(i int) Row {
	return Row(b.data[i*b.width : (i+1)*b.width : (i+1)*b.width])
}

// AppendSlot appends one zeroed row and returns it for the caller to
// fill in place. It returns nil when the batch is full.
func (b *Batch) AppendSlot() Row {
	row := b.AppendSlotRaw()
	for i := range row {
		row[i] = 0
	}
	return row
}

// AppendSlotRaw is AppendSlot without the zeroing: the returned row's
// contents are undefined and the caller must overwrite every column.
// Decoders that fill whole rows (heap.DecodeBatch and friends) use it
// to skip a pointless clear on the hot path.
func (b *Batch) AppendSlotRaw() Row {
	if b.Full() {
		return nil
	}
	return Row(b.extend(1))
}

// AppendRowsRaw appends up to n rows, as many as the fill capacity
// leaves room for, and returns their values for the caller to
// overwrite: contents undefined, width values per row, so the rows
// appended are len/Width. The heap's page reader copies a run of
// qualifying slots into it with one copy.
func (b *Batch) AppendRowsRaw(n int) []uint64 {
	return b.extend(b.room(n))
}

// AppendRows copies rows [from, from+n) of src into b as one flat
// copy, stopping early when b fills; it returns the number of rows
// copied. The widths must match.
func (b *Batch) AppendRows(src *Batch, from, n int) int {
	if src.width != b.width {
		panic("tuple: batch width mismatch")
	}
	n = b.room(n)
	copy(b.extend(n), src.data[from*src.width:(from+n)*src.width])
	return n
}

// AppendInts appends whole rows from vals, row-major values of b's
// width (how a wire Batch frame decodes), stopping early when b fills;
// it returns the number of rows appended.
func (b *Batch) AppendInts(vals []int64) int {
	n := b.room(len(vals) / b.width)
	copy(Row(b.extend(n)).Ints(), vals)
	return n
}

// room caps n at the rows b can still take under its fill capacity;
// never negative.
func (b *Batch) room(n int) int {
	if max := b.FillCap(); max > 0 && n > max-b.n {
		n = max - b.n
	}
	return max(n, 0)
}

// extend grows b by n rows and returns their values, contents
// undefined, for the caller to overwrite.
func (b *Batch) extend(n int) []uint64 {
	old := b.n * b.width
	need := old + n*b.width
	if cap(b.data) < need {
		grown := make([]uint64, need, 2*need)
		copy(grown, b.data)
		b.data = grown
	} else {
		b.data = b.data[:need]
	}
	b.n += n
	return b.data[old:need:need]
}

// Append copies the row into the batch; it reports false (and appends
// nothing) when the batch is full. It panics if the row width does not
// match, like AppendRows.
func (b *Batch) Append(r Row) bool {
	if len(r) != b.width {
		panic("tuple: batch row width mismatch")
	}
	slot := b.AppendSlot()
	if slot == nil {
		return false
	}
	copy(slot, r)
	return true
}

// TrySwap moves o's rows into b (and b's backing array into o) by
// exchanging the flat arrays — an O(1) alternative to AppendRows for
// exchange pipelines handing full batches across goroutines. It
// requires equal widths and succeeds only when b is empty and can hold
// o's rows within its capacity and fill limit; it reports whether the
// swap happened (callers fall back to copying when it did not).
func (b *Batch) TrySwap(o *Batch) bool {
	if b.width != o.width || b.n != 0 {
		return false
	}
	if fc := b.FillCap(); fc > 0 && o.n > fc {
		return false
	}
	b.data, o.data = o.data, b.data[:0]
	b.n, o.n = o.n, 0
	return true
}

// ExactArray reports whether b is a fixed-capacity batch whose backing
// array holds exactly Cap rows, as NewBatch allocated it. A TrySwap can
// leave b a smaller, larger or growable batch's array instead, and an
// append beyond a smaller one grows it; batch pools keep only exact
// ones, so they never pin an oversized array.
func (b *Batch) ExactArray() bool {
	return b.maxRows > 0 && cap(b.data) == b.width*b.maxRows
}

// Truncate drops rows beyond the first n. It panics if n exceeds Len.
func (b *Batch) Truncate(n int) {
	if n > b.n {
		panic("tuple: batch truncate beyond length")
	}
	b.n = n
	b.data = b.data[:n*b.width]
}

// Filter compacts the batch in place, keeping only rows for which keep
// returns true, preserving order.
func (b *Batch) Filter(keep func(Row) bool) {
	out := 0
	for i := 0; i < b.n; i++ {
		row := b.Row(i)
		if !keep(row) {
			continue
		}
		if out != i {
			copy(b.Row(out), row)
		}
		out++
	}
	b.Truncate(out)
}

// batchByCol implements a stable in-place sort of a batch by an integer
// column, swapping row contents through a scratch row.
type batchByCol struct {
	b   *Batch
	col int
	tmp Row
}

func (s batchByCol) Len() int           { return s.b.n }
func (s batchByCol) Less(i, j int) bool { return s.b.Row(i).Int(s.col) < s.b.Row(j).Int(s.col) }
func (s batchByCol) Swap(i, j int) {
	ri, rj := s.b.Row(i), s.b.Row(j)
	copy(s.tmp, ri)
	copy(ri, rj)
	copy(rj, s.tmp)
}

// SortByIntCol stably sorts the batch's rows in place by the integer
// column col, ascending. Stability makes the result identical to a
// sort.SliceStable over materialised rows.
func (b *Batch) SortByIntCol(col int) {
	sort.Stable(batchByCol{b: b, col: col, tmp: make(Row, b.width)})
}
