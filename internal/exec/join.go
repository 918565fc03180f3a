package exec

import (
	"fmt"

	"smoothscan/internal/disk"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// HashJoin is an equi-join: it builds a hash table on the right
// (build) input and probes it with the left (probe) input. Blocking on
// the build side, pipelined on the probe side.
type HashJoin struct {
	left, right       Operator
	leftCol, rightCol int
	dev               *disk.Device
	schema            *tuple.Schema
	table             map[int64][]tuple.Row
	pending           []tuple.Row
	pendingLeft       tuple.Row
	pendingIdx        int
	open              bool
}

// NewHashJoin joins left.leftCol = right.rightCol.
func NewHashJoin(left, right Operator, dev *disk.Device, leftCol, rightCol int) *HashJoin {
	return &HashJoin{
		left: left, right: right,
		leftCol: leftCol, rightCol: rightCol,
		dev:    dev,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *tuple.Schema { return j.schema }

// Open builds the hash table from the right input.
func (j *HashJoin) Open() error {
	rows, err := Drain(j.right)
	if err != nil {
		return err
	}
	j.table = make(map[int64][]tuple.Row, len(rows))
	for _, r := range rows {
		if j.dev != nil {
			j.dev.ChargeCPU(simcost.Hash)
		}
		k := r.Int(j.rightCol)
		j.table[k] = append(j.table[k], r)
	}
	if err := j.left.Open(); err != nil {
		return err
	}
	j.pending = nil
	j.open = true
	return nil
}

// Next returns the next joined row.
func (j *HashJoin) Next() (tuple.Row, bool, error) {
	if !j.open {
		return nil, false, ErrClosed
	}
	for {
		if j.pendingIdx < len(j.pending) {
			r := j.pendingLeft.Concat(j.pending[j.pendingIdx])
			j.pendingIdx++
			return r, true, nil
		}
		row, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if j.dev != nil {
			j.dev.ChargeCPU(simcost.Hash)
		}
		j.pending = j.table[row.Int(j.leftCol)]
		j.pendingLeft = row
		j.pendingIdx = 0
	}
}

// Close closes both inputs and drops the table.
func (j *HashJoin) Close() error {
	j.open = false
	j.table = nil
	j.pending = nil
	return j.left.Close()
}

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
type IndexNestedLoopJoin struct {
	outer    Operator
	inner    Lookup
	outerCol int
	dev      *disk.Device
	schema   *tuple.Schema

	pending    []tuple.Row
	pendingRow tuple.Row
	pendingIdx int
	open       bool
}

// NewIndexNestedLoopJoin joins outer.outerCol = inner key.
func NewIndexNestedLoopJoin(outer Operator, inner Lookup, dev *disk.Device, outerCol int) *IndexNestedLoopJoin {
	return &IndexNestedLoopJoin{
		outer: outer, inner: inner, outerCol: outerCol, dev: dev,
		schema: outer.Schema().Concat(inner.Schema()),
	}
}

// Schema returns the concatenated schema.
func (j *IndexNestedLoopJoin) Schema() *tuple.Schema { return j.schema }

// Open opens the outer input.
func (j *IndexNestedLoopJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	j.pending = nil
	j.open = true
	return nil
}

// Next returns the next joined row.
func (j *IndexNestedLoopJoin) Next() (tuple.Row, bool, error) {
	if !j.open {
		return nil, false, ErrClosed
	}
	for {
		if j.pendingIdx < len(j.pending) {
			r := j.pendingRow.Concat(j.pending[j.pendingIdx])
			j.pendingIdx++
			return r, true, nil
		}
		row, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		matches, err := j.inner.Find(row.Int(j.outerCol))
		if err != nil {
			return nil, false, fmt.Errorf("inlj: %w", err)
		}
		j.pending = matches
		j.pendingRow = row
		j.pendingIdx = 0
	}
}

// Close closes the outer input.
func (j *IndexNestedLoopJoin) Close() error {
	j.open = false
	j.pending = nil
	return j.outer.Close()
}
