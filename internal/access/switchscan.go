package access

import (
	"fmt"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// SwitchScan is the straw-man adaptive access path of Sections III and
// VI-F: it runs a classic index scan while monitoring the result
// cardinality and, the moment the cardinality exceeds the (optimizer's)
// estimate, abandons the index and restarts as a full table scan.
//
// Tuples already produced through the index are remembered in a Tuple
// ID bitmap so the full-scan phase does not duplicate them. The binary
// switch is exactly what produces the performance cliff of Figure 11:
// producing one tuple past the threshold costs an entire full scan on
// top of the index work already done.
type SwitchScan struct {
	file      *heap.File
	pool      *bufferpool.Pool
	tree      *btree.Tree
	pred      tuple.RangePred
	threshold int64

	open     bool
	done     bool // index phase hit the key bound; latched
	switched bool
	produced int64
	seen     *bitmap.Bitmap // TIDs produced during the index phase
	it       *btree.Iter
	full     *FullScan
}

// NewSwitchScan creates a switch scan that abandons the index once
// more than threshold tuples have been produced. The threshold plays
// the role of the optimizer's cardinality estimate.
func NewSwitchScan(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, pred tuple.RangePred, threshold int64) *SwitchScan {
	return &SwitchScan{file: file, pool: pool, tree: tree, pred: pred, threshold: threshold}
}

// Schema returns the table schema.
func (s *SwitchScan) Schema() *tuple.Schema { return s.file.Schema() }

// Switched reports whether the operator has performed its binary
// switch to a full scan.
func (s *SwitchScan) Switched() bool { return s.switched }

// Open starts the index phase.
func (s *SwitchScan) Open() error {
	it, err := s.tree.SeekGE(s.pool, s.pred.Lo)
	if err != nil {
		return fmt.Errorf("switch scan: %w", err)
	}
	s.it = it
	s.open = true
	s.done = false
	s.switched = false
	s.produced = 0
	s.seen = bitmap.New(s.file.NumTuples())
	return nil
}

func (s *SwitchScan) tidBit(tid heap.TID) int64 {
	return tid.Page*int64(s.file.TuplesPerPage()) + int64(tid.Slot)
}

// NextBatch fills out with the next matching tuples: index-ordered
// until the switch, physical order afterwards. The full-scan phase
// decodes qualifying pages directly into the batch, vetoing tuples
// already produced through the index via the Tuple ID bitmap.
func (s *SwitchScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	for !out.Full() && !s.switched {
		if s.done {
			return out.Len(), nil
		}
		e, ok, err := s.it.Next()
		if err != nil {
			return 0, fmt.Errorf("switch scan: %w", err)
		}
		if !ok || e.Key >= s.pred.Hi {
			s.done = true
			return out.Len(), nil
		}
		if s.produced < s.threshold {
			if _, err := s.file.DecodeRowAt(s.pool, e.TID, out.AppendSlotRaw()); err != nil {
				return 0, fmt.Errorf("switch scan: %w", err)
			}
			s.pool.ChargeCPU(simcost.Tuple)
			s.produced++
			s.seen.Set(s.tidBit(e.TID))
			continue
		}
		s.switched = true
		s.it = nil
		s.full = NewFullScan(s.file, s.pool, s.pred)
		if err := s.full.Open(); err != nil {
			return 0, fmt.Errorf("switch scan: %w", err)
		}
	}
	if !s.switched {
		return out.Len(), nil
	}
	// Full-scan phase: FullScan's batch loop with the Tuple ID bitmap
	// vetoing tuples already produced through the index.
	if _, err := s.full.fillBatch(out, func(pageNo int64, slot int) bool {
		return !s.seen.Get(s.tidBit(heap.TID{Page: pageNo, Slot: int32(slot)}))
	}); err != nil {
		return 0, fmt.Errorf("switch scan: %w", err)
	}
	return out.Len(), nil
}

// Close releases the scan.
func (s *SwitchScan) Close() error {
	s.open = false
	s.it = nil
	if s.full != nil {
		err := s.full.Close()
		s.full = nil
		return err
	}
	return nil
}
