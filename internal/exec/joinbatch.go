package exec

import (
	"fmt"
	"math"

	"smoothscan/internal/disk"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// JoinStats exposes a batched join operator's run-time counters: how
// many rows each input delivered, how large the hash build was, and —
// for a hash join — the delta of the join's I/O account while the build
// input was drained. For one join the probe side's I/O is the query
// total minus this; when a join builds on an input that itself contains
// joins, its build window contains theirs, so deltas nest rather than
// sum.
type JoinStats struct {
	// Algo is "hash" or "merge".
	Algo string
	// BuildLeft reports which input a hash join drained into its table
	// (false = right, the classic build side). Meaningless for merge.
	BuildLeft bool
	// LeftRows / RightRows count the rows consumed from each input.
	// A merge join may pre-fetch (and count) a trailing batch on one
	// side after the other reached end of stream.
	LeftRows  int64
	RightRows int64
	// BuildKeys is the hash table's distinct join-key count.
	BuildKeys int64
	// OutputRows counts joined rows produced so far.
	OutputRows int64
	// BuildIO is the delta of the join's channel account while the
	// hash build input was drained (Open time). Zero for merge joins
	// and nil channels.
	BuildIO disk.Stats
}

// JoinStatser is implemented by the batched join operators; the facade
// uses it to surface JoinStats through Rows.ExecStats.
type JoinStatser interface {
	JoinStats() JoinStats
}

// HashJoinBatch is the batched equi-join of the vectorized pipeline:
// it drains the build input once into a flat row arena plus a
// key→row-index table (blocking, at Open), then joins the probe input
// batch-at-a-time. Output batches are filled in place through
// AppendSlotRaw, so the steady-state probe loop allocates nothing.
//
// The planner chooses the build side; the output schema is always
// left ++ right regardless of that choice.
type HashJoinBatch struct {
	left, right       Operator
	leftCol, rightCol int
	buildLeft         bool
	ch                *disk.Channel
	schema            *tuple.Schema
	lw                int

	arena    *tuple.Batch      // growable flat copy of the build input
	table    map[int64][]int32 // join key -> row indices into arena
	buildCol int
	probe    Operator
	probeCol int
	pb       *tuple.Batch // probe scratch batch
	pn, pi   int          // probe fill count and cursor
	matches  []int32      // pending build matches for probe row pi
	mi       int
	stats    JoinStats
	open     bool
	probing  bool // probe input opened (false when the build was empty)
}

// NewHashJoinBatch joins left.leftCol = right.rightCol, draining the
// side selected by buildLeft into the hash table and streaming the
// other. It charges its CPU through ch, the channel the query's inputs
// read through, so BuildIO is the build side's share of that account;
// ch may be nil to skip accounting.
func NewHashJoinBatch(left, right Operator, ch *disk.Channel, leftCol, rightCol int, buildLeft bool) *HashJoinBatch {
	return &HashJoinBatch{
		left: left, right: right,
		leftCol: leftCol, rightCol: rightCol,
		buildLeft: buildLeft,
		ch:        ch,
		schema:    left.Schema().Concat(right.Schema()),
		lw:        left.Schema().NumCols(),
	}
}

// Schema returns the concatenated left ++ right schema.
func (j *HashJoinBatch) Schema() *tuple.Schema { return j.schema }

// JoinStats returns the operator's counters; final once the join has
// drained (the build-side counters are final after Open).
func (j *HashJoinBatch) JoinStats() JoinStats { return j.stats }

// Open drains the build input into the hash table (blocking), then
// opens the probe input.
func (j *HashJoinBatch) Open() error {
	build, probe := j.right, j.left
	j.buildCol, j.probeCol = j.rightCol, j.leftCol
	if j.buildLeft {
		build, probe = j.left, j.right
		j.buildCol, j.probeCol = j.leftCol, j.rightCol
	}
	j.probe = probe
	j.stats = JoinStats{Algo: "hash", BuildLeft: j.buildLeft}

	var buildStart disk.Stats
	if j.ch != nil {
		buildStart = j.ch.Stats()
	}
	if err := build.Open(); err != nil {
		return err
	}
	if j.arena == nil {
		j.arena = tuple.NewGrowableBatch(build.Schema().NumCols())
	} else {
		j.arena.Reset()
	}
	j.table = make(map[int64][]int32)
	scratch := newScratchFor(build)
	for {
		n, err := build.NextBatch(scratch)
		if err != nil {
			build.Close()
			return err
		}
		if n == 0 {
			break
		}
		if j.ch != nil {
			j.ch.ChargeCPUN(simcost.Hash, int64(n))
		}
		for i := 0; i < n; i++ {
			row := scratch.Row(i)
			idx := j.arena.Len()
			if idx > math.MaxInt32 {
				build.Close()
				return fmt.Errorf("hash join: build side exceeds %d rows", math.MaxInt32)
			}
			j.arena.Append(row)
			k := row.Int(j.buildCol)
			j.table[k] = append(j.table[k], int32(idx))
		}
	}
	if err := build.Close(); err != nil {
		return err
	}
	j.stats.BuildKeys = int64(len(j.table))
	if j.buildLeft {
		j.stats.LeftRows = int64(j.arena.Len())
	} else {
		j.stats.RightRows = int64(j.arena.Len())
	}
	if j.ch != nil {
		j.stats.BuildIO = j.ch.Stats().Sub(buildStart)
	}

	// An empty build side means no probe row can match: skip the
	// probe entirely — its whole scan (I/O and CPU charges) would buy
	// nothing.
	j.probing = len(j.table) > 0
	if j.probing {
		if err := probe.Open(); err != nil {
			return err
		}
	}
	j.pn, j.pi, j.matches, j.mi = 0, 0, nil, 0
	j.open = true
	return nil
}

// emit fills one output slot from the current probe row and the build
// row at arena index b, in left ++ right column order.
func (j *HashJoinBatch) emit(slot tuple.Row, probeRow tuple.Row, b int32) {
	buildRow := j.arena.Row(int(b))
	if j.buildLeft {
		copy(slot[:j.lw], buildRow)
		copy(slot[j.lw:], probeRow)
	} else {
		copy(slot[:j.lw], probeRow)
		copy(slot[j.lw:], buildRow)
	}
}

// NextBatch fills out with joined rows until it is full or the probe
// input ends; a return of 0 is end of stream.
func (j *HashJoinBatch) NextBatch(out *tuple.Batch) (int, error) {
	if !j.open {
		return 0, ErrClosed
	}
	out.Reset()
	if !j.probing {
		return 0, nil
	}
	for {
		// Finish the current probe row's pending matches.
		if j.mi < len(j.matches) {
			probeRow := j.pb.Row(j.pi)
			for j.mi < len(j.matches) {
				slot := out.AppendSlotRaw()
				if slot == nil {
					return out.Len(), nil
				}
				j.emit(slot, probeRow, j.matches[j.mi])
				j.mi++
				j.stats.OutputRows++
			}
		}
		if j.matches != nil {
			j.matches = nil
			j.pi++
		}
		// Advance to the next probe row with matches, refilling the
		// probe batch as needed.
		for {
			if j.pi >= j.pn {
				if j.pb == nil {
					j.pb = newScratchFor(j.probe)
				}
				n, err := j.probe.NextBatch(j.pb)
				if err != nil {
					return 0, err
				}
				if n == 0 {
					return out.Len(), nil
				}
				if j.ch != nil {
					j.ch.ChargeCPUN(simcost.Hash, int64(n))
				}
				if j.buildLeft {
					j.stats.RightRows += int64(n)
				} else {
					j.stats.LeftRows += int64(n)
				}
				j.pn, j.pi = n, 0
			}
			if m := j.table[j.pb.Row(j.pi).Int(j.probeCol)]; len(m) > 0 {
				j.matches, j.mi = m, 0
				break
			}
			j.pi++
		}
	}
}

// Close closes the probe input and drops the table. The build input
// was closed at the end of Open.
func (j *HashJoinBatch) Close() error {
	wasProbing := j.open && j.probing
	j.open = false
	j.probing = false
	j.table = nil
	j.matches = nil
	if !wasProbing {
		return nil
	}
	return j.probe.Close()
}

// MergeJoinBatch is the batched merge equi-join: both inputs must
// arrive sorted ascending on their join columns (verified at run
// time), the case when both sides come
// key-ordered from index / sort / ordered-smooth access paths. It
// handles duplicate keys on both sides by materialising the right
// side's current key group in a reusable growable batch.
type MergeJoinBatch struct {
	left, right       Operator
	leftCol, rightCol int
	ch                *disk.Channel
	schema            *tuple.Schema
	lw, rw            int

	lb, rb              *tuple.Batch
	ln, li              int
	rn, ri              int
	leftEOS, rightEOS   bool
	haveL, haveR        bool
	lastLeft, lastRight int64

	group    *tuple.Batch // right rows sharing the current key
	groupKey int64
	gi       int
	inGroup  bool

	stats JoinStats
	open  bool
}

// NewMergeJoinBatch joins left.leftCol = right.rightCol over inputs
// sorted ascending on those columns, charging its CPU through ch; ch
// may be nil to skip accounting.
func NewMergeJoinBatch(left, right Operator, ch *disk.Channel, leftCol, rightCol int) *MergeJoinBatch {
	return &MergeJoinBatch{
		left: left, right: right,
		leftCol: leftCol, rightCol: rightCol,
		ch:     ch,
		schema: left.Schema().Concat(right.Schema()),
		lw:     left.Schema().NumCols(),
		rw:     right.Schema().NumCols(),
	}
}

// Schema returns the concatenated left ++ right schema.
func (j *MergeJoinBatch) Schema() *tuple.Schema { return j.schema }

// JoinStats returns the operator's counters.
func (j *MergeJoinBatch) JoinStats() JoinStats { return j.stats }

// Open opens both inputs and resets the cursors.
func (j *MergeJoinBatch) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		j.left.Close()
		return err
	}
	if j.lb == nil {
		j.lb = newScratchFor(j.left)
		j.rb = newScratchFor(j.right)
		j.group = tuple.NewGrowableBatch(j.rw)
	}
	j.ln, j.li, j.rn, j.ri = 0, 0, 0, 0
	j.leftEOS, j.rightEOS = false, false
	j.haveL, j.haveR = false, false
	j.group.Reset()
	j.inGroup = false
	j.stats = JoinStats{Algo: "merge"}
	j.open = true
	return nil
}

// fillLeft ensures a current left row exists (li < ln) or marks EOS,
// verifying sort order across each refilled batch.
func (j *MergeJoinBatch) fillLeft() error {
	for !j.leftEOS && j.li >= j.ln {
		n, err := j.left.NextBatch(j.lb)
		if err != nil {
			return err
		}
		if n == 0 {
			j.leftEOS = true
			return nil
		}
		if j.ch != nil {
			j.ch.ChargeCPUN(simcost.Compare, int64(n))
		}
		j.stats.LeftRows += int64(n)
		for i := 0; i < n; i++ {
			k := j.lb.Row(i).Int(j.leftCol)
			if j.haveL && k < j.lastLeft {
				return fmt.Errorf("merge join: left input not sorted (%d after %d)", k, j.lastLeft)
			}
			j.lastLeft = k
			j.haveL = true
		}
		j.ln, j.li = n, 0
	}
	return nil
}

// fillRight is fillLeft for the right input.
func (j *MergeJoinBatch) fillRight() error {
	for !j.rightEOS && j.ri >= j.rn {
		n, err := j.right.NextBatch(j.rb)
		if err != nil {
			return err
		}
		if n == 0 {
			j.rightEOS = true
			return nil
		}
		if j.ch != nil {
			j.ch.ChargeCPUN(simcost.Compare, int64(n))
		}
		j.stats.RightRows += int64(n)
		for i := 0; i < n; i++ {
			k := j.rb.Row(i).Int(j.rightCol)
			if j.haveR && k < j.lastRight {
				return fmt.Errorf("merge join: right input not sorted (%d after %d)", k, j.lastRight)
			}
			j.lastRight = k
			j.haveR = true
		}
		j.rn, j.ri = n, 0
	}
	return nil
}

// NextBatch fills out with joined rows until it is full or a side
// ends; a return of 0 is end of stream.
func (j *MergeJoinBatch) NextBatch(out *tuple.Batch) (int, error) {
	if !j.open {
		return 0, ErrClosed
	}
	out.Reset()
	for {
		if j.inGroup {
			// Emit (current left row) x (right group), then advance the
			// left cursor; an unchanged key replays the group.
			if j.gi < j.group.Len() {
				slot := out.AppendSlotRaw()
				if slot == nil {
					return out.Len(), nil
				}
				copy(slot[:j.lw], j.lb.Row(j.li))
				copy(slot[j.lw:], j.group.Row(j.gi))
				j.gi++
				j.stats.OutputRows++
				continue
			}
			j.li++
			if err := j.fillLeft(); err != nil {
				return 0, err
			}
			j.gi = 0
			if j.leftEOS || j.lb.Row(j.li).Int(j.leftCol) != j.groupKey {
				j.inGroup = false
				j.group.Reset()
			}
			continue
		}
		if err := j.fillLeft(); err != nil {
			return 0, err
		}
		if err := j.fillRight(); err != nil {
			return 0, err
		}
		if j.leftEOS || j.rightEOS {
			return out.Len(), nil
		}
		lk := j.lb.Row(j.li).Int(j.leftCol)
		rk := j.rb.Row(j.ri).Int(j.rightCol)
		switch {
		case lk < rk:
			j.li++
		case lk > rk:
			j.ri++
		default:
			// Materialise the right group for this key; group rows are
			// copies, so they survive right-batch refills.
			j.groupKey = rk
			j.group.Reset()
			for {
				j.group.Append(j.rb.Row(j.ri))
				j.ri++
				if err := j.fillRight(); err != nil {
					return 0, err
				}
				if j.rightEOS || j.rb.Row(j.ri).Int(j.rightCol) != rk {
					break
				}
			}
			j.gi, j.inGroup = 0, true
		}
	}
}

// Close closes both inputs.
func (j *MergeJoinBatch) Close() error {
	wasOpen := j.open
	j.open = false
	if !wasOpen {
		return nil
	}
	errL := j.left.Close()
	errR := j.right.Close()
	if errL != nil {
		return errL
	}
	return errR
}
