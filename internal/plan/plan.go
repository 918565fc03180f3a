// Package plan is the engine's plan-construction layer: it turns a
// declarative scan specification — table, driving predicate, residual
// conjuncts, access path, morphing configuration, parallelism — into
// the batched exec operator tree that executes it (serial Smooth /
// Full / Index / Sort / Switch scans, or a full scan split into page
// shards behind the parallel subsystem's fan-in).
//
// Every workload in the repository goes through this one constructor:
// the public Query builder and DB.Scan facade, and the TPC-H query
// plans the experiment harness runs. The optimizer (internal/optimizer)
// decides *which* spec to build; this package owns *how* a spec
// becomes operators, so access-path construction has exactly one home.
package plan

import (
	"context"
	"fmt"

	"smoothscan/internal/access"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/parallel"
	"smoothscan/internal/tuple"
)

// Path selects the access-path operator family.
type Path int

// Access paths a ScanSpec can request.
const (
	// PathSmooth is the adaptive Smooth Scan.
	PathSmooth Path = iota
	// PathFull is a sequential full table scan.
	PathFull
	// PathIndex is a classic non-clustered index scan.
	PathIndex
	// PathSort is a sort scan (bitmap heap scan).
	PathSort
	// PathSwitch is the binary-switching adaptive baseline.
	PathSwitch
)

func (p Path) String() string {
	switch p {
	case PathSmooth:
		return "smooth-scan"
	case PathFull:
		return "full-scan"
	case PathIndex:
		return "index-scan"
	case PathSort:
		return "sort-scan"
	case PathSwitch:
		return "switch-scan"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// ScanSpec describes one table access declaratively.
type ScanSpec struct {
	// File is the heap file to scan.
	File *heap.File
	// Pool is the buffer pool; parallel builds derive one private view
	// per worker from it.
	Pool *bufferpool.Pool
	// Tree is the secondary index on Pred.Col; required by every path
	// except PathFull.
	Tree *btree.Tree
	// Pred is the driving range predicate.
	Pred tuple.RangePred
	// Residual holds extra conjunctive predicates. Paths that support
	// it (full scan; unordered Smooth Scan) evaluate them inside the
	// page decode so non-matching rows are never materialised; for the
	// rest the caller must filter above the scan — Build reports which
	// through Scan.ResidualPushed.
	Residual []tuple.RangePred
	// Path selects the access path.
	Path Path
	// Smooth is the Smooth Scan configuration (policy, trigger,
	// ordering, estimates, budgets) for PathSmooth.
	Smooth core.Config
	// Ordered requests index-key output order from PathSort (the
	// other paths take it from Smooth.Ordered or deliver it natively).
	Ordered bool
	// SwitchThreshold is PathSwitch's result-count switch point.
	SwitchThreshold int64
	// Parallelism is the full scan's worker count; values <= 1 build
	// the serial operator. Only PathFull parallelises: every other path
	// builds its serial operator whatever the value.
	Parallelism int
	// Ctx cancels a parallel scan between batches; nil means no
	// cancellation. Serial operators are cancelled by their driver
	// (the facade checks per batch refill).
	Ctx context.Context
}

// Scan is a built table access.
type Scan struct {
	// Op is the root operator (the scan itself, or the parallel merge).
	Op exec.Operator
	// Smooth is the Smooth Scan operator (nil for the other paths).
	Smooth *core.SmoothScan
	// ResidualPushed reports whether Spec.Residual was evaluated
	// inside the scan; when false the caller must apply the residual
	// conjuncts itself (e.g. with exec.Filter).
	ResidualPushed bool
}

// ErrNeedsIndex is wrapped by Build when the requested path requires a
// secondary index on the predicate column and none was given.
var ErrNeedsIndex = fmt.Errorf("plan: access path requires an index")

// Build constructs the operator tree for the spec.
func Build(spec ScanSpec) (*Scan, error) {
	switch spec.Path {
	case PathFull:
		par := int(min(int64(spec.Parallelism), spec.File.NumPages()))
		if par > 1 {
			op, err := parallelFull(spec, par)
			if err != nil {
				return nil, err
			}
			return &Scan{Op: op, ResidualPushed: true}, nil
		}
		fs := access.NewFullScan(spec.File, spec.Pool, spec.Pred)
		fs.SetResidual(spec.Residual)
		return &Scan{Op: fs, ResidualPushed: true}, nil
	case PathIndex:
		if spec.Tree == nil {
			return nil, fmt.Errorf("%w: %s", ErrNeedsIndex, spec.Path)
		}
		return &Scan{Op: access.NewIndexScan(spec.File, spec.Pool, spec.Tree, spec.Pred)}, nil
	case PathSort:
		if spec.Tree == nil {
			return nil, fmt.Errorf("%w: %s", ErrNeedsIndex, spec.Path)
		}
		return &Scan{Op: access.NewSortScan(spec.File, spec.Pool, spec.Tree, spec.Pred, spec.Ordered)}, nil
	case PathSwitch:
		if spec.Tree == nil {
			return nil, fmt.Errorf("%w: %s", ErrNeedsIndex, spec.Path)
		}
		return &Scan{Op: access.NewSwitchScan(spec.File, spec.Pool, spec.Tree, spec.Pred, spec.SwitchThreshold)}, nil
	case PathSmooth:
		if spec.Tree == nil {
			return nil, fmt.Errorf("%w: %s", ErrNeedsIndex, spec.Path)
		}
		cfg := spec.Smooth
		pushed := !cfg.Ordered
		if pushed {
			cfg.Residual = spec.Residual
		}
		ss, err := core.NewSmoothScan(spec.File, spec.Pool, spec.Tree, spec.Pred, cfg)
		if err != nil {
			return nil, err
		}
		return &Scan{Op: ss, Smooth: ss, ResidualPushed: pushed}, nil
	default:
		return nil, fmt.Errorf("plan: unknown access path %d", int(spec.Path))
	}
}

// parallelFull builds one full-scan worker per disjoint heap page
// shard, merged through an unordered fan-in.
func parallelFull(spec ScanSpec, par int) (*parallel.Scan, error) {
	shards := parallel.PartitionPages(spec.File.NumPages(), par)
	workers := make([]exec.Operator, len(shards))
	for i, sh := range shards {
		fs := access.NewFullScanRange(spec.File, spec.Pool.View(), spec.Pred, sh.PageLo, sh.PageHi)
		fs.SetResidual(spec.Residual)
		workers[i] = fs
	}
	return parallel.NewScan(workers, parallel.Options{Schema: spec.File.Schema(), Ctx: spec.Ctx})
}

// JoinAlgo selects the join operator family.
type JoinAlgo int

// Join algorithms a JoinSpec can request.
const (
	// JoinHash is the batched build/probe hash equi-join.
	JoinHash JoinAlgo = iota
	// JoinMerge is the batched merge equi-join; both inputs must
	// arrive sorted ascending on their join columns.
	JoinMerge
)

func (a JoinAlgo) String() string {
	switch a {
	case JoinHash:
		return "hash"
	case JoinMerge:
		return "merge"
	default:
		return fmt.Sprintf("JoinAlgo(%d)", int(a))
	}
}

// JoinSpec describes one equi-join over two built inputs. Like
// ScanSpec it is declarative: the optimizer decides build side and
// algorithm, BuildJoin owns how the spec becomes an operator.
type JoinSpec struct {
	// Left and Right are the join inputs (scans, or earlier joins of a
	// left-deep tree). The output schema is always Left ++ Right.
	Left, Right exec.Operator
	// LeftCol / RightCol are the equi-join columns in each input's
	// schema.
	LeftCol, RightCol int
	// Algo selects hash or merge.
	Algo JoinAlgo
	// BuildLeft drains the left input into the hash table instead of
	// the right (JoinHash only; the planner puts the smaller estimated
	// input on the build side).
	BuildLeft bool
	// Ch is the channel the join charges its CPU through — the I/O
	// account of the query it runs in; nil skips accounting.
	Ch *disk.Channel
}

// BuildJoin constructs the batched join operator for the spec. The
// returned operator also implements exec.JoinStatser.
func BuildJoin(spec JoinSpec) (exec.Operator, error) {
	if spec.Left == nil || spec.Right == nil {
		return nil, fmt.Errorf("plan: join requires two inputs")
	}
	lw := spec.Left.Schema().NumCols()
	rw := spec.Right.Schema().NumCols()
	if spec.LeftCol < 0 || spec.LeftCol >= lw {
		return nil, fmt.Errorf("plan: join left column %d outside schema %s", spec.LeftCol, spec.Left.Schema())
	}
	if spec.RightCol < 0 || spec.RightCol >= rw {
		return nil, fmt.Errorf("plan: join right column %d outside schema %s", spec.RightCol, spec.Right.Schema())
	}
	switch spec.Algo {
	case JoinHash:
		return exec.NewHashJoinBatch(spec.Left, spec.Right, spec.Ch, spec.LeftCol, spec.RightCol, spec.BuildLeft), nil
	case JoinMerge:
		return exec.NewMergeJoinBatch(spec.Left, spec.Right, spec.Ch, spec.LeftCol, spec.RightCol), nil
	default:
		return nil, fmt.Errorf("plan: unknown join algorithm %d", int(spec.Algo))
	}
}
