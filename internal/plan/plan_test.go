package plan

import (
	"context"
	"errors"
	"testing"

	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

// buildTable loads n rows (id, val) with val = i % domain and a
// secondary index on val.
func buildTable(t *testing.T, n, domain int64) (*heap.File, *btree.Tree, *bufferpool.Pool) {
	t.Helper()
	dev := disk.NewDevice(disk.HDD)
	file, err := heap.Create(dev, tuple.Ints(2))
	if err != nil {
		t.Fatal(err)
	}
	b := file.NewBuilder()
	for i := int64(0); i < n; i++ {
		if err := b.Append(tuple.IntsRow(i, i%domain)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := btree.BuildOnColumn(dev, file, 1)
	if err != nil {
		t.Fatal(err)
	}
	return file, tree, bufferpool.New(dev, 256)
}

func TestBuildPathsAgree(t *testing.T) {
	file, tree, pool := buildTable(t, 20_000, 500)
	pred := tuple.RangePred{Col: 1, Lo: 100, Hi: 200}
	want := int64(0)
	for _, spec := range []ScanSpec{
		{File: file, Pool: pool, Pred: pred, Path: PathFull},
		{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathIndex},
		{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathSort},
		{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathSwitch, SwitchThreshold: 50},
		{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathSmooth},
		{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathSmooth, Parallelism: 4},
		{File: file, Pool: pool, Pred: pred, Path: PathFull, Parallelism: 4},
	} {
		built, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Path, err)
		}
		n, err := exec.Count(built.Op)
		if err != nil {
			t.Fatalf("%s: %v", spec.Path, err)
		}
		if want == 0 {
			want = n
		}
		if n != want {
			t.Errorf("%s (par=%d) produced %d rows, want %d", spec.Path, spec.Parallelism, n, want)
		}
		// Only a full scan parallelises: Smooth Scan runs serially at
		// any Parallelism.
		if spec.Path == PathSmooth && built.Smooth == nil {
			t.Errorf("smooth scan (par=%d) did not expose its serial operator", spec.Parallelism)
		}
	}
}

func TestBuildResidualPlacement(t *testing.T) {
	file, tree, pool := buildTable(t, 10_000, 500)
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 500}
	residual := []tuple.RangePred{{Col: 0, Lo: 0, Hi: 1000}}

	for _, tc := range []struct {
		spec ScanSpec
		want bool
	}{
		{ScanSpec{File: file, Pool: pool, Pred: pred, Residual: residual, Path: PathFull}, true},
		{ScanSpec{File: file, Pool: pool, Tree: tree, Pred: pred, Residual: residual, Path: PathSmooth}, true},
		{ScanSpec{File: file, Pool: pool, Tree: tree, Pred: pred, Residual: residual, Path: PathSmooth, Ordered: true}, false},
		{ScanSpec{File: file, Pool: pool, Tree: tree, Pred: pred, Residual: residual, Path: PathIndex}, false},
	} {
		pushed := tc.spec.Path.AbsorbsResidual(tc.spec.Ordered)
		if pushed != tc.want {
			t.Errorf("%s (ordered=%v): AbsorbsResidual = %v, want %v",
				tc.spec.Path, tc.spec.Ordered, pushed, tc.want)
		}
		built, err := Build(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		n, err := exec.Count(built.Op)
		if err != nil {
			t.Fatal(err)
		}
		if pushed && n != 1000 {
			t.Errorf("%s: pushed residual produced %d rows, want 1000", tc.spec.Path, n)
		}
		if !pushed && n != 10_000 {
			t.Errorf("%s: unpushed residual produced %d rows, want 10000 (caller filters)", tc.spec.Path, n)
		}
	}
}

func TestBuildNeedsIndex(t *testing.T) {
	file, _, pool := buildTable(t, 1_000, 10)
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 5}
	for _, p := range []Path{PathSmooth, PathIndex, PathSort, PathSwitch} {
		if _, err := Build(ScanSpec{File: file, Pool: pool, Pred: pred, Path: p}); !errors.Is(err, ErrNeedsIndex) {
			t.Errorf("%s without index: %v, want ErrNeedsIndex", p, err)
		}
	}
	if _, err := Build(ScanSpec{File: file, Pool: pool, Pred: pred, Path: Path(99)}); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestBuildParallelCancellation(t *testing.T) {
	file, _, pool := buildTable(t, 40_000, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	built, err := Build(ScanSpec{
		File: file, Pool: pool,
		Pred:        tuple.RangePred{Col: 1, Lo: 0, Hi: 1000},
		Path:        PathFull,
		Parallelism: 4,
		Ctx:         ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Op.Open(); err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatchFor(file.Schema(), 64)
	if _, err := built.Op.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := 0; i < 1000; i++ {
		n, err := built.Op.NextBatch(b)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("NextBatch error = %v, want context.Canceled", err)
			}
			break
		}
		if n == 0 {
			t.Fatal("scan ended cleanly despite cancellation")
		}
	}
	if err := built.Op.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("Close = %v", err)
	}
}

// TestBuildSortBudget pins PathSort's spill charge to the spec's
// SortBudget: zero sorts in memory and writes nothing, and a budget
// below both the TID bytes (4000 × 20) and the ordered result bytes
// (4000 × 16) spills both sorts, 10 + 8 pages written and read back.
func TestBuildSortBudget(t *testing.T) {
	file, tree, pool := buildTable(t, 20_000, 500)
	pred := tuple.RangePred{Col: 1, Lo: 100, Hi: 200}
	for _, tc := range []struct {
		budget                            int64
		requests, pagesRead, pagesWritten int64
		ioTime                            float64
	}{
		{budget: 0, requests: 13, pagesRead: 51, pagesWritten: 0, ioTime: 78},
		{budget: 32 << 10, requests: 17, pagesRead: 69, pagesWritten: 18, ioTime: 114},
	} {
		built, err := Build(ScanSpec{File: file, Pool: pool, Tree: tree, Pred: pred, Path: PathSort, Ordered: true, SortBudget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		pool.Reset()
		pool.Device().ResetStats()
		n, err := exec.Count(built.Op)
		if err != nil {
			t.Fatal(err)
		}
		st := pool.Device().Stats()
		if n != 4000 || st.Requests != tc.requests || st.PagesRead != tc.pagesRead ||
			st.PagesWritten != tc.pagesWritten || st.IOTime != tc.ioTime {
			t.Errorf("budget %d: rows %d, requests %d, pages read %d, written %d, I/O time %v; want 4000, %d, %d, %d, %v",
				tc.budget, n, st.Requests, st.PagesRead, st.PagesWritten, st.IOTime,
				tc.requests, tc.pagesRead, tc.pagesWritten, tc.ioTime)
		}
	}
}
