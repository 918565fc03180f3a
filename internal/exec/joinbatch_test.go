package exec

import (
	"math/rand"
	"testing"

	"smoothscan/internal/disk"
	"smoothscan/internal/tuple"
)

func TestHashJoinBatchMatchesReference(t *testing.T) {
	left := []tuple.Row{tuple.IntsRow(1, 100), tuple.IntsRow(2, 200), tuple.IntsRow(2, 201), tuple.IntsRow(3, 300)}
	right := []tuple.Row{tuple.IntsRow(2, 7), tuple.IntsRow(2, 8), tuple.IntsRow(4, 9)}
	for _, buildLeft := range []bool{false, true} {
		j := NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, buildLeft)
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceJoin(left, right, 0, 0)
		normalise(got)
		normalise(want)
		if !joinRowsEqual(got, want) {
			t.Errorf("buildLeft=%v: hash join batch = %v, want %v", buildLeft, got, want)
		}
		if j.Schema().NumCols() != 4 {
			t.Errorf("schema = %v", j.Schema())
		}
	}
}

func TestHashJoinBatchEmptyBuildSide(t *testing.T) {
	left := []tuple.Row{tuple.IntsRow(1), tuple.IntsRow(2)}
	for _, buildLeft := range []bool{false, true} {
		var l, r []tuple.Row
		if buildLeft {
			r = left // probe non-empty, build empty
		} else {
			l = left
		}
		j := NewHashJoinBatch(NewValues(tuple.Ints(1), l), NewValues(tuple.Ints(1), r), nil, 0, 0, buildLeft)
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("buildLeft=%v: join with empty build side = %v", buildLeft, got)
		}
		st := j.JoinStats()
		if st.BuildKeys != 0 || st.OutputRows != 0 {
			t.Errorf("stats = %+v", st)
		}
		// The probe input must not have been drained at all: an empty
		// build short-circuits the whole probe scan.
		if st.LeftRows != 0 || st.RightRows != 0 {
			t.Errorf("empty build still drained the probe: %+v", st)
		}
	}
}

func TestHashJoinBatchEmptyProbeSide(t *testing.T) {
	right := []tuple.Row{tuple.IntsRow(1), tuple.IntsRow(2)}
	j := NewHashJoinBatch(NewValues(tuple.Ints(1), nil), NewValues(tuple.Ints(1), right), nil, 0, 0, false)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("join with empty probe side = %v", got)
	}
}

// TestHashJoinBatchTinyOutputBatches forces the output batch to fill
// mid-match-list (capacity 1 and 3 against duplicate keys), exercising
// the cross-call resume state.
func TestHashJoinBatchTinyOutputBatches(t *testing.T) {
	var left, right []tuple.Row
	for i := int64(0); i < 40; i++ {
		left = append(left, tuple.IntsRow(i%4, i))
	}
	for i := int64(0); i < 12; i++ {
		right = append(right, tuple.IntsRow(i%4, 1000+i))
	}
	want := referenceJoin(left, right, 0, 0)
	normalise(want)
	for _, capacity := range []int{1, 3, 7} {
		j := NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, false)
		got := drainBatched(t, j, capacity)
		normalise(got)
		if !joinRowsEqual(got, want) {
			t.Errorf("capacity %d: %d rows, want %d", capacity, len(got), len(want))
		}
	}
}

func TestMergeJoinBatchDuplicatesBothSides(t *testing.T) {
	left := []tuple.Row{tuple.IntsRow(1, 0), tuple.IntsRow(2, 1), tuple.IntsRow(2, 2), tuple.IntsRow(2, 3), tuple.IntsRow(5, 4)}
	right := []tuple.Row{tuple.IntsRow(2, 10), tuple.IntsRow(2, 11), tuple.IntsRow(3, 12), tuple.IntsRow(5, 13), tuple.IntsRow(5, 14)}
	j := NewMergeJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJoin(left, right, 0, 0) // 3x2 for key 2 + 1x2 for key 5
	normalise(got)
	normalise(want)
	if !joinRowsEqual(got, want) {
		t.Errorf("merge join batch = %v, want %v", got, want)
	}
}

func TestMergeJoinBatchDetectsUnsortedInput(t *testing.T) {
	sorted := []tuple.Row{tuple.IntsRow(1), tuple.IntsRow(3)}
	unsorted := []tuple.Row{tuple.IntsRow(3), tuple.IntsRow(1), tuple.IntsRow(3)}
	for name, pair := range map[string][2][]tuple.Row{
		"left":  {unsorted, sorted},
		"right": {sorted, unsorted},
	} {
		j := NewMergeJoinBatch(NewValues(tuple.Ints(1), pair[0]), NewValues(tuple.Ints(1), pair[1]), nil, 0, 0)
		if _, err := Drain(j); err == nil {
			t.Errorf("%s unsorted input not detected", name)
		}
	}
}

func TestMergeJoinBatchEmptySides(t *testing.T) {
	rows := []tuple.Row{tuple.IntsRow(1), tuple.IntsRow(2)}
	for name, pair := range map[string][2][]tuple.Row{
		"left-empty":  {nil, rows},
		"right-empty": {rows, nil},
		"both-empty":  {nil, nil},
	} {
		j := NewMergeJoinBatch(NewValues(tuple.Ints(1), pair[0]), NewValues(tuple.Ints(1), pair[1]), nil, 0, 0)
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: joined %v", name, got)
		}
	}
}

// Property: the batched hash and merge joins agree with referenceJoin
// (and with each other) for random inputs across key densities, under
// both build sides and small output batches.
func TestJoinBatchEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nl, nr := rng.Intn(200), rng.Intn(200)
		dom := int64(1 + rng.Intn(32))
		left := make([]tuple.Row, nl)
		for i := range left {
			left[i] = tuple.IntsRow(rng.Int63n(dom), int64(i))
		}
		right := make([]tuple.Row, nr)
		for i := range right {
			right[i] = tuple.IntsRow(rng.Int63n(dom), int64(i)+10_000)
		}
		want := referenceJoin(left, right, 0, 0)
		normalise(want)

		for _, buildLeft := range []bool{false, true} {
			hj := NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, buildLeft)
			got := drainBatched(t, hj, 1+rng.Intn(8))
			normalise(got)
			if !joinRowsEqual(got, want) {
				t.Fatalf("trial %d buildLeft=%v: hash join %d rows, want %d", trial, buildLeft, len(got), len(want))
			}
			st := hj.JoinStats()
			if st.OutputRows != int64(len(want)) || st.LeftRows != int64(nl) || st.RightRows != int64(nr) {
				t.Fatalf("trial %d: stats %+v (want out=%d l=%d r=%d)", trial, st, len(want), nl, nr)
			}
		}

		sl := append([]tuple.Row(nil), left...)
		sr := append([]tuple.Row(nil), right...)
		sortRowsByCol(sl, 0)
		sortRowsByCol(sr, 0)
		wantSorted := referenceJoin(sl, sr, 0, 0)
		normalise(wantSorted)
		mj := NewMergeJoinBatch(NewValues(tuple.Ints(2), sl), NewValues(tuple.Ints(2), sr), nil, 0, 0)
		got := drainBatched(t, mj, 1+rng.Intn(8))
		normalise(got)
		if !joinRowsEqual(got, wantSorted) {
			t.Fatalf("trial %d: merge join %d rows, want %d", trial, len(got), len(wantSorted))
		}
	}
}

func sortRowsByCol(rows []tuple.Row, col int) {
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && rows[k].Int(col) < rows[k-1].Int(col); k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
		}
	}
}

// TestHashJoinBatchAgreesWithPerTupleTwin checks the hash join against
// an independent reference — referenceJoin's nested loop over the two
// row slices — on an output several default batches long. (The twin of
// the name, a second per-tuple hash join operator, was deleted; the
// assertion it anchored is kept.)
func TestHashJoinBatchAgreesWithPerTupleTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var left, right []tuple.Row
	for i := 0; i < 500; i++ {
		left = append(left, tuple.IntsRow(rng.Int63n(64), int64(i)))
	}
	for i := 0; i < 300; i++ {
		right = append(right, tuple.IntsRow(rng.Int63n(64), int64(i)+5_000))
	}
	want := referenceJoin(left, right, 0, 0)
	got, err := Drain(NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), nil, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	normalise(want)
	normalise(got)
	if !joinRowsEqual(want, got) {
		t.Errorf("hash join diverges from the nested-loop reference: %d vs %d rows", len(got), len(want))
	}
}

// TestJoinCapacityInvariance drains each batched join at consumer batch
// capacities from one row up: the rows (in order), the join's own
// counters and the device's simulated cost must not depend on it.
func TestJoinCapacityInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var left, right []tuple.Row
	for i := 0; i < 400; i++ {
		left = append(left, tuple.IntsRow(rng.Int63n(48), int64(i)))
	}
	for i := 0; i < 250; i++ {
		right = append(right, tuple.IntsRow(rng.Int63n(48), int64(i)+5_000))
	}
	sortRowsByCol(left, 0)
	sortRowsByCol(right, 0)
	joins := map[string]func(dev *disk.Device) Operator{
		"hash": func(dev *disk.Device) Operator {
			return NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), dev, 0, 0, false)
		},
		"hash-build-left": func(dev *disk.Device) Operator {
			return NewHashJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), dev, 0, 0, true)
		},
		"merge": func(dev *disk.Device) Operator {
			return NewMergeJoinBatch(NewValues(tuple.Ints(2), left), NewValues(tuple.Ints(2), right), dev, 0, 0)
		},
	}
	wantLen := len(referenceJoin(left, right, 0, 0))
	for name, mk := range joins {
		devA := disk.NewDevice(disk.HDD)
		opA := mk(devA)
		want := drainBatched(t, opA, 1)
		if len(want) != wantLen {
			t.Fatalf("%s batch=1: %d rows, want %d", name, len(want), wantLen)
		}
		for _, batchCap := range []int{9, 128, 1024} {
			devB := disk.NewDevice(disk.HDD)
			opB := mk(devB)
			got := drainBatched(t, opB, batchCap)
			if !joinRowsEqual(want, got) {
				t.Errorf("%s batch=%d: rows differ from batch=1 (%d vs %d)", name, batchCap, len(got), len(want))
			}
			if sa, sb := opA.(JoinStatser).JoinStats(), opB.(JoinStatser).JoinStats(); sa != sb {
				t.Errorf("%s batch=%d: join stats differ:\n batch=1: %+v\n wider:   %+v", name, batchCap, sa, sb)
			}
			if sa, sb := devA.Stats(), devB.Stats(); sa != sb {
				t.Errorf("%s batch=%d: device stats differ:\n batch=1: %+v\n wider:   %+v", name, batchCap, sa, sb)
			}
		}
	}
}
