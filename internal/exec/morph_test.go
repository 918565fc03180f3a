package exec

import (
	"sort"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/tuple"
)

func TestMorphingLookupMatchesPlainLookup(t *testing.T) {
	file, pool, tree, _, rows := lookupFixture(t)
	ml := NewMorphingLookup(file, pool, tree, 1)
	for key := int64(-1); key < 32; key++ {
		got, err := ml.Find(key)
		if err != nil {
			t.Fatal(err)
		}
		var want int
		for _, r := range rows {
			if r.Int(1) == key {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("Find(%d) = %d rows, want %d", key, len(got), want)
		}
		for _, r := range got {
			if r.Int(1) != key {
				t.Errorf("Find(%d) returned key %d", key, r.Int(1))
			}
		}
	}
}

func TestMorphingLookupConvergesToHashJoin(t *testing.T) {
	file, _, tree, dev, _ := lookupFixture(t)
	// A pool large enough to keep the index hot, so the second sweep
	// isolates heap behaviour.
	pool := bufferpool.New(dev, 512)
	ml := NewMorphingLookup(file, pool, tree, 1)
	// First sweep over all keys: pages get analysed and cached.
	for key := int64(0); key < 30; key++ {
		if _, err := ml.Find(key); err != nil {
			t.Fatal(err)
		}
	}
	first := ml.Stats()
	if first.PagesRead == 0 {
		t.Fatal("first sweep read no pages")
	}
	if first.PageCoverage < 0.9 {
		t.Errorf("coverage after full-key sweep = %v, want ~1", first.PageCoverage)
	}
	// Second sweep: everything must be served from the hash table
	// with no further heap I/O.
	dev.ResetStats()
	for key := int64(0); key < 30; key++ {
		if _, err := ml.Find(key); err != nil {
			t.Fatal(err)
		}
	}
	second := ml.Stats()
	if second.PagesRead != first.PagesRead {
		t.Errorf("second sweep read %d more pages", second.PagesRead-first.PagesRead)
	}
	if hits := second.HashHits - first.HashHits; hits != 30 {
		t.Errorf("hash hits on second sweep = %d, want 30", hits)
	}
	// Heap space sees no reads (index pages may still be touched).
	if ds := dev.Stats(); ds.PagesRead > 10 {
		t.Errorf("second sweep caused %d page reads", ds.PagesRead)
	}
}

func TestMorphingLookupNeverRereadsPages(t *testing.T) {
	file, pool, tree, _, _ := lookupFixture(t)
	ml := NewMorphingLookup(file, pool, tree, 1)
	for round := 0; round < 3; round++ {
		for key := int64(0); key < 30; key += 3 {
			if _, err := ml.Find(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := ml.Stats()
	if st.PagesRead > file.NumPages() {
		t.Errorf("read %d pages, table has %d", st.PagesRead, file.NumPages())
	}
}

func TestMorphingLookupInINLJ(t *testing.T) {
	file, pool, tree, _, rows := lookupFixture(t)
	var outer []tuple.Row
	for i := int64(0); i < 60; i++ {
		outer = append(outer, tuple.IntsRow(i%30)) // keys repeat: morphing pays off
	}
	j := NewIndexNestedLoopJoin(
		NewValues(tuple.Ints(1), outer),
		NewMorphingLookup(file, pool, tree, 1),
		0,
	)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r.Int(1) < 30 {
			want += 2 // each key probed twice
		}
	}
	if len(got) != want {
		t.Errorf("INLJ rows = %d, want %d", len(got), want)
	}
}

func TestNormaliseHelper(t *testing.T) {
	rows := []tuple.Row{tuple.IntsRow(2, 1), tuple.IntsRow(1, 9), tuple.IntsRow(1, 2)}
	normalise(rows)
	if !sort.SliceIsSorted(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0] < rows[j][0]
		}
		return rows[i][1] < rows[j][1]
	}) {
		t.Errorf("normalise did not sort: %v", rows)
	}
}
