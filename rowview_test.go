package smoothscan_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/internal/server"
)

// TestRowIsAViewUntilNext pins Cursor.Row's one contract on all three
// engines, whose cursor is the one *smoothscan.Rows: the slice is the
// current row until the next Next or Close, CopyRow (or a clone)
// retains it, and no row is current before the first Next, after the
// last one, and after Close. The scan spans several refills of the
// drain batch (and several Batch frames remotely), so a clone taken in
// one refill is checked against the oracle after the buffer under it
// has been overwritten.
func TestRowIsAViewUntilNext(t *testing.T) {
	const (
		numRows, domain, seed = 6000, 1000, 11
		lo, hi                = 100, 600
	)
	// The oracle replays loadgen's generator stream.
	var oracle [][]int64
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < numRows; i++ {
		row := make([]int64, 10)
		row[0] = i
		for c := 1; c < len(row); c++ {
			row[c] = rng.Int63n(domain)
		}
		if row[1] >= lo && row[1] < hi {
			oracle = append(oracle, row)
		}
	}
	if len(oracle) < 2*1024 {
		t.Fatalf("oracle has %d rows; the scan must span several refills", len(oracle))
	}

	db, err := loadgen.BuildDB(numRows, domain, seed, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := loadgen.BuildShardedDB(numRows, domain, seed, 2, smoothscan.Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := smoothscan.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	for _, tc := range []struct {
		name string
		eng  smoothscan.Engine
	}{
		{"DB", db},
		{"ShardedDB", sharded},
		{"Conn", conn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := tc.eng.Table(loadgen.Table).
				Where(loadgen.IndexedCol, smoothscan.Between(lo, hi)).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if row := cur.Row(); len(row) != 0 {
				t.Errorf("Row() before the first Next = %v, want length 0", row)
			}
			var got [][]int64
			buf := make([]int64, 16)
			for cur.Next() {
				row := cur.Row()
				if n := cur.CopyRow(buf); !slices.Equal(buf[:n], row) {
					t.Fatalf("row %d: CopyRow = %v, Row() = %v", len(got), buf[:n], row)
				}
				if again := cur.Row(); !slices.Equal(again, row) {
					t.Fatalf("row %d: a second Row() = %v, the first = %v", len(got), again, row)
				}
				if cap(row) != len(row) {
					t.Fatalf("row %d: Row() has capacity %d past its %d values; an append would overwrite the next row", len(got), cap(row), len(row))
				}
				got = append(got, slices.Clone(row))
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			if row := cur.Row(); len(row) != 0 {
				t.Errorf("Row() after the last Next = %v, want length 0", row)
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if row := cur.Row(); len(row) != 0 {
				t.Errorf("Row() after Close = %v, want length 0", row)
			}
			sortRows(got)
			if !slices.EqualFunc(got, oracle, slices.Equal[[]int64]) {
				t.Errorf("cloned rows differ from the oracle: got %d rows, want %d", len(got), len(oracle))
			}
		})
	}
}
