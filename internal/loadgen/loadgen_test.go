package loadgen

import (
	"reflect"
	"testing"

	"smoothscan"
)

const (
	testRows   = 3000
	testDomain = 1000
	testSeed   = 11
	testShards = 3
)

var testOpts = smoothscan.Options{PoolPages: 32}

// TestShardPlacementAgrees pins that every topology derives placement
// from ShardParts: the in-process sharded table is partitioned by it,
// each of its shards holds exactly the rows the standalone
// BuildShardSlice of that shard holds, and together they hold BuildDB's
// row count.
func TestShardPlacementAgrees(t *testing.T) {
	s, err := BuildShardedDB(testRows, testDomain, testSeed, testShards, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	part, err := s.Partitioning(Table)
	if err != nil {
		t.Fatal(err)
	}
	if want := ShardParts(testDomain, testShards); !reflect.DeepEqual(part, want) {
		t.Errorf("sharded partitioning %+v, want ShardParts %+v", part, want)
	}
	counts, err := s.ShardRows(Table)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, n := range counts {
		slice, err := BuildShardSlice(testRows, testDomain, testSeed, i, testShards, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slice.NumRows(Table)
		slice.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Errorf("shard %d: BuildShardSlice holds %d rows, BuildShardedDB %d", i, got, n)
		}
		total += n
	}
	db, err := BuildDB(testRows, testDomain, testSeed, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, err := db.NumRows(Table); err != nil || n != total || n != testRows {
		t.Errorf("BuildDB rows = %d (%v), shards sum to %d, want %d", n, err, total, testRows)
	}
	if _, err := BuildShardSlice(testRows, testDomain, testSeed, testShards, testShards, testOpts); err == nil {
		t.Error("out-of-range shard id accepted")
	}
}
