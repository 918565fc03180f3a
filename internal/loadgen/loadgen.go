// Package loadgen builds the synthetic micro-benchmark table the load
// tooling shares. ssload (local mode) and ssserver generate the same
// data from the same flags, so a digest computed over the wire is
// comparable to one computed in-process — the remote-equivalence
// property the harness checks rides on this single generator.
package loadgen

import (
	"fmt"
	"math/rand"

	"smoothscan"
)

// Table is the generated table's name.
const Table = "t"

// IndexedCol is the indexed query column.
const IndexedCol = "val"

// columns is the generated table's schema: id dense key, val indexed,
// p1..p8 payload.
var columns = []string{"id", "val", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"}

// appender is the bulk-load surface TableBuilder and
// ShardedTableBuilder share.
type appender interface {
	Append(vals ...int64) error
	Finish() error
}

// fill generates the one row stream every topology shares — id dense,
// every other column uniform over [0, domain) from seed's rng — appends
// the rows whose val keep accepts (nil keeps all) and finishes the
// table. The rng advances for skipped rows too, so every caller sees
// the same global row multiset.
func fill(tb appender, rows, domain, seed int64, keep func(val int64) bool) error {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, len(columns))
	for i := int64(0); i < rows; i++ {
		vals[0] = i
		for c := 1; c < len(vals); c++ {
			vals[c] = rng.Int63n(domain)
		}
		if keep != nil && !keep(vals[1]) {
			continue
		}
		if err := tb.Append(vals...); err != nil {
			return err
		}
	}
	return tb.Finish()
}

// BuildDB loads the micro-benchmark-shaped table, val indexed uniform
// over the domain.
func BuildDB(rows, domain, seed int64, opts smoothscan.Options) (*smoothscan.DB, error) {
	return buildDB(rows, domain, seed, opts, nil)
}

// ShardParts is the partitioning every sharded topology of the
// generated table agrees on: range partitioning of the indexed column
// with equal-width bounds over the domain. ssload -shards, ssload
// -shard-addrs and ssserver -shard-id must all derive placement from
// this one function, or rows would land on (or be looked for at) the
// wrong shard.
func ShardParts(domain int64, n int) smoothscan.Partitioning {
	return smoothscan.RangePartitioning(IndexedCol, smoothscan.EqualWidthBounds(0, domain, n)...)
}

// BuildShardSlice loads shard shardID's slice of the n-way sharded
// table as a standalone DB: the rows of BuildDB's stream that
// ShardParts routes to this shard. N ssserver processes each serving
// their BuildShardSlice are collectively the same table BuildShardedDB
// holds in one process.
func BuildShardSlice(rows, domain, seed int64, shardID, n int, opts smoothscan.Options) (*smoothscan.DB, error) {
	if shardID < 0 || shardID >= n {
		return nil, fmt.Errorf("loadgen: shard id %d out of range [0, %d)", shardID, n)
	}
	part := ShardParts(domain, n)
	return buildDB(rows, domain, seed, opts, func(val int64) bool { return part.Route(val) == shardID })
}

// buildDB loads the rows keep accepts into a fresh DB and indexes val.
func buildDB(rows, domain, seed int64, opts smoothscan.Options, keep func(int64) bool) (*smoothscan.DB, error) {
	db, err := smoothscan.Open(opts)
	if err != nil {
		return nil, err
	}
	tb, err := db.CreateTable(Table, columns...)
	if err != nil {
		return nil, err
	}
	if err := fill(tb, rows, domain, seed, keep); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(Table, IndexedCol); err != nil {
		return nil, err
	}
	return db, nil
}

// BuildShardedDB loads the same table across n shards placed by
// ShardParts (equal-width ranges, so a uniform load balances). The row
// stream is BuildDB's — only the placement differs — so digests over
// the same predicate ranges are comparable between sharded and
// unsharded runs.
func BuildShardedDB(rows, domain, seed int64, n int, opts smoothscan.Options) (*smoothscan.ShardedDB, error) {
	s, err := smoothscan.OpenSharded(n, opts)
	if err != nil {
		return nil, err
	}
	tb, err := s.CreateShardedTable(Table, ShardParts(domain, n), columns...)
	if err != nil {
		return nil, err
	}
	if err := fill(tb, rows, domain, seed, nil); err != nil {
		return nil, err
	}
	if err := s.CreateIndex(Table, IndexedCol); err != nil {
		return nil, err
	}
	return s, nil
}
