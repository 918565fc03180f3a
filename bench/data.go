package main

import "math/rand"

// The generated table has the shape of internal/loadgen's: t(id, val,
// p1..p8), id dense, every other column uniform over the domain, a
// secondary index on val.
const (
	tableName  = "t"
	indexedCol = "val"
	numCols    = 10
	domain     = 100_000
)

var columnNames = []string{"id", "val", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"}

// dataset is the generated table, kept in memory for the run, and the
// oracle over it: every query in the benchmark is a half-open range on
// val, so per-value prefix sums of row counts and row hashes answer
// any of them in O(1).
type dataset struct {
	rows []int64 // row-major, numCols values per row
	n    int

	cnt []int64  // cnt[v]: rows with val < v; len domain+1
	dig []uint64 // dig[v]: sum of rowHash over rows with val < v

	// extra holds rows inserted after the load, in insertion order.
	extra []insertedRow
}

type insertedRow struct {
	val  int64
	hash uint64
}

// hashMul holds one odd multiplier per column.
var hashMul = [numCols]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93,
	0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x2545f4914f6cdd1d, 0x94d049bb133111eb,
	0xbf58476d1ce4e5b9, 0x9fb21c651e98df25,
}

// rowHash mixes one row into 64 bits. A result's digest is the
// wrapping sum of its rows' hashes, so it does not depend on delivery
// order and the oracle can keep it as a prefix sum.
func rowHash(r []int64) uint64 {
	var h uint64
	for i, v := range r {
		h += uint64(v) * hashMul[i%numCols]
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// generate builds the n-row table from seed. The rng stream is
// consumed exactly as internal/loadgen and workload.BuildMicro consume
// theirs, so the ladder's BuildMicro table of the same seed holds the
// same rows.
func generate(seed int64, n int) *dataset {
	ds := &dataset{rows: make([]int64, n*numCols), n: n}
	rng := rand.New(rand.NewSource(seed))
	perVal := make([]int64, domain+1)
	perDig := make([]uint64, domain+1)
	for i := 0; i < n; i++ {
		r := ds.rows[i*numCols : (i+1)*numCols]
		r[0] = int64(i)
		for c := 1; c < numCols; c++ {
			r[c] = rng.Int63n(domain)
		}
		perVal[r[1]+1]++
		perDig[r[1]+1] += rowHash(r)
	}
	for v := 1; v <= domain; v++ {
		perVal[v] += perVal[v-1]
		perDig[v] += perDig[v-1]
	}
	ds.cnt, ds.dig = perVal, perDig
	return ds
}

func (ds *dataset) row(i int) []int64 { return ds.rows[i*numCols : (i+1)*numCols] }

// noteInsert records a row the benchmark inserted after the load.
func (ds *dataset) noteInsert(r []int64) {
	ds.extra = append(ds.extra, insertedRow{val: r[1], hash: rowHash(r)})
}

// expect is the oracle: the row count and digest of lo <= val < hi
// over the loaded rows and the first nExtra inserted ones.
func (ds *dataset) expect(lo, hi int64, nExtra int) (rows int64, digest uint64) {
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		if v > domain {
			return domain
		}
		return v
	}
	lo, hi = clamp(lo), clamp(hi)
	if hi > lo {
		rows, digest = ds.cnt[hi]-ds.cnt[lo], ds.dig[hi]-ds.dig[lo]
	}
	for _, e := range ds.extra[:nExtra] {
		if e.val >= lo && e.val < hi {
			rows++
			digest += e.hash
		}
	}
	return rows, digest
}
