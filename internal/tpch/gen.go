// Package tpch implements a scaled-down TPC-H-like substrate: a
// deterministic generator for the seven tables the paper's experiments
// touch and hand-built physical plans for the five queries of
// Figure 4 / Table II (Q1, Q4, Q6, Q7, Q14).
//
// The substitution: the paper runs TPC-H SF10 on PostgreSQL; this
// package generates structurally equivalent integer-only tables at
// configurable scale, with the predicate
// columns and per-query LINEITEM selectivities the paper reports
// (98%, 65%, 2%, 30%, 1%). Dates are day numbers from 1992-01-01,
// money is cents.
package tpch

import (
	"fmt"
	"math/rand"
	"sort"

	"smoothscan/internal/btree"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

// LINEITEM column indices.
const (
	LOrderkey = iota
	LPartkey
	LSuppkey
	LLinenumber
	LQuantity
	LExtendedprice
	LDiscount
	LTax
	LReturnflag
	LLinestatus
	LShipdate
	LCommitdate
	LReceiptdate
	lineitemCols
)

// ORDERS column indices.
const (
	OOrderkey = iota
	OCustkey
	OOrderstatus
	OTotalprice
	OOrderdate
	OOrderpriority
	ordersCols
)

// CUSTOMER column indices.
const (
	CCustkey = iota
	CNationkey
	CMktsegment
	customerCols
)

// SUPPLIER column indices.
const (
	SSuppkey = iota
	SNationkey
	supplierCols
)

// PART column indices.
const (
	PPartkey = iota
	PType
	PSize
	partCols
)

// NATION column indices.
const (
	NNationkey = iota
	NRegionkey
	nationCols
)

// Date domain: days since 1992-01-01, seven years.
const (
	MinDate = 0
	MaxDate = 7*365 + 1
)

// Table is a loaded TPC-H table with a primary-key index on column 0.
type Table struct {
	File *heap.File
	PK   *btree.Tree
}

// DB is a generated TPC-H-like database.
type DB struct {
	Dev      *disk.Device
	Lineitem *Table
	Orders   *Table
	Customer *Table
	Supplier *Table
	Part     *Table
	Nation   *Table
	Region   *Table

	// ShipIdx is the secondary index on LINEITEM.l_shipdate — the
	// index the tuning advisor proposes and all five queries go
	// through.
	ShipIdx *btree.Tree

	// shipdates is the sorted multiset of generated ship dates, used
	// to translate a target selectivity into a date threshold.
	shipdates []int64

	// NumOrders is the scale knob (TPC-H SF1 ≈ 1.5M orders; this
	// generator defaults to thousands).
	NumOrders int64
}

// Config parameterises generation.
type Config struct {
	// NumOrders scales the database; LINEITEM gets 1–7 lines per
	// order (avg 4), as in TPC-H.
	NumOrders int64
	// Customers, Suppliers, Parts default to NumOrders/10,
	// NumOrders/100+10 and NumOrders/5+10.
	Customers int64
	Suppliers int64
	Parts     int64
	// Seed makes generation deterministic.
	Seed int64
}

func (c *Config) defaults() error {
	if c.NumOrders <= 0 {
		return fmt.Errorf("tpch: NumOrders must be positive, got %d", c.NumOrders)
	}
	if c.Customers == 0 {
		c.Customers = c.NumOrders/10 + 10
	}
	if c.Suppliers == 0 {
		c.Suppliers = c.NumOrders/100 + 10
	}
	if c.Parts == 0 {
		c.Parts = c.NumOrders/5 + 10
	}
	return nil
}

func lineitemSchema() *tuple.Schema {
	names := []string{
		"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
		"l_shipdate", "l_commitdate", "l_receiptdate",
	}
	cols := make([]tuple.Column, len(names))
	for i, n := range names {
		cols[i] = tuple.Column{Name: n, Type: tuple.Int64}
	}
	return tuple.MustSchema(cols...)
}

func schemaOf(names ...string) *tuple.Schema {
	cols := make([]tuple.Column, len(names))
	for i, n := range names {
		cols[i] = tuple.Column{Name: n, Type: tuple.Int64}
	}
	return tuple.MustSchema(cols...)
}

// Gen generates the database on the device. Bulk-load I/O is excluded
// from device statistics (they are reset at the end).
func Gen(dev *disk.Device, cfg Config) (*DB, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := &DB{Dev: dev, NumOrders: cfg.NumOrders}

	loadTable := func(schema *tuple.Schema, n int64, fill func(i int64, row tuple.Row)) (*Table, error) {
		file, err := heap.Create(dev, schema)
		if err != nil {
			return nil, err
		}
		b := file.NewBuilder()
		row := tuple.NewRow(schema)
		for i := int64(0); i < n; i++ {
			fill(i, row)
			if err := b.Append(row); err != nil {
				return nil, err
			}
		}
		if err := b.Flush(); err != nil {
			return nil, err
		}
		pk, err := btree.BuildOnColumn(dev, file, 0)
		if err != nil {
			return nil, err
		}
		return &Table{File: file, PK: pk}, nil
	}

	const numNations, numRegions = 25, 5
	var err error
	if db.Region, err = loadTable(schemaOf("r_regionkey", "r_name"), numRegions, func(i int64, r tuple.Row) {
		r.SetInt(0, i)
		r.SetInt(1, i)
	}); err != nil {
		return nil, err
	}
	if db.Nation, err = loadTable(schemaOf("n_nationkey", "n_regionkey"), numNations, func(i int64, r tuple.Row) {
		r.SetInt(NNationkey, i)
		r.SetInt(NRegionkey, i%numRegions)
	}); err != nil {
		return nil, err
	}
	if db.Customer, err = loadTable(schemaOf("c_custkey", "c_nationkey", "c_mktsegment"), cfg.Customers, func(i int64, r tuple.Row) {
		r.SetInt(CCustkey, i)
		r.SetInt(CNationkey, rng.Int63n(numNations))
		r.SetInt(CMktsegment, rng.Int63n(5))
	}); err != nil {
		return nil, err
	}
	if db.Supplier, err = loadTable(schemaOf("s_suppkey", "s_nationkey"), cfg.Suppliers, func(i int64, r tuple.Row) {
		r.SetInt(SSuppkey, i)
		r.SetInt(SNationkey, rng.Int63n(numNations))
	}); err != nil {
		return nil, err
	}
	if db.Part, err = loadTable(schemaOf("p_partkey", "p_type", "p_size"), cfg.Parts, func(i int64, r tuple.Row) {
		r.SetInt(PPartkey, i)
		r.SetInt(PType, rng.Int63n(150)) // 150 part types; PROMO ≈ type < 30
		r.SetInt(PSize, 1+rng.Int63n(50))
	}); err != nil {
		return nil, err
	}

	// Orders and lineitem are generated together so line dates derive
	// from order dates, as in dbgen.
	orderDates := make([]int64, cfg.NumOrders)
	if db.Orders, err = loadTable(
		schemaOf("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_orderpriority"),
		cfg.NumOrders,
		func(i int64, r tuple.Row) {
			date := MinDate + rng.Int63n(MaxDate-151)
			orderDates[i] = date
			r.SetInt(OOrderkey, i)
			r.SetInt(OCustkey, rng.Int63n(cfg.Customers))
			r.SetInt(OOrderstatus, rng.Int63n(3))
			r.SetInt(OTotalprice, 100_00+rng.Int63n(400_000_00))
			r.SetInt(OOrderdate, date)
			r.SetInt(OOrderpriority, rng.Int63n(5))
		}); err != nil {
		return nil, err
	}

	liFile, err := heap.Create(dev, lineitemSchema())
	if err != nil {
		return nil, err
	}
	lb := liFile.NewBuilder()
	row := tuple.NewRow(liFile.Schema())
	for o := int64(0); o < cfg.NumOrders; o++ {
		lines := 1 + rng.Int63n(7)
		for ln := int64(0); ln < lines; ln++ {
			ship := orderDates[o] + 1 + rng.Int63n(121)
			commit := orderDates[o] + 30 + rng.Int63n(61)
			receipt := ship + 1 + rng.Int63n(30)
			row.SetInt(LOrderkey, o)
			row.SetInt(LPartkey, rng.Int63n(cfg.Parts))
			row.SetInt(LSuppkey, rng.Int63n(cfg.Suppliers))
			row.SetInt(LLinenumber, ln)
			row.SetInt(LQuantity, 1+rng.Int63n(50))
			row.SetInt(LExtendedprice, 100+rng.Int63n(95_000_00))
			row.SetInt(LDiscount, rng.Int63n(11))  // 0–10 percent
			row.SetInt(LTax, rng.Int63n(9))        // 0–8 percent
			row.SetInt(LReturnflag, rng.Int63n(3)) // A/N/R
			row.SetInt(LLinestatus, rng.Int63n(2)) // O/F
			row.SetInt(LShipdate, ship)
			row.SetInt(LCommitdate, commit)
			row.SetInt(LReceiptdate, receipt)
			if err := lb.Append(row); err != nil {
				return nil, err
			}
			db.shipdates = append(db.shipdates, ship)
		}
	}
	if err := lb.Flush(); err != nil {
		return nil, err
	}
	liPK, err := btree.BuildOnColumn(dev, liFile, LOrderkey)
	if err != nil {
		return nil, err
	}
	db.Lineitem = &Table{File: liFile, PK: liPK}
	if db.ShipIdx, err = btree.BuildOnColumn(dev, liFile, LShipdate); err != nil {
		return nil, err
	}
	sort.Slice(db.shipdates, func(i, j int) bool { return db.shipdates[i] < db.shipdates[j] })
	dev.ResetStats()
	return db, nil
}

// ShipdatePred returns a predicate on l_shipdate whose true
// selectivity over the generated LINEITEM is as close as possible to
// sel: l_shipdate < threshold.
func (db *DB) ShipdatePred(sel float64) tuple.RangePred {
	if sel <= 0 {
		return tuple.RangePred{Col: LShipdate, Lo: MinDate, Hi: MinDate}
	}
	if sel >= 1 {
		return tuple.RangePred{Col: LShipdate, Lo: MinDate, Hi: MaxDate + 200}
	}
	idx := int(sel * float64(len(db.shipdates)))
	if idx >= len(db.shipdates) {
		idx = len(db.shipdates) - 1
	}
	return tuple.RangePred{Col: LShipdate, Lo: MinDate, Hi: db.shipdates[idx]}
}

// TrueSelectivity returns the exact selectivity of a shipdate
// predicate over the generated data.
func (db *DB) TrueSelectivity(pred tuple.RangePred) float64 {
	lo := sort.Search(len(db.shipdates), func(i int) bool { return db.shipdates[i] >= pred.Lo })
	hi := sort.Search(len(db.shipdates), func(i int) bool { return db.shipdates[i] >= pred.Hi })
	return float64(hi-lo) / float64(len(db.shipdates))
}
