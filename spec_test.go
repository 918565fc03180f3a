package smoothscan

import (
	"testing"

	"smoothscan/internal/wire"
)

// The seam that replaced the three query representations: a Query's
// state is the wire spec, so what used to be two hand-written
// translators is now "encode, decode, bind". These tests pin that the
// trip loses nothing the engines key on.

// viaWire sends q's spec through the wire codec and binds the decoded
// spec the way the server does, then re-binds it to q's own engine.
func viaWire(t *testing.T, shard0 *DB, q *Query) *Query {
	t.Helper()
	spec, err := q.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	m, err := wire.DecodeExecute(wire.Execute{Spec: spec}.Marshal())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back := shard0.QueryFromSpec(m.Spec)
	back.eng = q.eng
	return back
}

// explainText renders a query's plan, or its compile error (a
// parameterized shape explains to ErrUnboundParam either way).
func explainText(q *Query) string {
	p, err := q.Explain()
	if err != nil {
		return "error: " + err.Error()
	}
	return p.String()
}

func TestSpecRoundTrip(t *testing.T) {
	type shape struct {
		name   string
		shard0 *DB
		q      *Query
	}
	var shapes []shape
	add := func(group string, un *DB, s *ShardedDB, cases []shardCase) {
		for _, c := range cases {
			shapes = append(shapes,
				shape{group + "/local/" + c.name, un, c.un(un)},
				shape{group + "/sharded/" + c.name, s.Shard(0), c.sh(s)})
		}
	}
	un, s := buildGridUnsharded(t), buildGridSharded(t, 4, "range")
	add("grid", un, s, shardGridCases())
	jun := buildJoinUnsharded(t)
	add("join", jun, buildJoinSharded(t, 4, pwParts(4)), shardJoinCases())
	add("broadcast", jun, buildJoinSharded(t, 4, bcParts(4)), shardBroadcastCases())
	// The remote grids' shapes the sharded ones do not already cover:
	// parameters in every argument position, renamed aggregates, and
	// every comparison kind.
	add("remote", un, s, []shardCase{
		{"prepared", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Between(Param("lo"), Param("hi"))).Limit(Param("n"))
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Between(Param("lo"), Param("hi"))).Limit(Param("n"))
			}},
		{"half-bound", false,
			func(db *DB) *Query { return db.Query("t").Where("val", Between(100, Param("hi"))) },
			func(s *ShardedDB) *Query { return s.Query("t").Where("val", Between(100, Param("hi"))) }},
		{"kinds", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Gt(10)).Where("val", Le(900)).Where("g", Eq(3)).Where("id", Lt(5000))
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Gt(10)).Where("val", Le(900)).Where("g", Eq(3)).Where("id", Lt(5000))
			}},
		{"renamed-aggs", true,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Lt(300)).
					GroupBy("g", Count().As("n"), Sum("p").As("s"), Min("val"), Max("val")).OrderBy("g")
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Lt(300)).
					GroupBy("g", Count().As("n"), Sum("p").As("s"), Min("val"), Max("val")).OrderBy("g")
			}},
		{"options", false,
			func(db *DB) *Query {
				return db.Query("t").Where("val", Ge(1200)).Select("id", "val").OrderBy("id").Limit(37).
					WithOptions(ScanOptions{Path: PathAuto, Policy: Greedy, Trigger: SLADriven, SLABound: 1.5,
						Ordered: true, EstimatedRows: 77, MaxRegionPages: 64, ResultCacheBudget: 1 << 20, Parallelism: 3})
			},
			func(s *ShardedDB) *Query {
				return s.Query("t").Where("val", Ge(1200)).Select("id", "val").OrderBy("id").Limit(37).
					WithOptions(ScanOptions{Path: PathAuto, Policy: Greedy, Trigger: SLADriven, SLABound: 1.5,
						Ordered: true, EstimatedRows: 77, MaxRegionPages: 64, ResultCacheBudget: 1 << 20, Parallelism: 3})
			}},
	})

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			back := viaWire(t, sh.shard0, sh.q)
			if back.err != nil {
				t.Fatalf("decoded spec refused: %v", back.err)
			}
			if got, want := back.canonicalKey(), sh.q.canonicalKey(); got != want {
				t.Errorf("canonicalKey changed:\n got %s\nwant %s", got, want)
			}
			if got, want := back.semanticKey(), sh.q.semanticKey(); got != want {
				t.Errorf("semanticKey changed:\n got %s\nwant %s", got, want)
			}
			if got, want := explainText(back), explainText(sh.q); got != want {
				t.Errorf("Explain changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}
