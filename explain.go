package smoothscan

import (
	"fmt"
	"math"
	"strings"

	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// PlanNode is one operator of an explained plan.
type PlanNode struct {
	// Name is the operator ("smooth-scan", "filter", "hash-join", ...).
	Name string
	// Detail describes the node's configuration in one line.
	Detail string
	// EstRows is the optimizer's output-cardinality estimate for the
	// node; -1 when the optimizer cannot estimate it (aggregates).
	EstRows int64
	// Children are the node's inputs: one for the streaming stages,
	// two for a join — the left (accumulated) input first, then the
	// right table. Which of the two is the hash build side is in
	// Detail, not the child order.
	Children []*PlanNode
}

// Plan is the compiled form of a Query, as returned by Query.Explain
// (and retrievable from a running query via Rows.Plan). String renders
// it as an indented tree, one operator per line, leaf last.
type Plan struct {
	// Table is the driving (first) table.
	Table string
	// Tables lists every input table of the plan in join order; it has
	// one element for a single-table query.
	Tables []string
	// AccessPath is the driving table's chosen access path.
	AccessPath AccessPath
	// EstimatedRows is the estimated cardinality of the scan/join tree
	// after all pushed-down predicates.
	EstimatedRows int64
	// Parallelism is the driving table's scan worker count (1 = serial).
	Parallelism int
	// Binds lists a prepared execution's parameter bindings
	// ("$lo=1000"), sorted by name; nil for ad-hoc queries.
	Binds []string
	// BindChoices lists the estimate-sensitive decisions the bind
	// phase re-made for a prepared execution — driving conjunct,
	// optimizer path pick, join algorithm and build side, parallelism;
	// nil for ad-hoc queries.
	BindChoices []string
	// Degraded lists the fault-recovery fallbacks the execution applied
	// (parallel to serial, index to smooth, smooth to full, merge join
	// to hash), in the order they were taken; nil for a query that ran
	// as compiled. Only plans retrieved from a Rows can carry entries —
	// Explain never executes, so it never degrades.
	Degraded []string
	// CachedResult reports that the execution was answered from the
	// semantic result-cache tier: the rendered tree below is the plan
	// that *would* have run (and whose earlier run produced the cached
	// entry), but this execution touched no operator and no device.
	// Like Degraded, only plans retrieved from a Rows can carry it.
	CachedResult bool
	// Sharded is the scatter-gather plan of a query compiled against a
	// ShardedDB — strategy, pruning, gather mode, coordinator stages and
	// each active shard's own Plan. When set, the single-DB fields
	// above other than Table, Binds and CachedResult stay zero and Root
	// is nil; String renders the sharded plan.
	Sharded *ShardedPlan
	// Root is the plan's root operator node.
	Root *PlanNode
}

// String renders the plan tree, root first. Prepared executions get
// two extra header lines: the bound parameter values and the
// re-planned-at-bind decisions.
func (p *Plan) String() string {
	if p.Sharded != nil {
		return p.Sharded.String()
	}
	var b strings.Builder
	if len(p.Tables) > 1 {
		fmt.Fprintf(&b, "Query(%s)", strings.Join(p.Tables, " ⋈ "))
	} else {
		fmt.Fprintf(&b, "Query(%s) via %s", p.Table, p.AccessPath)
		if p.Parallelism > 1 {
			fmt.Fprintf(&b, " x%d", p.Parallelism)
		}
	}
	b.WriteByte('\n')
	if len(p.Binds) > 0 {
		fmt.Fprintf(&b, "   bind: %s\n", strings.Join(p.Binds, ", "))
	}
	if len(p.BindChoices) > 0 {
		fmt.Fprintf(&b, "   re-planned at bind: %s\n", strings.Join(p.BindChoices, "; "))
	}
	if len(p.Degraded) > 0 {
		fmt.Fprintf(&b, "   degraded on fault: %s\n", strings.Join(p.Degraded, "; "))
	}
	if p.CachedResult {
		b.WriteString("   served from result cache\n")
	}
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		indent := strings.Repeat("   ", depth)
		est := "?"
		if n.EstRows >= 0 {
			est = fmt.Sprintf("%d", n.EstRows)
		}
		line := n.Name
		if n.Detail != "" {
			line += "(" + n.Detail + ")"
		}
		width := 46 - 3*depth
		if width < 0 {
			width = 0
		}
		fmt.Fprintf(&b, "%s└─ %-*s est≈%s rows\n", indent, width, line, est)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// ShardPlan is one shard's entry in a sharded query's Explain output:
// its key ownership, whether the planner pruned it (and why), and —
// for shards that run — the shard's own compiled plan.
type ShardPlan struct {
	// Shard is the shard index.
	Shard int
	// Owns describes the shard's key ownership ("[100,200)", "h%4=2").
	Owns string
	// Addr is the shard's network address for a remote shard ("" for
	// in-process shards); it renders as "shard 2 @127.0.0.1:7744".
	Addr string
	// Pruned reports that the shard is excluded from the execution.
	Pruned bool
	// Why is the pruning reason for a pruned shard.
	Why string
	// Plan is the shard's own compiled plan; nil for pruned shards.
	Plan *Plan
}

// ShardedPlan is the compiled form of a Query on a ShardedDB
// (Plan.Sharded): the scatter strategy, the pruning decisions, the
// gather mode, the coordinator stages, and each active shard's plan
// tree.
type ShardedPlan struct {
	// Table is the driving table.
	Table string
	// Partition describes the driving table's partitioning
	// ("range(val): (-inf,100) [100,200) [200,+inf)").
	Partition string
	// Strategy is "scan", "partition-wise" or "broadcast".
	Strategy string
	// Gather is "unordered fan-in", "ordered merge by <col>", or
	// "none" for an empty plan.
	Gather string
	// Coordinator lists the stages above the gather, in order
	// ("project", "merge-agg", "sort by x", "limit 10").
	Coordinator []string
	// Binds lists a prepared execution's parameter bindings, like
	// Plan.Binds.
	Binds []string
	// CachedResult reports that the execution this plan was taken from
	// was served from the coordinator's result-cache tier: no shard was
	// touched, and the scatter-gather below describes the plan that
	// would have run. Like Plan.CachedResult.
	CachedResult bool
	// EmptyWhy is set when the plan short-circuits to an empty result
	// with no shard touched.
	EmptyWhy string
	// Shards holds one entry per shard, in shard order.
	Shards []ShardPlan
}

// String renders the sharded plan: a header with the scatter-gather
// configuration, then one block per shard — pruned shards as a single
// line with the reason, active shards with their own plan tree
// indented beneath.
func (p *ShardedPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded(%s) strategy=%s partition=%s\n", p.Table, p.Strategy, p.Partition)
	if len(p.Binds) > 0 {
		fmt.Fprintf(&b, "   bind: %s\n", strings.Join(p.Binds, ", "))
	}
	if p.CachedResult {
		b.WriteString("   served from result cache\n")
	}
	if p.EmptyWhy != "" {
		fmt.Fprintf(&b, "   empty: %s; no device access on any shard\n", p.EmptyWhy)
		return b.String()
	}
	fmt.Fprintf(&b, "   gather: %s\n", p.Gather)
	if len(p.Coordinator) > 0 {
		fmt.Fprintf(&b, "   coordinator: %s\n", strings.Join(p.Coordinator, " → "))
	}
	for _, sp := range p.Shards {
		label := fmt.Sprintf("shard %d", sp.Shard)
		if sp.Addr != "" {
			label += " @" + sp.Addr
		}
		if sp.Pruned {
			fmt.Fprintf(&b, "└─ %s %s: pruned — %s\n", label, sp.Owns, sp.Why)
			continue
		}
		fmt.Fprintf(&b, "└─ %s %s:\n", label, sp.Owns)
		for _, line := range strings.Split(strings.TrimRight(sp.Plan.String(), "\n"), "\n") {
			b.WriteString("   ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// explain assembles the plan of a compiled execution, each active
// shard's tree the Explain of the query that shard runs.
func (se *shardExec) explain() (*Plan, error) {
	s := se.s
	p := &ShardedPlan{
		Table:     se.pt.Inputs[0].Table,
		Partition: se.part.Describe(),
		Strategy:  se.strategy,
		EmptyWhy:  se.emptyWhy,
	}
	if se.cq0.annotate {
		p.Binds = renderBinds(se.cq0.binds)
	}
	whole := &Plan{Table: p.Table, Binds: p.Binds, Sharded: p}
	if se.emptyWhy != "" {
		p.Gather = "none"
		return whole, nil
	}
	if se.ordered {
		p.Gather = fmt.Sprintf("ordered merge by %s", se.gatherSchema.Col(se.keyCol).Name)
	} else {
		p.Gather = "unordered fan-in"
	}
	if se.strategy == strategyBroadcast {
		p.Coordinator = append(p.Coordinator, fmt.Sprintf("broadcast %s (shards %v) into every %s join",
			se.pt.Inputs[se.bcInput].Table, se.bcActive, se.pt.Inputs[se.scanInput].Table))
	}
	p.Coordinator = append(p.Coordinator, se.coord.describe(se.pt.Out)...)
	active := make(map[int]bool, len(se.active))
	for _, si := range se.active {
		active[si] = true
	}
	for i := 0; i < len(s.shards); i++ {
		sp := ShardPlan{Shard: i, Owns: se.part.DescribeShard(i), Addr: s.drivers[i].address()}
		if !active[i] {
			sp.Pruned = true
			sp.Why = se.prunedWhy[i]
		} else {
			plan, err := se.shardQuery(i).Explain()
			if err != nil {
				return nil, err
			}
			sp.Plan = plan
		}
		p.Shards = append(p.Shards, sp)
	}
	return whole, nil
}

// fmtPred renders a range predicate over a named column compactly,
// eliding open bounds. A bound that came from a prepared-statement
// parameter renders as its $name marker (the bound values appear on
// the plan's "bind:" header line instead); loSrc/hiSrc name the
// parameters, "" for a literal bound, rendered as its value.
func fmtPred(name string, p tuple.RangePred, loSrc, hiSrc string) string {
	bound := func(v int64, src string) string {
		if src != "" {
			return "$" + src
		}
		return fmt.Sprintf("%d", v)
	}
	openLo := p.Lo == math.MinInt64 && loSrc == ""
	openHi := p.Hi == math.MaxInt64 && hiSrc == ""
	switch {
	case openLo && openHi:
		return name + "=*"
	case p.Hi == p.Lo+1 && loSrc == "" && hiSrc == "":
		return fmt.Sprintf("%s=%d", name, p.Lo)
	case p.Hi <= p.Lo:
		return name + "=∅"
	case p.Hi == p.Lo+1 && loSrc == hiSrc && loSrc != "":
		return fmt.Sprintf("%s=$%s", name, loSrc)
	case openLo:
		return fmt.Sprintf("%s<%s", name, bound(p.Hi, hiSrc))
	case openHi:
		return fmt.Sprintf("%s>=%s", name, bound(p.Lo, loSrc))
	default:
		return fmt.Sprintf("%s<=%s<%s", bound(p.Lo, loSrc), name, bound(p.Hi, hiSrc))
	}
}

// inputNode renders one table access (scan leaf, parallel wrapper,
// residual filter) as its Explain subtree — the same operators
// buildInput constructs.
func (cq *compiledQuery) inputNode(a *tableAccess) *PlanNode {
	var d []string
	d = append(d, a.name+": "+a.driving.render())
	if a.spec.Path == plan.PathSmooth {
		d = append(d, "policy="+a.spec.Smooth.Policy.String(), "trigger="+a.spec.Smooth.Trigger.String())
	}
	if a.choice != nil {
		d = append(d, "chosen-by=optimizer")
	}
	if a.spec.Ordered {
		d = append(d, "ordered")
	}
	var rs []string
	for _, r := range a.residual {
		rs = append(rs, r.render())
	}
	pushed := a.pushed()
	if pushed {
		d = append(d, "residual: "+strings.Join(rs, " and "))
	}
	scanEst := a.spec.Smooth.EstimatedCard // the driving conjunct's estimate
	if pushed {
		scanEst = a.estScan
	}
	node := &PlanNode{Name: a.spec.Path.String(), Detail: strings.Join(d, ", "), EstRows: scanEst}
	if a.spec.Parallelism > 1 {
		node = &PlanNode{
			Name:     "parallel",
			Detail:   fmt.Sprintf("%d workers, unordered fan-in", a.spec.Parallelism),
			EstRows:  scanEst,
			Children: []*PlanNode{node},
		}
	}
	if len(a.residual) > 0 && !pushed {
		node = &PlanNode{
			Name:     "filter",
			Detail:   strings.Join(rs, " and "),
			EstRows:  a.estScan,
			Children: []*PlanNode{node},
		}
	}
	return node
}

// plan renders the compiled query as its Explain tree. It mirrors
// build exactly — every operator build constructs gets one node here,
// so the explained plan is the executed plan.
func (cq *compiledQuery) plan() *Plan {
	drv := cq.driving()
	p := &Plan{
		Table:         drv.name,
		AccessPath:    publicPaths[drv.spec.Path],
		EstimatedRows: cq.estRoot(),
		Parallelism:   drv.spec.Parallelism,
	}
	if cq.annotate {
		p.Binds = renderBinds(cq.binds)
		p.BindChoices = cq.renderBindNotes()
	}
	if len(cq.degraded) > 0 {
		p.Degraded = append([]string(nil), cq.degraded...)
	}
	for _, a := range cq.inputs {
		p.Tables = append(p.Tables, a.name)
	}
	if cq.emptyWhy != "" {
		p.Parallelism = 1
		p.EstimatedRows = 0
		p.Root = &PlanNode{Name: "empty", Detail: cq.emptyWhy + "; no device access", EstRows: 0}
		return p
	}

	// The scan/join tree: each input's access subtree, folded left to
	// right through the join stages. leftLabel names the accumulated
	// left side, so chained joins stay self-describing.
	cur := cq.inputNode(drv)
	leftLabel := drv.name
	for k, st := range cq.joins {
		right := cq.inputs[k+1]
		d := fmt.Sprintf("%s = %s.%s", st.leftName, right.name, st.rightName)
		if st.algo == plan.JoinMerge {
			d += ", both inputs key-ordered"
		} else {
			build, probe := right.name, leftLabel
			if st.buildLeft {
				build, probe = probe, build
			}
			d += fmt.Sprintf(", build=%s, probe=%s", build, probe)
		}
		cur = &PlanNode{
			Name:     st.algo.String() + "-join",
			Detail:   d,
			EstRows:  st.estRows,
			Children: []*PlanNode{cur, cq.inputNode(right)},
		}
		leftLabel = "(" + leftLabel + " ⋈ " + right.name + ")"
	}

	wrap := func(n *PlanNode) {
		n.Children = []*PlanNode{cur}
		cur = n
	}
	if cq.selIdx != nil {
		names := make([]string, len(cq.selIdx))
		for i, c := range cq.selIdx {
			names[i] = cq.base.Col(c).Name
		}
		wrap(&PlanNode{Name: "project", Detail: strings.Join(names, ", "), EstRows: cur.EstRows})
	}
	if cq.groupIdx >= 0 {
		var as []string
		for _, sp := range cq.aggSpecs {
			as = append(as, sp.Name)
		}
		wrap(&PlanNode{
			Name:    "hash-agg",
			Detail:  fmt.Sprintf("group by %s: %s", cq.out.Col(0).Name, strings.Join(as, ", ")),
			EstRows: -1,
		})
	}
	if cq.orderIdx >= 0 {
		name := cq.out.Col(cq.orderIdx).Name
		if cq.sortIdx >= 0 {
			wrap(&PlanNode{Name: "sort", Detail: "by " + name, EstRows: cur.EstRows})
		} else {
			via := "order-preserving scan"
			if cq.orderVia == "group" {
				via = "group-key order"
			}
			wrap(&PlanNode{Name: "ordered", Detail: "by " + name + " via " + via + ", no sort", EstRows: cur.EstRows})
		}
	}
	if cq.hasLim {
		est := cq.limit
		if cur.EstRows >= 0 && cur.EstRows < est {
			est = cur.EstRows
		}
		wrap(&PlanNode{Name: "limit", Detail: fmt.Sprintf("%d", cq.limit), EstRows: est})
	}
	p.Root = cur
	return p
}
