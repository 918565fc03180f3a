# ab_gate.jq — the verdict `make ab-gate` takes from a paired run:
#
#   jq -r --slurpfile spec BENCHMARK.json -f scripts/ab_gate.jq BENCH_e2e.json
#
# Gated are the cells no machine phase can move — simulated cost and
# the two allocation counters — against BENCHMARK.json's own bounds,
# plus the failed-operation counts. Every timing cell is printed and
# never gated: one short pair on a shared runner cannot resolve them.
($spec[0].end_to_end | map({(.name): .bound}) | add) as $bound
| ["simcost_per_query", "allocs_per_query", "alloc_kb_per_query"] as $gated
| def worse: if .better == "lower" then .b.median - .a.median else .a.median - .b.median end;
  [ .workloads[] | .name as $w
    | (select(.failed.b > .failed.a) | "\($w): failed operations \(.failed.a) -> \(.failed.b)"),
      (.metrics[] | select(.name as $n | $gated | index($n))
        | select(worse > $bound[.name] * .a.median)
        | "\($w) \(.name): \(.a.median) -> \(.b.median), bound \($bound[.name] * 100)%")
  ] as $bad
| (.workloads[] | .name as $w | .metrics[]
    | "\(if .name as $n | $gated | index($n) then "gated " else "report" end) \($w) \(.name) [\(.unit)]: \(.a.median) -> \(.b.median)"),
  if $bad == [] then "ab-gate: ok (\(.a.commit) vs \(.b.commit))"
  else ("ab-gate: worse than \(.a.commit) beyond BENCHMARK.json's bound:\n  " + ($bad | join("\n  ")) + "\n" | halt_error(1)) end
