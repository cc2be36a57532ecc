"""``run.py compare A.json B.json``: diff two ledger files.

For every workload both files hold, each end-to-end metric of B is set
against A and the regression bound stored in ``BENCHMARK.json``:

* ``REGRESSION`` — B is worse than A by more than the bound;
* ``improved`` / ``unchanged`` — B is better by more than the bound, or
  within it;
* ``unresolved`` — either file recorded a run-to-run spread (``--repeat``)
  wider than the bound, so the pair cannot be told apart; it is reported,
  never passed off as unchanged, and does not fail the comparison.

The driver gates the quiet-decile statistics, which cannot see a stall
confined to some groups of the window.  The pooled numbers of the same
window can, so they get the same verdicts here, against the bound of the
gated metric they belong to (``POOLED``): a slower checkpoint or a longer
commit tail that the quiet decile lets through fails the comparison.
They move with every burst of the box, so compare files made with
``--repeat``: a spread wider than the bound reads ``unresolved``.

``failed_share`` has an absolute bound.  Per-layer deltas are printed
for reading, without a verdict: they have no bound.  Entries whose
dataset fingerprints differ are refused, so an edit to ``repro.datasets``
cannot pass as a speed-up.  Exits 1 on any regression, 2 on a refusal.
"""

from __future__ import annotations

import json
import sys

FAILED_SHARE_BOUND = 0.001

POOLED = {
    "window_ops_per_s": "ops_per_s",
    "pooled_p50_ms": "op_p50_ms",
    "pooled_p90_ms": "op_p90_ms",
    "pooled_p95_ms": "op_p90_ms",
    "read_p95_ms": "op_p90_ms",
    "write_p95_ms": "op_p90_ms",
}
"""Pooled number of the timed window -> the gated metric whose unit,
direction and bound it takes."""


def load_entries(path):
    with open(path) as fh:
        return {entry["workload"]: entry for entry in json.load(fh)["entries"]}


def worse_by(metric, before, after):
    """How much worse *after* is, as a share of *before* (negative when
    it is better)."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def verdict(metric, before, after, spreads):
    bound = metric["bound"]
    if any(spread is not None and spread > bound for spread in spreads):
        return "unresolved"
    change = worse_by(metric, before, after)
    if change > bound:
        return "REGRESSION"
    return "improved" if change < -bound else "unchanged"


def metric_rows(benchmark):
    """``(entry part, key, metric)`` of everything that gets a verdict:
    the gated metrics, then the pooled numbers under their bounds."""
    gated = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    rows = [("e2e", key, metric) for key, metric in gated.items()]
    rows += [("ungated", key, gated[like]) for key, like in POOLED.items()]
    return rows


def compare_workload(name, old, new, benchmark, out):
    regressions = 0
    print(f"\n== {name}", file=out)
    for part, key, metric in metric_rows(benchmark):
        before, after = (entry.get(part, {}).get(key) for entry in (old, new))
        if part == "ungated" and not (before and after):
            continue  # nothing of the kind in this workload (no writes)
        spreads = [entry.get(part + "_spread", {}).get(key)
                   for entry in (old, new)]
        result = verdict(metric, before, after, spreads)
        regressions += result == "REGRESSION"
        print(f"  {key:16} {before:12.5g} -> {after:12.5g} {metric['unit']:5}"
              f" worse by {worse_by(metric, before, after):+8.2%}"
              f" (bound {metric['bound']:.0%})  {result}", file=out)
    share = new.get("failed_share", 0.0)
    failed = "REGRESSION" if share > FAILED_SHARE_BOUND else "unchanged"
    regressions += failed == "REGRESSION"
    print(f"  {'failed_share':16} {old.get('failed_share', 0.0):12.5g} -> "
          f"{share:12.5g} ratio (absolute bound {FAILED_SHARE_BOUND})  "
          f"{failed}", file=out)
    for metric in benchmark["per_layer"]:
        key = metric["name"]
        before = old["layers"].get(key, 0.0)
        after = new["layers"].get(key, 0.0)
        if not before and not after:
            continue  # a layer this workload does not cross
        change = f"{(after - before) / abs(before):+8.2%}" if before else "     new"
        print(f"    {key:36} {before:12.5g} -> {after:12.5g} "
              f"{metric['unit']:6} {change}", file=out)
    return regressions


def compare_main(argv, benchmark, out=sys.stdout):
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    old, new = load_entries(argv[0]), load_entries(argv[1])
    shared = [name for name in old if name in new]
    if not shared:
        print("compare: the two files share no workload", file=sys.stderr)
        return 2
    for name in shared:
        prints = [entries[name]["config"].get("dataset_sha256")
                  for entries in (old, new)]
        if prints[0] != prints[1]:
            print(f"compare: refusing {name}: dataset fingerprints differ "
                  f"({prints[0]} vs {prints[1]})", file=sys.stderr)
            return 2
    regressions = sum(
        compare_workload(name, old[name], new[name], benchmark, out)
        for name in shared)
    print(f"\n{regressions} regression(s) over {len(shared)} workload(s)",
          file=out)
    return 1 if regressions else 0
