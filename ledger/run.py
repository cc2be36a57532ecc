#!/usr/bin/env python3
"""The repo's one perf ledger: five workloads, end to end and per layer.

Three ways in::

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ledger/run.py [--seed N] [--workload NAME] [--repeat K] [--out FILE]
    python3 ledger/run.py compare A.json B.json

The first is the driver's form (see BENCHMARK.json): one workload, one
mode, and the last line of stdout is one JSON object ``{correct,
attempted, failed, metrics}``.  ``--trace 0`` sets the workload up, warms
it and times it with harness tracing off (the end-to-end metrics);
``--trace 1`` replays a fixed-size traced run (the per-layer metrics).

The second form is the ledger: for each workload it runs both modes in
child processes, prints every metric by name with its unit, and writes
one entry per workload, ``{workload, config, e2e, layers, ...}``.  It
exits non-zero when any correctness check failed.

See ledger/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 1.0
"""``setup_s`` is the median of a timed run's set-ups: at least three,
and up to nine while they have taken less than a second together (the
80 ms analytics set-up)."""


def pin_hash_seed():
    """Re-exec once with ``PYTHONHASHSEED=0`` (children inherit it).

    String hashing is randomised per process, so set and dict iteration
    order, and with it the order pages are fetched into the bounded
    buffer pool, would differ from run to run: the slowest Fig-8 queries
    are then fast or slow by the luck of the process.  Pinned, every
    exact count repeats from process to process.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def load_benchmark():
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bootstrap():
    """Make ``repro`` and ``ledger`` importable, or leave with code 2 when
    the product source is not there to measure."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("ledger: src/repro not found next to ledger/; nothing to "
              "measure", file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from ledger import harness

    harness.scrub_environment()


def workload_classes():
    from ledger.analytics import AnalyticsEmbedded
    from ledger.fig8 import Fig8Embedded
    from ledger.linkbench import (
        LinkbenchEmbedded,
        LinkbenchServed,
        LinkbenchSharded,
    )

    classes = (Fig8Embedded, LinkbenchEmbedded, LinkbenchServed,
               LinkbenchSharded, AnalyticsEmbedded)
    return {cls.name: cls for cls in classes}


class Context:
    """What a workload needs from the run: its inputs and its resources."""

    def __init__(self, seed, seconds, resources, tracer):
        self.seed = seed
        self.seconds = seconds
        self.resources = resources
        self.tracer = tracer


# ----------------------------------------------------------------------
# one workload, one mode
# ----------------------------------------------------------------------
def run_timed(workload):
    from ledger.harness import median

    fewest, most = SETUP_REPEATS
    setups = []
    state = None
    try:
        while len(setups) < fewest or (len(setups) < most
                                       and sum(setups) < SETUP_BUDGET_S):
            if state is not None:
                workload.teardown(state)
                state = None
            # each set-up starts from a collected heap: what the previous
            # one left behind is the harness's garbage, not set-up cost
            gc.collect()
            start = perf_counter()
            state = workload.setup()
            setups.append(perf_counter() - start)
        samples, rss_mb, (checked, missed) = workload.timed(state)
    finally:
        if state is not None:
            workload.teardown(state)
    e2e = {"setup_s": median(setups),
           **workload.end_to_end(samples),
           "rss_mb": rss_mb}
    return {
        "e2e": e2e,
        "ungated": {**samples.ungated(), "setup_runs_s": setups},
        "attempted": samples.attempted + checked,
        "failed": samples.failed + missed,
    }


def run_traced(workload, tracer):
    from ledger.harness import RESULTS_DIR

    layers, attempted, failed = workload.traced()
    tracer.write(RESULTS_DIR / f"trace_{workload.name}.json")
    return {"layers": layers, "attempted": attempted, "failed": failed}


def run_one(name, seed, seconds, trace):
    """Run one workload in one mode; returns its (partial) ledger entry."""
    from ledger.harness import Resources, Tracer, environment_fingerprint

    with Resources() as resources:
        tracer = Tracer()
        workload = workload_classes()[name](
            Context(seed, seconds, resources, tracer))
        entry = (run_traced(workload, tracer) if trace
                 else run_timed(workload))
        entry["workload"] = name
        entry["config"] = {**workload.config(), "seconds": seconds}
        entry["fingerprint"] = environment_fingerprint(seed)
    return entry


def contract_metrics(entry, benchmark, trace):
    """The entry's metrics in the driver's shape: every declared name of
    the mode, with its unit.  A layer a workload does not cross did no
    work there and reads 0; a name nobody declared is a harness bug."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    measured = entry["layers" if trace else "e2e"]
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"ledger: undeclared metrics {sorted(unknown)}")
    if not trace:
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise SystemExit(f"ledger: end-to-end metrics missing {missing}")
    return {
        metric["name"]: {"value": measured.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in declared
    }


def print_metrics(workload, metrics, ungated=None):
    for name, metric in metrics.items():
        print(f"{workload:20} {name:36} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    for name, value in (ungated or {}).items():
        if isinstance(value, (int, float)):
            print(f"{workload:20} ({name}) {value:>14.6g}")


def driver_main(args, benchmark):
    entry = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = contract_metrics(entry, benchmark, args.trace)
    print_metrics(entry["workload"], metrics, entry.get("ungated"))
    if args.entry:
        with open(args.entry, "w") as fh:
            json.dump(entry, fh)
    correct = entry["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, entry["attempted"]),
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the ledger: every workload, both modes, one entry each
# ----------------------------------------------------------------------
def child_entry(name, seed, seconds, trace, scratch):
    path = scratch / f"{name}-{trace}.json"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--entry", str(path)],
        stdout=subprocess.PIPE, text=True,
    )
    if not path.exists():
        raise SystemExit(
            f"ledger: {name} --trace {trace} died (rc={done.returncode})")
    with open(path) as fh:
        return json.load(fh)


def ledger_main(args, benchmark):
    from ledger.harness import Resources, median, ratio

    names = [args.workload] if args.workload else [
        workload["name"] for workload in benchmark["workloads"]]
    entries = []
    with Resources() as resources:
        for name in names:
            timed = [child_entry(name, args.seed, args.seconds, 0,
                                 resources.root)
                     for __ in range(args.repeat)]
            traced = child_entry(name, args.seed, args.seconds, 1,
                                 resources.root)
            entry = timed[0]
            # each timed number becomes the median of the runs, with the
            # runs and their spread beside it when there are several
            for part in ("e2e", "ungated"):
                runs = {metric: [run[part][metric] for run in timed]
                        for metric, value in entry[part].items()
                        if isinstance(value, (int, float))}
                entry[part].update({metric: median(values)
                                    for metric, values in runs.items()})
                if args.repeat > 1:
                    entry[part + "_runs"] = runs
                    entry[part + "_spread"] = {
                        metric: ratio(max(values) - min(values),
                                      median(values))
                        for metric, values in runs.items()}
            entry["layers"] = traced["layers"]
            entry["attempted"] = (sum(run["attempted"] for run in timed)
                                  + traced["attempted"])
            entry["failed"] = (sum(run["failed"] for run in timed)
                               + traced["failed"])
            entry["failed_share"] = entry["failed"] / max(1,
                                                          entry["attempted"])
            print_metrics(name, contract_metrics(entry, benchmark, 0),
                          entry["ungated"])
            print_metrics(name, contract_metrics(entry, benchmark, 1))
            print(f"{name:20} {'failed_share':36} "
                  f"{entry['failed_share']:>14.6g} ratio "
                  f"({entry['failed']} of {entry['attempted']})")
            entries.append(entry)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if any(entry["failed"] for entry in entries) else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    bootstrap()
    benchmark = load_benchmark()
    if argv and argv[0] == "compare":
        from ledger.compare import compare_main

        return compare_main(argv[1:], benchmark)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger form: timed runs per workload; the "
                        "entry holds their median and spread")
    parser.add_argument("--out", default=str(LEDGER_DIR / "results"
                                             / "latest.json"))
    parser.add_argument("--entry", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_main(args, benchmark)
    return ledger_main(args, benchmark)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
