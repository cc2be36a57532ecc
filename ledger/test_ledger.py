"""Self-test of the ledger harness: ``python -m pytest ledger -q``.

Not part of the tier-1 ``testpaths``: it boots servers and runs every
workload once at one second per window (about two minutes in all).
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
RUN = LEDGER_DIR / "run.py"

sys.path.insert(0, str(LEDGER_DIR.parent))
from ledger import run as ledger_run  # noqa: E402

ledger_run.bootstrap()

from ledger import compare, harness, linkbench_ops  # noqa: E402
from ledger.linkbench_ops import (  # noqa: E402
    ID_BASE,
    ID_RANGE,
    BaseGraph,
    ClientStream,
)


@pytest.fixture(scope="module")
def base():
    from repro.cli import build_graph

    return BaseGraph(build_graph("linkbench", 0.1))


def take(stream, count):
    return [next(stream) for __ in range(count)]


# ----------------------------------------------------------------------
# the op generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic_per_seed(base):
    def listing(seed):
        return [(op.name, repr(op.args), repr(op.expected))
                for op in take(ClientStream(base, seed), 2000)]

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


def test_generator_follows_the_table6_mix(base):
    ops = take(ClientStream(base, 3), 50_000)
    reads = sum(op.is_read for op in ops) / len(ops)
    assert 0.67 < reads < 0.71  # Table 6: 69% reads
    counts = {name: 0 for name in linkbench_ops.OP_NAMES}
    for op in ops:
        counts[op.name] += 1
    for name, weight in linkbench_ops.OPERATION_MIX:
        assert abs(counts[name] / len(ops) - weight) < 0.01, name


class Alive:
    """An independent, set-based picture of what is alive on the store;
    ``apply`` asserts that an op only targets live elements."""

    def __init__(self, base):
        self.nodes = set(base.node_ids)
        self.links = (set(base.stable_links)
                      | {eid for eid, __ in base.victim_links})
        self.incident = {}  # created node -> created links touching it

    def apply(self, op):
        nodes, links, args = self.nodes, self.links, op.args
        if op.name == "add_node":
            assert args["id"] not in nodes
            nodes.add(args["id"])
        elif op.name in ("update_node", "get_node"):
            assert args["id"] in nodes, op
        elif op.name == "delete_node":
            assert args["id"] in nodes, op
            nodes.remove(args["id"])
            links -= self.incident.pop(args["id"], set())
        elif op.name == "add_link":
            assert args["id"] not in links
            assert args["src"] in nodes and args["dst"] in nodes, op
            assert args["src"] != args["dst"]
            links.add(args["id"])
            for node in (args["src"], args["dst"]):
                self.incident.setdefault(node, set()).add(args["id"])
        elif op.name in ("update_link", "delete_link"):
            assert args["id"] in links, op
            if op.name == "delete_link":
                links.remove(args["id"])
        elif op.name == "multiget_link":
            assert all(eid in links for eid in args["ids"]), op
        else:
            assert args["id"] in nodes, op


def test_liveness_model_never_targets_a_dead_element(base):
    """50k ops of two racing clients, interleaved, replayed against an
    independent set-based picture of what is alive."""
    clients = 2
    streams = [ClientStream(base, 11, index, clients)
               for index in range(clients)]
    alive = Alive(base)
    for number in range(50_000):
        if number == 20_000:
            for each in streams:
                each.begin_phase(1)
        alive.apply(next(streams[number % clients]))


@pytest.mark.parametrize("seed", range(20))
def test_streams_built_later_know_what_an_earlier_one_deleted(base, seed):
    """The served traced run: one client alone on the store (it owns
    every victim link and deletes some), then new racing clients on the
    same store.  The new streams take the first one's deleted victims as
    ``retired`` and never target them."""
    alive = Alive(base)
    first = ClientStream(base, seed)
    for op in take(first, 2500):
        alive.apply(op)
    first.begin_phase(2)
    for op in take(first, 1000):
        alive.apply(op)
    clients = 2
    later = [ClientStream(base, seed, index, clients, first.deleted_links)
             for index in range(clients)]
    for each in later:
        each.begin_phase(3)
    for number in range(6000):
        alive.apply(next(later[number % clients]))


def test_new_ids_are_disjoint_per_client_and_phase(base):
    seen = {}
    for client in range(2):
        stream = ClientStream(base, 5, client, 2)
        for phase in range(3):
            stream.begin_phase(phase)
            for op in take(stream, 3000):
                if op.name in ("add_node", "add_link"):
                    kind = op.name[4:]
                    slot = (op.args["id"] - ID_BASE) // ID_RANGE
                    assert seen.setdefault((kind, op.args["id"]),
                                           (client, phase)) == (client, phase)
                    assert slot == phase * linkbench_ops.MAX_CLIENTS + client


def test_exact_expectations_match_a_reference_graph(base):
    """One client: the model's expected read results equal what a plain
    PropertyGraph gives when the same ops are applied to it."""
    from repro.cli import build_graph
    from repro.graph.blueprints import Direction

    graph = build_graph("linkbench", 0.1)
    for op in take(ClientStream(base, 9), 5000):
        args = op.args
        if op.name == "add_node":
            graph.add_vertex(args["id"], args["properties"])
        elif op.name == "update_node":
            graph.set_vertex_property(args["id"], args["key"], args["value"])
        elif op.name == "delete_node":
            graph.remove_vertex(args["id"])
        elif op.name == "add_link":
            graph.add_edge(args["src"], args["dst"], args["type"],
                           args["id"], args["properties"])
        elif op.name == "update_link":
            graph.set_edge_property(args["id"], args["key"], args["value"])
        elif op.name == "delete_link":
            graph.remove_edge(args["id"])
        elif op.name == "get_node":
            assert graph.get_vertex(args["id"]).properties == op.expected
        elif op.name == "multiget_link":
            assert all(graph.get_edge(eid) for eid in op.expected)
        else:
            found = sorted(edge.id for edge in graph.get_vertex(
                args["id"]).edges(Direction.OUT, (args["type"],)))
            expected = (len(found) if op.name == "count_link" else found)
            assert op.expected == expected, op


# ----------------------------------------------------------------------
# BENCHMARK.json against what the harness emits
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def declared():
    return ledger_run.load_benchmark()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload, both modes, one second per window."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--seconds", "1", "--seed", "5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as fh:
        return out, json.load(fh)["entries"], done.stdout


def test_metric_names_are_well_formed(declared):
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert all(pattern.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in declared["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_metrics(declared, smoke):
    __, entries, stdout = smoke
    assert [entry["workload"] for entry in entries] == [
        w["name"] for w in declared["workloads"]]
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    emitted = set()
    for entry in entries:
        assert set(entry["e2e"]) == end_to_end, entry["workload"]
        assert all(value > 0 for value in entry["e2e"].values())
        assert entry["failed"] == 0 and entry["attempted"] > 0
        emitted |= set(entry["layers"])
    # both directions: nothing undeclared, nothing declared that no
    # workload measures
    assert emitted == per_layer
    for name in end_to_end | per_layer:
        assert f" {name} " in stdout


def test_entries_carry_the_fingerprints(smoke):
    __, entries, __stdout = smoke
    for entry in entries:
        assert re.fullmatch(r"[0-9a-f]{64}", entry["config"]["dataset_sha256"])
        assert set(entry["fingerprint"]) == {
            "git_head", "python", "nproc", "filesystem", "seed"}
    served = next(e for e in entries if e["workload"] == "linkbench_served")
    assert served["config"]["filesystem"] != ""


def test_reads_on_linkbench_embedded_are_accounted_for(smoke):
    __, entries, __stdout = smoke
    entry = next(e for e in entries if e["workload"] == "linkbench_embedded")
    assert 0.85 <= entry["layers"]["trace.read_coverage"] <= 1.15


def test_smoke_run_leaves_nothing_behind(smoke):
    assert not harness.SCRATCH_ROOT.exists()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def run_compare(declared, *paths):
    out = io.StringIO()
    code = compare.compare_main([str(path) for path in paths], declared, out)
    return code, out.getvalue()


def doctored(smoke, tmp_path, edit):
    path, entries, __ = smoke
    entries = copy.deepcopy(entries)
    edit(entries)
    target = tmp_path / "doctored.json"
    with open(target, "w") as fh:
        json.dump({"entries": entries}, fh)
    return path, target


def test_compare_passes_a_file_against_itself(declared, smoke):
    code, text = run_compare(declared, smoke[0], smoke[0])
    assert code == 0 and "REGRESSION" not in text


def test_compare_fails_a_20_percent_regression(declared, smoke, tmp_path):
    def fatter(entries):
        entries[1]["e2e"]["rss_mb"] *= 1.2  # bound 0.10

    code, text = run_compare(declared, *doctored(smoke, tmp_path, fatter))
    assert code == 1 and text.count("REGRESSION") == 1


def test_compare_fails_a_pooled_tail_the_gated_numbers_miss(declared, smoke,
                                                            tmp_path):
    """A stall confined to a few groups moves the pooled write p95 and
    leaves the quiet-decile metrics alone: compare still fails it, or
    calls it unresolved when the runs spread wider than the bound."""
    def stalled(entries):
        entries[1]["ungated"]["write_p95_ms"] *= 1.5

    def stalled_and_noisy(entries):
        stalled(entries)
        entries[1]["ungated_spread"] = {"write_p95_ms": 0.6}

    code, text = run_compare(declared, *doctored(smoke, tmp_path, stalled))
    assert code == 1 and text.count("REGRESSION") == 1
    code, text = run_compare(
        declared, *doctored(smoke, tmp_path, stalled_and_noisy))
    assert code == 0 and "unresolved" in text


def test_compare_fails_on_failed_ops(declared, smoke, tmp_path):
    def failing(entries):
        entries[0]["failed_share"] = 0.01

    code, __ = run_compare(declared, *doctored(smoke, tmp_path, failing))
    assert code == 1


def test_compare_reports_a_wide_spread_as_unresolved(declared, smoke,
                                                     tmp_path):
    def noisy(entries):
        entries[1]["e2e"]["ops_per_s"] *= 0.7
        entries[1]["e2e_spread"] = {"ops_per_s": 0.5}

    code, text = run_compare(declared, *doctored(smoke, tmp_path, noisy))
    assert code == 0 and "unresolved" in text


def test_compare_refuses_a_different_dataset(declared, smoke, tmp_path):
    def other_data(entries):
        entries[0]["config"]["dataset_sha256"] = "0" * 64

    code, __ = run_compare(declared, *doctored(smoke, tmp_path, other_data))
    assert code == 2


# ----------------------------------------------------------------------
# correctness checks bite
# ----------------------------------------------------------------------
def test_a_corrupted_expected_value_fails_the_run():
    from ledger.analytics import AnalyticsEmbedded

    with harness.Resources() as resources:
        workload = AnalyticsEmbedded(ledger_run.Context(
            seed=1, seconds=0.1, resources=resources,
            tracer=harness.Tracer()))
        workload.expected["components"][1] = -1
        entry = ledger_run.run_timed(workload)
    assert entry["failed"] > 0


def test_driver_form_exits_nonzero_without_the_product(tmp_path):
    """In a directory holding only BENCHMARK.json and ledger/."""
    import shutil

    shutil.copy(LEDGER_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER_DIR, tmp_path / "ledger", ignore=shutil.
                    ignore_patterns("__pycache__", ".scratch", "results"))
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "fig8_embedded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout == ""


# ----------------------------------------------------------------------
# children are reaped, temp dirs removed: success, failure, interrupt
# ----------------------------------------------------------------------
def boot(resources, module, args):
    child = resources.spawn(module, args)
    child.await_ready()
    assert child.members()
    return child


@pytest.mark.parametrize("ending", [None, RuntimeError, KeyboardInterrupt])
def test_resources_reap_children_and_remove_dirs(ending):
    caught = None
    try:
        with harness.Resources() as resources:
            root = resources.root
            path = resources.mkdtemp("cluster")
            server = boot(resources, "repro.server",
                          ["--dataset", "tinker", "--port", "0"])
            cluster = boot(resources, "repro.sharding", [
                "--shards", "2", "--dataset", "tinker", "--port", "0",
                "--data-dir", str(path)])
            assert len(cluster.members()) == 3  # coordinator + 2 workers
            if ending is not None:
                raise ending("stop here")
    except (RuntimeError, KeyboardInterrupt) as exc:
        caught = exc
    assert (caught is None) == (ending is None)
    assert not root.exists()
    assert server.members() == [] and cluster.members() == []
    assert server.process.poll() is not None


def test_a_silent_child_is_given_up_on(monkeypatch):
    """A child that hangs without a word cannot block the run: the
    readiness wait polls the pipe against the boot timeout."""
    monkeypatch.setattr(harness, "BOOT_TIMEOUT_S", 0.5)
    with harness.Resources() as resources:
        child = resources.spawn(
            "timeit", ["-n", "1", "-r", "1", "import time; time.sleep(60)"])
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="not ready"):
            child.await_ready()
        assert time.monotonic() - started < 10
    assert child.members() == []


def test_interrupted_run_cleans_up():
    process = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "linkbench_sharded",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while not harness.SCRATCH_ROOT.exists() and time.monotonic() < deadline:
        time.sleep(0.1)
    time.sleep(3.0)  # let it get as far as booting the cluster
    process.send_signal(signal.SIGINT)
    stdout, __ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert not stdout.strip().endswith("}")  # no result line
    assert not harness.SCRATCH_ROOT.exists()
    survivors = subprocess.run(["pgrep", "-f", str(harness.SCRATCH_ROOT)],
                               capture_output=True, text=True).stdout
    assert survivors.strip() == ""
