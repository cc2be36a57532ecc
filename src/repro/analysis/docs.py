"""Markdown docs drift checker (rule ``docs-links``).

Formerly the standalone ``tools/check_docs_links.py``; folded into
reprolint so there is one analysis entry point.  Three kinds of drift
are caught across the repo-root and ``docs/`` markdown files:

1. **Markdown links** — ``[text](path)`` whose relative target does not
   exist (external ``http(s)://`` / ``mailto:`` and pure ``#anchor``
   links are skipped).
2. **Inline file paths** — backticked references like
   ``src/repro/cli.py`` that point at files which are gone.
3. **CLI commands** — backticked ``:command`` references (``:explain``,
   ``:stats``, ...) that the shell in ``src/repro/cli.py`` no longer
   dispatches.
4. **EXPLAIN ANALYZE vocabulary** — every annotation field in
   ``EXPLAIN_ANNOTATION_FIELDS`` (``src/repro/obs/stats.py``) must be
   documented, backticked, in ``docs/OBSERVABILITY.md``; adding a field
   to the renderer without documenting it fails the docs job.
5. **Benchmark-number sync** — every string in the ``summary`` block of
   a committed benchmark record must appear verbatim in its handbook
   (``BENCH_analytics.json`` ↔ ``docs/ANALYTICS.md``,
   ``BENCH_sharding.json`` ↔ ``docs/SHARDING.md``), so the handbook's
   measured numbers cannot drift from the committed benchmark record
   (re-recording the benchmark means updating the handbook in the same
   commit).

``tools/check_docs_links.py`` remains as a thin wrapper over
:func:`run` for back-compatibility with ``tests/test_docs_links.py``.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re

from repro.analysis.core import Finding, rule

#: markdown files to check: repo root + docs/
MARKDOWN_GLOBS = ("*.md", "docs/*.md")

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: backticked repo-relative file path, e.g. `src/repro/cli.py`
INLINE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|docs|examples|tools)/[A-Za-z0-9_./-]+"
    r"\.[A-Za-z0-9]+)`"
)

#: backticked CLI command, e.g. `:translate` — also matches the command
#: at the start of a longer backticked example like `:sql SELECT ...`
INLINE_CLI_COMMAND = re.compile(r"`(:[a-z]+)[ `]")

#: ``:name`` commands the shell implements, read from the source
CLI_COMMAND_PATTERN = re.compile(r"\"(:[a-z]+)\"")

#: the annotation-field tuple in src/repro/obs/stats.py
ANNOTATION_FIELDS_PATTERN = re.compile(
    r"EXPLAIN_ANNOTATION_FIELDS\s*=\s*(\([^)]*\))"
)

#: (source of truth, document that must stay in sync)
STATS_SOURCE = "src/repro/obs/stats.py"
OBSERVABILITY_DOC = "docs/OBSERVABILITY.md"
BENCH_ANALYTICS_JSON = "benchmarks/results/BENCH_analytics.json"
ANALYTICS_DOC = "docs/ANALYTICS.md"
BENCH_SHARDING_JSON = "benchmarks/results/BENCH_sharding.json"
SHARDING_DOC = "docs/SHARDING.md"

#: every committed benchmark record and the handbook that quotes it
BENCHMARK_SYNC_PAIRS = (
    (BENCH_ANALYTICS_JSON, ANALYTICS_DOC),
    (BENCH_SHARDING_JSON, SHARDING_DOC),
)


#: the per-PR ticket: it names the files it asks to be deleted, so its
#: references are allowed to dangle once the work is done
TICKET = "ISSUE.md"


def markdown_files(root):
    files = []
    for pattern in MARKDOWN_GLOBS:
        files.extend(sorted(pathlib.Path(root).glob(pattern)))
    return [path for path in files if path.name != TICKET]


def cli_commands(root):
    """The set of ``:name`` commands src/repro/cli.py dispatches on."""
    source_path = pathlib.Path(root) / "src/repro/cli.py"
    if not source_path.exists():
        return None
    return set(CLI_COMMAND_PATTERN.findall(source_path.read_text()))


def check_file(root, path, commands):
    """``(line, problem)`` pairs for one markdown file."""
    root = pathlib.Path(root)
    problems = []
    text = path.read_text()
    base = path.parent

    def line_of(match):
        return text.count("\n", 0, match.start()) + 1

    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        if not (base / target).exists() and not (root / target).exists():
            problems.append((line_of(match), f"dead link: ({match.group(1)})"))

    for match in INLINE_PATH.finditer(text):
        target = match.group(1)
        if target.endswith(".txt"):
            continue  # benchmark outputs are generated, not committed
        if not (root / target).exists():
            problems.append(
                (line_of(match), f"missing file reference: `{target}`")
            )

    for match in INLINE_CLI_COMMAND.finditer(text):
        command = match.group(1)
        if commands is not None and command not in commands:
            problems.append((
                line_of(match),
                f"unknown CLI command `{command}` "
                f"(not dispatched in src/repro/cli.py)",
            ))

    return problems


def explain_annotation_fields(root):
    """The ``EXPLAIN_ANNOTATION_FIELDS`` tuple, read from the source."""
    source_path = pathlib.Path(root) / STATS_SOURCE
    if not source_path.exists():
        return None
    match = ANNOTATION_FIELDS_PATTERN.search(source_path.read_text())
    if match is None:
        return None
    return ast.literal_eval(match.group(1))


def check_annotation_fields(root):
    """``(doc, line, problem)`` for undocumented EXPLAIN ANALYZE fields.

    Each field the renderer can emit must appear backticked somewhere in
    docs/OBSERVABILITY.md — either alone (`` `batches` ``) or inside a
    larger backticked example (`` `(actual_rows=N ...)` ``).
    """
    fields = explain_annotation_fields(root)
    if not fields:
        return []
    doc_path = pathlib.Path(root) / OBSERVABILITY_DOC
    if not doc_path.exists():
        return [(OBSERVABILITY_DOC, 1,
                 f"missing document: {OBSERVABILITY_DOC} must describe "
                 f"the EXPLAIN ANALYZE annotation fields {fields}")]
    text = doc_path.read_text()
    problems = []
    for field in fields:
        if not re.search(rf"`[^`]*\b{re.escape(field)}\b[^`]*`", text):
            problems.append((
                OBSERVABILITY_DOC, 1,
                f"EXPLAIN ANALYZE field `{field}` "
                f"(EXPLAIN_ANNOTATION_FIELDS in {STATS_SOURCE}) "
                f"is not documented in {OBSERVABILITY_DOC}",
            ))
    return problems


def check_benchmark_sync(root):
    """``(doc, line, problem)`` for handbook/benchmark number drift.

    For every ``(record, handbook)`` pair in BENCHMARK_SYNC_PAIRS, each
    string value in the record's ``summary`` object must appear verbatim
    in the handbook.  Checked against the committed files only — no
    benchmark is re-run.
    """
    root = pathlib.Path(root)
    problems = []
    for json_name, doc_name in BENCHMARK_SYNC_PAIRS:
        json_path = root / json_name
        if not json_path.exists():
            continue
        try:
            summary = json.loads(json_path.read_text()).get("summary", {})
        except (ValueError, AttributeError):
            problems.append((json_name, 1,
                             f"unparseable benchmark record: {json_name}"))
            continue
        doc_path = root / doc_name
        if not doc_path.exists():
            problems.append((doc_name, 1,
                             f"missing document: {doc_name} must quote the "
                             f"{json_name} summary strings"))
            continue
        text = doc_path.read_text()
        for key, value in sorted(summary.items()):
            if isinstance(value, str) and value not in text:
                problems.append((
                    doc_name, 1,
                    f"stale benchmark reference: summary[{key!r}] of "
                    f"{json_name} ({value!r}) does not appear "
                    f"verbatim in {doc_name}",
                ))
    return problems


def sync_problems(root):
    """All cross-file sync problems as ``(doc, line, problem)`` triples."""
    return check_annotation_fields(root) + check_benchmark_sync(root)


def run(root):
    """Check every markdown file; returns ``{relative_path: [problems]}``.

    The legacy report shape (problem strings without line numbers), kept
    for ``tools/check_docs_links.py`` and its test.
    """
    root = pathlib.Path(root)
    commands = cli_commands(root)
    report = {}
    for path in markdown_files(root):
        problems = [p for _line, p in check_file(root, path, commands)]
        if problems:
            report[str(path.relative_to(root))] = problems
    for doc, _line, problem in sync_problems(root):
        report.setdefault(doc, []).append(problem)
    return report


@rule(
    "docs-links",
    scope="project",
    description="markdown docs must not reference dead links, missing "
    "files, or CLI commands the shell no longer dispatches; "
    "docs/OBSERVABILITY.md must document every EXPLAIN ANALYZE "
    "annotation field and each benchmark handbook must quote its "
    "committed BENCH_*.json summary verbatim",
)
def check_docs_links(context):
    root = context.root
    commands = cli_commands(root)
    findings = []
    for path in markdown_files(root):
        relative = str(path.relative_to(root))
        for line, problem in check_file(root, path, commands):
            findings.append(Finding(
                "docs-links", relative, line, problem,
                symbol=problem,
            ))
    for doc, line, problem in sync_problems(root):
        findings.append(Finding(
            "docs-links", doc, line, problem,
            symbol=problem,
        ))
    return findings
