"""Markdown docs drift checker (rule ``docs-links``).

Run it alone with ``python tools/reprolint.py --select docs-links``.
Four kinds of drift are caught across the repo-root and ``docs/``
markdown files:

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
   to the renderer without documenting it fails the analysis job.
"""

from __future__ import annotations

import ast
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

#: the per-PR ticket names the files it asks to be deleted and the
#: changelog records deleted files, so references in either may dangle
HISTORY_FILES = ("ISSUE.md", "CHANGES.md")


def markdown_files(root):
    files = []
    for pattern in MARKDOWN_GLOBS:
        files.extend(sorted(pathlib.Path(root).glob(pattern)))
    return [path for path in files if path.name not in HISTORY_FILES]


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


@rule(
    "docs-links",
    scope="project",
    description="markdown docs must not reference dead links, missing "
    "files, or CLI commands the shell no longer dispatches; "
    "docs/OBSERVABILITY.md must document every EXPLAIN ANALYZE "
    "annotation field",
)
def docs_links(context):
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
    for doc, line, problem in check_annotation_fields(root):
        findings.append(Finding(
            "docs-links", doc, line, problem,
            symbol=problem,
        ))
    return findings
