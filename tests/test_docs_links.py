"""The docs stay in step with the tree they describe.

Five kinds of drift are caught across the repo-root and ``docs/``
markdown files (the per-change ticket and the changelog name deleted
files on purpose and are skipped), plus the python sources:

1. **Markdown links** — ``[text](path)`` whose relative target does not
   exist (external ``http(s)://`` / ``mailto:`` and pure ``#anchor``
   links are skipped).
2. **Inline file paths** — backticked references like
   ``src/repro/cli.py`` or ``ledger/measure.py`` that point at files
   which are gone.
3. **CLI commands** — backticked ``:command`` references (``:explain``,
   ``:stats``, ...) that the shell in ``src/repro/cli.py`` no longer
   dispatches.
4. **EXPLAIN ANALYZE vocabulary** — every annotation field in
   ``EXPLAIN_ANNOTATION_FIELDS`` (``src/repro/obs/stats.py``) must be
   documented, backticked, in ``docs/OBSERVABILITY.md``.
5. **Handbook mentions in source** — a ``docs/<NAME>.md`` named in a
   comment or docstring under ``src/`` must exist.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: markdown files to check: repo root + docs/
MARKDOWN_GLOBS = ("*.md", "docs/*.md")

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: backticked repo-relative file path, e.g. `src/repro/cli.py`
INLINE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|docs|examples|tools|ledger|\.github)/"
    r"[A-Za-z0-9_./-]+\.[A-Za-z0-9]+)`"
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

#: a handbook named in python source, e.g. docs/SERVER.md
DOCS_MENTION = re.compile(r"\bdocs/[A-Za-z0-9_-]+\.md")

#: (source of truth, document that must stay in sync)
STATS_SOURCE = "src/repro/obs/stats.py"
OBSERVABILITY_DOC = "docs/OBSERVABILITY.md"

#: the per-change ticket names the files it asks to be deleted and the
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


def check_source_doc_mentions(root):
    """``(path, line, problem)`` for missing handbooks named under src/."""
    root = pathlib.Path(root)
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for target in DOCS_MENTION.findall(line):
                if not (root / target).exists():
                    problems.append((relative, number,
                                     f"missing handbook: {target}"))
    return problems


def repo_problems(root):
    """Every ``(path, line, problem)`` the docs checks find under *root*."""
    root = pathlib.Path(root)
    commands = cli_commands(root)
    problems = []
    for path in markdown_files(root):
        relative = path.relative_to(root).as_posix()
        for line, problem in check_file(root, path, commands):
            problems.append((relative, line, problem))
    problems.extend(check_annotation_fields(root))
    problems.extend(check_source_doc_mentions(root))
    return problems


def _problems(doc, commands):
    return [problem for _line, problem in
            check_file(doc.parent, doc, commands)]


def test_repo_docs_are_clean():
    assert repo_problems(ROOT) == []


def test_cli_commands_extracted():
    commands = cli_commands(ROOT)
    assert {":translate", ":explain", ":analyze", ":sql", ":stats",
            ":help", ":quit"} <= commands


def test_detects_dead_markdown_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [here](no/such/file.py) for details\n")
    assert _problems(doc, set()) == ["dead link: (no/such/file.py)"]


def test_detects_missing_file_reference(tmp_path):
    (tmp_path / "ledger").mkdir()
    (tmp_path / "ledger" / "run.py").write_text("")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "look at `src/repro/nonexistent.py` sometime; `ledger/run.py` "
        "drives `ledger/staged.py`, CI lives in `.github/workflows/ci.yml`, "
        "results in `benchmarks/results/x.txt`\n"
    )
    assert _problems(doc, set()) == [
        "missing file reference: `src/repro/nonexistent.py`",
        "missing file reference: `ledger/staged.py`",
        "missing file reference: `.github/workflows/ci.yml`",
        "missing file reference: `benchmarks/results/x.txt`",
    ]


def test_detects_unknown_cli_command(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("type `:frobnicate` in the shell\n")
    problems = _problems(doc, {":stats"})
    assert len(problems) == 1
    assert ":frobnicate" in problems[0]


def test_known_cli_command_and_external_links_ok(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "type `:stats` — docs at [site](https://example.com) "
        "and [anchor](#section)\n"
    )
    assert _problems(doc, {":stats"}) == []


def test_only_ticket_and_changelog_are_skipped(tmp_path):
    dead = "see [here](no/such/file.py)\n"
    (tmp_path / "ISSUE.md").write_text("- [ ] delete it\n" + dead)
    (tmp_path / "CHANGES.md").write_text(dead)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "PLAN.md").write_text("- [ ] a task\n" + dead)
    assert repo_problems(tmp_path) == [
        ("docs/PLAN.md", 2, "dead link: (no/such/file.py)")
    ]


def test_detects_missing_handbook_named_in_source(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "SERVER.md").write_text("# Server\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "wal.py").write_text(
        '"""The contract (docs/WAL.md), served as in docs/SERVER.md."""\n'
    )
    assert check_source_doc_mentions(tmp_path) == [
        ("src/pkg/wal.py", 1, "missing handbook: docs/WAL.md")
    ]


# --- EXPLAIN ANALYZE vocabulary sync ---


def _plant_stats(root, fields='("actual_rows", "batches", "time")'):
    stats = root / "src" / "repro" / "obs"
    stats.mkdir(parents=True)
    (stats / "stats.py").write_text(
        f"EXPLAIN_ANNOTATION_FIELDS = {fields}\n"
    )


def test_annotation_fields_parsed_from_source(tmp_path):
    _plant_stats(tmp_path)
    assert explain_annotation_fields(tmp_path) == (
        "actual_rows", "batches", "time",
    )


def test_documented_annotation_fields_pass(tmp_path):
    _plant_stats(tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "`actual_rows` counts rows, `batches` counts blocks, and the\n"
        "`(actual_rows=N batches=B time=T)` annotation shows `time` too.\n"
    )
    assert check_annotation_fields(tmp_path) == []


def test_undocumented_annotation_field_flagged(tmp_path):
    _plant_stats(tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "`actual_rows` and `time` are documented, batches is not "
        "backticked anywhere.\n"
    )
    problems = check_annotation_fields(tmp_path)
    assert len(problems) == 1
    assert "`batches`" in problems[0][2]


def test_repo_sync_checks_are_clean():
    assert check_annotation_fields(ROOT) == []
