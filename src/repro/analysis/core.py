"""reprolint's framework: findings, parsed sources and suppressions.

Every check is a function from the parsed files to a list of
:class:`Finding` objects; :func:`repro.analysis.lint` runs the fixed
set of them.  A finding is silenced by a comment on the offending line
(or any line the offending statement spans)::

    # reprolint: disable=RULE[,RULE...] [-- reason]
"""

from __future__ import annotations

import ast
import pathlib
import re

#: a suppression comment: ``disable=`` comma-separated rule names, then an
#: optional ``-- justification``
SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+?)(?:\s*--.*)?$"
)


class Finding:
    """One diagnostic: rule, location, message."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # cwd-relative when possible, posix separators
        self.line = line
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def __repr__(self):
        return f"Finding({self.render()!r})"


class SourceFile:
    """One parsed python module plus its suppression table."""

    def __init__(self, relative, source):
        self.relative = relative
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        #: line number -> set of rule names disabled on that line
        self.suppressions = self._parse_suppressions()

    def _parse_suppressions(self):
        table = {}
        for number, line in enumerate(self.lines, start=1):
            match = SUPPRESSION.search(line)
            if match:
                names = {
                    name.strip()
                    for name in match.group(1).split(",")
                    if name.strip()
                }
                table[number] = names
        return table

    def suppressed(self, rule_name, first_line, last_line=None):
        """Is *rule_name* disabled on any line of the statement span?"""
        last_line = last_line or first_line
        for number in range(first_line, last_line + 1):
            if rule_name in self.suppressions.get(number, ()):
                return True
        return False

    def line_comment(self, number):
        """The comment tail of a physical line ('' when none)."""
        if 1 <= number <= len(self.lines):
            line = self.lines[number - 1]
            position = line.find("#")
            if position != -1:
                return line[position:]
        return ""


def collect_sources(paths):
    """Parse every ``.py`` file under *paths* into SourceFile objects.

    Files that fail to parse become synthetic ``parse-error`` findings
    rather than aborting the run.
    """
    cwd = pathlib.Path.cwd().resolve()
    seen = set()
    files = []
    errors = []
    for path in paths:
        path = pathlib.Path(path).resolve()
        candidates = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for candidate in candidates:
            if candidate in seen or "__pycache__" in candidate.parts:
                continue
            seen.add(candidate)
            try:
                relative = candidate.relative_to(cwd).as_posix()
            except ValueError:
                relative = candidate.as_posix()
            source = candidate.read_text()
            try:
                files.append(SourceFile(relative, source))
            except SyntaxError as exc:
                errors.append(Finding(
                    "parse-error", relative, exc.lineno or 1,
                    f"file does not parse: {exc.msg}",
                ))
    return files, errors
