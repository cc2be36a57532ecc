"""Plain-text table formatting for benchmark output.

Benchmarks print the same rows/series the paper's tables and figures
report, so EXPERIMENTS.md can record paper-vs-measured side by side.
"""

from __future__ import annotations


def format_table(headers, rows, title=None):
    """Render an aligned plain-text table."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def milliseconds(seconds):
    return seconds * 1000.0
