"""Paper-style table rendering."""

from __future__ import annotations

from repro.experiments.stats import summary_row
from repro.sweep.records import MethodSummary

__all__ = ["format_deviation_table", "format_simulation_table", "format_generic"]


def format_generic(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width table with a title line."""
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(cells))
    lines = [title, fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_deviation_table(title: str, summaries: list[MethodSummary]) -> str:
    """Tables 1 / 3: yield deviation vs the high-N reference, per method."""
    rows = []
    for summary in summaries:
        stats = summary_row(summary.deviations())
        rows.append([summary.method, *stats.formatted(as_percent=True)])
    return format_generic(
        title, ["methods", "best", "worst", "average", "variance"], rows
    )


def format_simulation_table(title: str, summaries: list[MethodSummary]) -> str:
    """Tables 2 / 4: total number of simulations, per method."""
    rows = []
    for summary in summaries:
        stats = summary_row(summary.simulations())
        rows.append([summary.method, *stats.formatted(as_percent=False)])
    return format_generic(
        title, ["methods", "best", "worst", "average", "variance"], rows
    )
