"""Figure rendering (Fig. 6): ASCII charts of the example-1 comparison."""

from __future__ import annotations

import numpy as np

from repro.sweep.records import MethodSummary

__all__ = ["format_fig6"]


def _bar_chart(title: str, labels: list[str], values: np.ndarray, unit: str,
               width: int = 46) -> str:
    """Simple horizontal ASCII bar chart."""
    peak = max(float(np.max(values)), 1e-12)
    lines = [title]
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label:28s} |{bar:<{width}} {value:.4g}{unit}")
    return "\n".join(lines)


def format_fig6(summaries: list[MethodSummary]) -> str:
    """Paper Fig. 6: average yield deviation and simulation count per method."""
    labels = [summary.method for summary in summaries]
    deviations = np.array(
        [float(np.mean(summary.deviations())) * 100 for summary in summaries]
    )
    simulations = np.array(
        [float(np.mean(summary.simulations())) for summary in summaries]
    )
    parts = [
        "Fig. 6. Average yield-estimate deviation and number of simulations "
        "for different methods (example 1)",
        "",
        _bar_chart("average deviation from reference MC", labels, deviations, "%"),
        "",
        _bar_chart("average total simulations", labels, simulations, ""),
    ]
    return "\n".join(parts)
