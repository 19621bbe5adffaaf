"""Experiment harness reproducing the paper's tables and figures.

Each experiment module exposes a ``run_*`` function returning plain data
plus a ``format_*`` helper rendering the paper-style table; the
pytest-benchmark wrappers in ``benchmarks/`` call these and persist the
rendered output under ``benchmarks/results/``.

Scaling: paper-scale experiments (10 runs, 50 000-sample references) take
tens of minutes; the default settings are laptop-scale.  The replication
protocol itself lives in :mod:`repro.sweep` — experiments here are thin
adapters that build a :class:`~repro.sweep.spec.SweepSpec` and hand it to
:func:`~repro.sweep.executor.run_sweep`, so they inherit process sharding
(``workers=``) and resumable stores (``store=``/``resume=``) for free.
The ``REPRO_*`` environment variables remain as a deprecated
compatibility path mapped onto the spec — see
:class:`ExperimentSettings`.
"""

from repro.experiments.runner import (
    ExperimentSettings,
    MethodSummary,
    RunRecord,
)
from repro.experiments.stats import summary_row

__all__ = [
    "ExperimentSettings",
    "RunRecord",
    "MethodSummary",
    "summary_row",
]
