"""Experiment harness reproducing the paper's tables and figures.

The paper's examples are checked-in sweep specs, not code:
``benchmarks/specs/example1.json`` (Tables 1-2, Fig. 6) and
``example2.json`` (Tables 3-4) are :class:`~repro.sweep.spec.SweepSpec`
files, run by :func:`~repro.sweep.executor.run_sweep` or ``repro sweep
--spec``.  They are laptop scale; the same file with ``--runs 10
--reference-n 50000 --max-generations 200`` is paper scale.  This package
holds what turns sweep summaries into the paper's output
(:mod:`~repro.experiments.tables`, :mod:`~repro.experiments.figures`) and
the studies that are not sweeps (Fig. 3, the PSWCD and RSB studies); the
pytest-benchmark wrappers in ``benchmarks/`` persist the rendered output
under ``benchmarks/results/``.
"""

from repro.experiments.stats import summary_row

__all__ = ["summary_row"]
