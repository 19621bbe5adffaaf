"""Benchmark: paper example 1 — Tables 1, 2 and Fig. 6.

Runs the sweep in ``benchmarks/specs/example1.json``: the five compared
methods (AS+LHS at 300/500/700 fixed simulations, OO+AS+LHS, MOHECO) on the
folded-cascode problem over independent seeds, and regenerates the paper's
two tables plus the Fig. 6 comparison chart.

The spec is laptop scale (3 runs, 20k references, 150 generations).  Paper
scale is the same file with three sweep flags::

    repro sweep --spec benchmarks/specs/example1.json \
        --runs 10 --reference-n 50000 --max-generations 200

Expected shape: deviation shrinks from 300 -> 700 simulations; OO+AS+LHS
and MOHECO cut the simulation count by roughly an order of magnitude at
500-sim accuracy.
"""

import os

import pytest

from benchmarks.conftest import save_result
from repro.experiments.figures import format_fig6
from repro.experiments.tables import format_deviation_table, format_simulation_table
from repro.sweep import SweepSpec, run_sweep

SPEC_PATH = os.path.join(os.path.dirname(__file__), "specs", "example1.json")

_CACHE = {}


def _results():
    if "example1" not in _CACHE:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            _CACHE["example1"] = run_sweep(SweepSpec.from_json(handle.read()))
    return _CACHE["example1"]


@pytest.mark.benchmark(group="example1")
def test_table1_yield_deviation(benchmark, results_dir):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    table = format_deviation_table(
        "Table 1. Deviation of the yield results from the "
        f"{results.spec.reference_n}-sample MC reference (example 1)",
        results.summaries(),
    )
    save_result(results_dir, "table1.txt", table)
    # Sanity on the reproduction shape: every method's average deviation
    # stays in the small-percentage regime the paper reports.
    for summary in results.summaries():
        assert float(summary.deviations().mean()) < 0.2


@pytest.mark.benchmark(group="example1")
def test_table2_simulation_counts(benchmark, results_dir):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    table = format_simulation_table(
        "Table 2. Total number of simulations (example 1)", results.summaries()
    )
    save_result(results_dir, "table2.txt", table)
    fixed = results.summary("500 simulations (AS+LHS)")
    moheco = results.summary("MOHECO")
    oo = results.summary("OO+AS+LHS")
    # The paper's headline: OO-based methods are several times cheaper
    # than the fixed-budget flow at comparable accuracy.
    assert moheco.simulations().mean() < 0.5 * fixed.simulations().mean()
    assert oo.simulations().mean() < 0.5 * fixed.simulations().mean()


@pytest.mark.benchmark(group="example1")
def test_fig6_summary_chart(benchmark, results_dir):
    results = _results()
    chart = benchmark.pedantic(
        format_fig6, args=(results.summaries(),), rounds=1, iterations=1
    )
    save_result(results_dir, "fig6.txt", chart)
    assert "average total simulations" in chart
