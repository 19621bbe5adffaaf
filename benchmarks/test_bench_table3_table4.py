"""Benchmark: paper example 2 — Tables 3 and 4.

Runs the sweep in ``benchmarks/specs/example2.json``: the two-stage
telescopic amplifier in N90 under severe constraints, with AS+LHS at
300/500 simulations per feasible candidate and MOHECO.  Paper scale is the
same file with ``--runs 10 --reference-n 50000 --max-generations 200``
(see ``test_bench_table1_table2_fig6.py``).

Expected shape: MOHECO's simulation count lands at a small fraction of the
fixed-budget methods' (paper: ~14 %) with comparable or better deviation;
absolute counts reach ~1e5 vs ~1e6 (paper's magnitudes).
"""

import os

import pytest

from benchmarks.conftest import save_result
from repro.experiments.tables import format_deviation_table, format_simulation_table
from repro.sweep import SweepSpec, run_sweep

SPEC_PATH = os.path.join(os.path.dirname(__file__), "specs", "example2.json")

_CACHE = {}


def _results():
    if "example2" not in _CACHE:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            _CACHE["example2"] = run_sweep(SweepSpec.from_json(handle.read()))
    return _CACHE["example2"]


@pytest.mark.benchmark(group="example2")
def test_table3_yield_deviation(benchmark, results_dir):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    table = format_deviation_table(
        "Table 3. Deviation of the yield results from the "
        f"{results.spec.reference_n}-sample MC reference (example 2)",
        results.summaries(),
    )
    save_result(results_dir, "table3.txt", table)
    for summary in results.summaries():
        assert float(summary.deviations().mean()) < 0.2


@pytest.mark.benchmark(group="example2")
def test_table4_simulation_counts(benchmark, results_dir):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    table = format_simulation_table(
        "Table 4. Total number of simulations (example 2)", results.summaries()
    )
    save_result(results_dir, "table4.txt", table)
    fixed = results.summary("500 simulations (AS+LHS)")
    moheco = results.summary("MOHECO")
    assert moheco.simulations().mean() < fixed.simulations().mean()
