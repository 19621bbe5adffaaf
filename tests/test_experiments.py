"""Experiment harness: the paper's sweep specs, replication through
run_sweep, statistics, tables and the Fig. 6 chart."""

from pathlib import Path

import numpy as np
import pytest

from repro.api import MethodSpec, ProblemSpec, SweepSpec, run_sweep, validate_sweep_spec
from repro.api.cli import build_parser, build_spec
from repro.experiments import summary_row
from repro.experiments.figures import format_fig6
from repro.experiments.tables import (
    format_deviation_table,
    format_generic,
    format_simulation_table,
)

SPHERE = ProblemSpec("sphere", problem_params={"sigma": 0.2})


def _sweep(methods, base_seed):
    spec = SweepSpec(
        methods=tuple(methods),
        problems=(SPHERE,),
        runs=2,
        base_seed=base_seed,
        reference_n=2000,
        max_generations=10,
    )
    return run_sweep(spec, workers=1)


@pytest.fixture(scope="module")
def sphere_summary():
    methods = [MethodSpec("moheco", label="MOHECO", overrides={"pop_size": 8})]
    return _sweep(methods, base_seed=1).summary("MOHECO")


SPECS = Path(__file__).resolve().parents[1] / "benchmarks" / "specs"


class TestPaperSpecs:
    """The checked-in Tables 1-4 sweeps keep the identity of the stores
    the earlier harness wrote, at laptop and at paper scale."""

    PAPER_SCALE = ["--runs", "10", "--reference-n", "50000", "--max-generations", "200"]

    @pytest.mark.parametrize(
        "name, laptop_hash, paper_hash",
        [
            ("example1", "6c04a0a58276e60c", "7ab75ee718b59f42"),
            ("example2", "611a76d3dd65865c", "90c4cea2849d93ff"),
        ],
    )
    def test_specs_validate_and_keep_their_hashes(self, name, laptop_hash, paper_hash):
        path = SPECS / f"{name}.json"
        spec = SweepSpec.from_json(path.read_text(encoding="utf-8"))
        validate_sweep_spec(spec)
        assert spec.sweep_hash() == laptop_hash
        args = build_parser().parse_args(["sweep", "--spec", str(path), *self.PAPER_SCALE])
        assert build_spec(args).sweep_hash() == paper_hash


class TestReplication:
    def test_record_contents(self, sphere_summary):
        assert len(sphere_summary.records) == 2
        for record in sphere_summary.records:
            assert 0.0 <= record.reported_yield <= 1.0
            assert 0.0 <= record.reference_yield <= 1.0
            assert record.deviation == pytest.approx(
                abs(record.reported_yield - record.reference_yield)
            )
            assert record.n_simulations > 0
            assert record.wall_seconds > 0

    def test_runs_are_independent(self, sphere_summary):
        sims = [r.n_simulations for r in sphere_summary.records]
        assert len(set(sims)) > 1 or len(sims) == 1

    def test_deviation_reasonably_small(self, sphere_summary):
        # 500-sample estimates vs 2000-sample references: a few percent.
        assert np.all(sphere_summary.deviations() < 0.2)


class TestStats:
    def test_summary_row(self):
        row = summary_row(np.array([3.0, 1.0, 2.0]))
        assert row.best == 1.0 and row.worst == 3.0
        assert row.average == pytest.approx(2.0)
        assert row.variance == pytest.approx(1.0)

    def test_single_value(self):
        row = summary_row(np.array([5.0]))
        assert row.variance == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_row(np.array([]))

    def test_formatted_percent(self):
        row = summary_row(np.array([0.01, 0.02]))
        best, worst, avg, var = row.formatted(as_percent=True)
        assert best == "1.00%" and worst == "2.00%"


class TestTables:
    def test_generic_alignment(self):
        table = format_generic("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "333" in table

    def test_deviation_and_simulation_tables(self, sphere_summary):
        dev = format_deviation_table("Table 1", [sphere_summary])
        sim = format_simulation_table("Table 2", [sphere_summary])
        assert "MOHECO" in dev and "%" in dev
        assert "MOHECO" in sim and "%" not in sim.splitlines()[3]

    def test_fig6_charts_sweep_summaries(self, sphere_summary):
        chart = format_fig6([sphere_summary])
        assert "average deviation from reference MC" in chart
        assert "average total simulations" in chart
        assert chart.count("MOHECO") == 2


class TestMethodContrast:
    def test_fixed_budget_summary_costs_more(self):
        sweep = _sweep(
            [
                MethodSpec("moheco", label="MOHECO", overrides={"pop_size": 8}),
                MethodSpec(
                    "fixed_budget",
                    label="fixed500",
                    overrides={"n_fixed": 500, "pop_size": 8},
                ),
            ],
            base_seed=2,
        )
        moheco, fixed = sweep.summary("MOHECO"), sweep.summary("fixed500")
        assert np.mean(fixed.simulations()) > np.mean(moheco.simulations())
