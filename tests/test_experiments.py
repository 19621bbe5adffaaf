"""Experiment harness: runner, statistics, table rendering."""

import numpy as np
import pytest

from repro.api import MethodSpec, ProblemSpec, run_sweep
from repro.experiments import ExperimentSettings, summary_row
from repro.experiments.tables import (
    format_deviation_table,
    format_generic,
    format_simulation_table,
)


@pytest.fixture(scope="module")
def tiny_settings():
    return ExperimentSettings(runs=2, reference_n=2000, max_generations=10, full=False)


SPHERE = ProblemSpec("sphere", problem_params={"sigma": 0.2})


def _sweep(settings, methods, base_seed):
    spec = settings.sweep_spec([SPHERE], methods, base_seed=base_seed)
    return run_sweep(spec, workers=1)


@pytest.fixture(scope="module")
def sphere_summary(tiny_settings):
    methods = [MethodSpec("moheco", label="MOHECO", overrides={"pop_size": 8})]
    return _sweep(tiny_settings, methods, base_seed=1).summary("MOHECO")


class TestSettings:
    def test_defaults_scaled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        settings = ExperimentSettings.from_env()
        assert settings.runs == 3
        assert not settings.full

    def test_full_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        settings = ExperimentSettings.from_env()
        assert settings.runs == 10
        assert settings.reference_n == 50_000

    def test_individual_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_RUNS", "4")
        monkeypatch.setenv("REPRO_REF_N", "12345")
        settings = ExperimentSettings.from_env()
        assert settings.runs == 4
        assert settings.reference_n == 12345


class TestReplication:
    def test_record_contents(self, sphere_summary, tiny_settings):
        assert len(sphere_summary.records) == tiny_settings.runs
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


class TestMethodContrast:
    def test_fixed_budget_summary_costs_more(self, tiny_settings):
        sweep = _sweep(
            tiny_settings,
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
