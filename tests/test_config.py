"""MOHECO configuration: defaults, validation, the method table."""

from dataclasses import replace

import pytest

from repro.api import METHODS, RunSpec, optimize, validate_run_spec
from repro.api.methods import MOHECO_FAMILY
from repro.core import Callback, MOHECOConfig


class TestDefaults:
    def test_paper_values(self):
        config = MOHECOConfig()
        assert config.pop_size == 50
        assert config.de_f == 0.8
        assert config.de_cr == 0.8
        assert config.n0 == 15
        assert config.sim_ave == 35
        assert config.stage2_threshold == 0.97
        assert config.ls_patience == 5
        assert config.stop_patience == 20
        assert config.sampler == "lhs"
        assert config.use_acceptance_sampling


class TestValidation:
    def test_allocation(self):
        with pytest.raises(ValueError, match="ocba, fixed, ladder"):
            MOHECOConfig(allocation="hyperband")

    def test_pop_size(self):
        with pytest.raises(ValueError):
            MOHECOConfig(pop_size=3)

    def test_n0_vs_sim_ave(self):
        with pytest.raises(ValueError):
            MOHECOConfig(n0=50, sim_ave=35)
        with pytest.raises(ValueError):
            MOHECOConfig(n0=0)

    def test_n_max_vs_sim_ave(self):
        with pytest.raises(ValueError):
            MOHECOConfig(sim_ave=600, n_max=500, n0=15)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            MOHECOConfig(stage2_threshold=0.0)
        with pytest.raises(ValueError):
            MOHECOConfig(stage2_threshold=1.5)

    @pytest.mark.parametrize("safety", [0.0, -1.0, float("nan")])
    def test_as_safety_must_be_positive(self, safety):
        with pytest.raises(ValueError, match="as_safety"):
            MOHECOConfig(as_safety=safety)

    @pytest.mark.parametrize("min_train", [1, 0, -5])
    def test_as_min_train_covers_a_ddof1_std(self, min_train):
        with pytest.raises(ValueError, match="as_min_train"):
            MOHECOConfig(as_min_train=min_train)

    def test_smallest_valid_as_settings(self):
        config = MOHECOConfig(as_safety=1e-3, as_min_train=2)
        assert config.as_safety == 1e-3 and config.as_min_train == 2

    def test_bad_as_settings_fail_before_the_run(self):
        """Rejected at submission even where no candidate is ever feasible."""
        from repro.api import RunSpec, SpecError, validate_run_spec

        for overrides in ({"as_safety": 0}, {"as_min_train": -5}):
            spec = RunSpec(problem="folded_cascode", overrides=overrides)
            with pytest.raises(SpecError):
                validate_run_spec(spec)

    @pytest.mark.parametrize("delta", [0, -5])
    def test_delta_below_one_fails_at_validation(self, delta):
        """A zero OCBA increment would never reach the stage-1 budget."""
        from repro.api import RunSpec, SpecError, validate_run_spec

        with pytest.raises(ValueError, match="delta"):
            MOHECOConfig(delta=delta)
        spec = RunSpec(
            problem="sphere",
            overrides={"delta": delta, "pop_size": 8, "max_generations": 2},
        )
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"


    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"ls_max_evaluations": 0}, "ls_max_evaluations"),
            ({"ls_max_evaluations": -3}, "ls_max_evaluations"),
            ({"ls_initial_step": 0.0}, "ls_initial_step"),
        ],
    )
    def test_local_search_budget_and_step_fail_at_validation(self, overrides, field):
        """A local search that cannot evaluate a point, or whose simplex
        collapses onto its start, is refused before the run."""
        from repro.api import RunSpec, SpecError, validate_run_spec

        with pytest.raises(ValueError, match=field):
            MOHECOConfig(**overrides)
        spec = RunSpec(
            problem="sphere",
            overrides={**overrides, "pop_size": 8, "max_generations": 2},
        )
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"de_f": 0.0}, "de_f"),
            ({"de_cr": 1.5}, "de_cr"),
            ({"ls_patience": 0}, "ls_patience"),
            ({"max_generations": 0}, "max_generations"),
            ({"max_generations": -3}, "max_generations"),
            ({"sampler": "bogus"}, "bogus"),
            ({"pop_size": 10.5}, "pop_size must be an integer"),
            ({"max_generations": 2.5}, "max_generations must be an integer"),
            ({"n0": 15.5}, "n0 must be an integer"),
            ({"use_memetic": "no"}, "use_memetic must be a bool"),
            ({"stage2_threshold": True}, "stage2_threshold must be a finite"),
            ({"n_max": "500"}, "n_max must be an integer"),
        ],
    )
    def test_bad_run_settings_fail_at_validation(self, overrides, reason):
        """Values the run would trip over mid-build, or silently clamp,
        are refused at the door for a run and for each sweep method."""
        from repro.api import (
            MethodSpec,
            RunSpec,
            SpecError,
            SweepSpec,
            validate_run_spec,
            validate_sweep_spec,
        )

        spec = RunSpec(
            problem="sphere",
            overrides={"pop_size": 8, "max_generations": 2, **overrides},
        )
        with pytest.raises(SpecError, match=reason) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"
        sweep = SweepSpec(
            methods=["moheco", MethodSpec("oo_only", overrides=overrides)],
            problems=["sphere"],
        )
        with pytest.raises(SpecError, match=reason) as excinfo:
            validate_sweep_spec(sweep)
        assert excinfo.value.field == "methods[1].overrides"

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"bogus": 1}, "bogus"),
            ({"pop_size": 2}, "pop_size"),
            ({"max_generations": 0}, "max_generations"),
            ({"patience": 0}, "patience"),
            ({"n_train": 0}, "n_train"),
        ],
    )
    def test_bad_pswcd_overrides_fail_at_validation(self, overrides, reason):
        """pswcd's door applies the rule its run applies."""
        from repro.api import (
            MethodSpec,
            RunSpec,
            SpecError,
            SweepSpec,
            optimize,
            validate_run_spec,
            validate_sweep_spec,
        )

        spec = RunSpec(problem="sphere", method="pswcd", overrides=overrides)
        with pytest.raises(SpecError, match=reason) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"
        sweep = SweepSpec(
            methods=["moheco", MethodSpec("pswcd", overrides=overrides)],
            problems=["sphere"],
        )
        with pytest.raises(SpecError, match=reason) as excinfo:
            validate_sweep_spec(sweep)
        assert excinfo.value.field == "methods[1].overrides"
        with pytest.raises((TypeError, ValueError), match=reason):
            optimize(spec)

    @pytest.mark.parametrize("max_generations", [0, -3])
    def test_sweep_wide_generation_cap_must_be_positive(self, max_generations):
        from repro.api import SpecError, SweepSpec

        with pytest.raises(SpecError) as excinfo:
            SweepSpec(
                methods=["moheco"], problems=["sphere"], max_generations=max_generations
            )
        assert excinfo.value.field == "max_generations"


#: Method -> (allocation, use_memetic, screened): the paper's compared
#: methods (Table 1's MOHECO, OO+AS+LHS and AS+LHS rows) and the three
#: extensions, as the method table must build them.
FAMILY = {
    "moheco": ("ocba", True, False),
    "oo_only": ("ocba", False, False),
    "fixed_budget": ("fixed", False, False),
    "moheco_mf": ("ladder", True, False),
    "moheco_screened": ("ocba", True, True),
    "fixed_budget_screened": ("fixed", False, True),
}


class ConfigRecorder(Callback):
    def on_run_start(self, engine):
        self.config = engine.config


class TestMethodTable:
    def test_table_lists_the_family(self):
        assert set(MOHECO_FAMILY) == set(FAMILY)

    @pytest.mark.parametrize("method", sorted(FAMILY))
    def test_config_matches_preset_row(self, method):
        presets, screened, description = MOHECO_FAMILY[method]
        recorder = ConfigRecorder()
        result = optimize(
            "sphere", method, seed=1, callbacks=recorder, pop_size=8, max_generations=1
        )
        assert recorder.config == replace(
            MOHECOConfig(**presets), pop_size=8, max_generations=1
        )
        allocation, use_memetic, expect_screen = FAMILY[method]
        assert recorder.config.allocation == allocation
        assert recorder.config.use_memetic is use_memetic
        assert screened is expect_screen
        assert (result.screen_trace is not None) is expect_screen
        assert METHODS.get(method).description == description

    @pytest.mark.parametrize("method", sorted(FAMILY))
    def test_config_is_built_in_one_step(self, method):
        """Overrides meet the presets in one build: a budget below the
        default ``sim_ave`` is valid once ``sim_ave`` comes down with it."""
        budget = "n_fixed" if FAMILY[method][0] == "fixed" else "n_max"
        overrides = {budget: 20, "sim_ave": 10, "n0": 5}
        spec = RunSpec(
            problem="sphere",
            method=method,
            seed=1,
            overrides={**overrides, "pop_size": 8, "max_generations": 2},
        )
        validate_run_spec(spec)
        recorder = ConfigRecorder()
        result = optimize(spec, callbacks=recorder)
        assert (recorder.config.n_max, recorder.config.sim_ave) == (20, 10)
        assert 0 < result.best_estimate.n <= 20
