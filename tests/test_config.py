"""MOHECO configuration: defaults, validation, method variants."""

import pytest

from repro.core import MOHECOConfig


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


class TestVariants:
    def test_moheco(self):
        config = MOHECOConfig.moheco(n_max=700)
        assert config.allocation == "ocba" and config.use_memetic
        assert config.n_max == 700

    def test_oo_only(self):
        config = MOHECOConfig.oo_only()
        assert config.allocation == "ocba" and not config.use_memetic

    def test_fixed_budget(self):
        config = MOHECOConfig.fixed_budget(n_fixed=300)
        assert config.allocation == "fixed" and not config.use_memetic
        assert config.n_max == 300

    def test_ladder_is_an_allocation_of_the_moheco_factory(self):
        config = MOHECOConfig.moheco(allocation="ladder")
        assert config.allocation == "ladder" and config.use_memetic

    def test_with_overrides_copies(self):
        base = MOHECOConfig()
        tweaked = base.with_overrides(pop_size=10)
        assert tweaked.pop_size == 10
        assert base.pop_size == 50
