"""Multi-fidelity ladder: bracket arithmetic, promotion, determinism.

The load-bearing contracts:

* The ladder schedule is pure arithmetic — ``fidelity_trace`` (part of
  the result *identity*, unlike the observational fields) is
  bit-identical across engines.
* Each rung promotes its top ``1/eta`` by pooled yield estimate
  (``CandidateYieldState.value``), the same number that is the
  selection fitness and the reported yield.
* Bad budgets and impossible schedules fail at spec-validation time as
  structured :class:`~repro.api.errors.SpecError`, not inside the run.
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    SpecError,
    optimize,
    validate_run_spec,
    validate_sweep_spec,
)
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECOResult
from repro.mf import FidelityLadder, LadderAllocation
from repro.ocba.allocation import clamp_gains, rung_allocation
from repro.sweep.spec import SweepSpec
from test_engine import PerCandidateEngine

# Small enough for sub-second runs, large enough for a 2-rung ladder.
CONFIG = dict(
    problem="quadratic", seed=3, max_generations=3, pop_size=8, n0=20, n_max=120
)


class TestLadderArithmetic:
    def test_paper_scale_bracket(self):
        # The headline configuration: R = reference 500, pilot 15, eta 3.
        ladder = FidelityLadder(R=500, r_min=15, eta=3)
        assert ladder.s_max == 3
        assert ladder.rung_fidelities(3) == [19, 56, 167, 500]
        # Every bracket ends exactly at full fidelity.
        for s in range(ladder.s_max + 1):
            assert ladder.rung_fidelities(s)[-1] == 500

    def test_exact_powers(self):
        ladder = FidelityLadder(R=64, r_min=4, eta=2)
        assert ladder.s_max == 4
        assert ladder.rung_fidelities(4) == [4, 8, 16, 32, 64]

    def test_fidelities_are_monotone_and_bounded_below(self):
        ladder = FidelityLadder(R=500, r_min=15, eta=3)
        for s in range(ladder.s_max + 1):
            fidelities = ladder.rung_fidelities(s)
            assert fidelities == sorted(fidelities)
            # The deepest bracket's opening rung respects the pilot floor.
            assert fidelities[0] >= ladder.r_min or s < ladder.s_max

    def test_survivors_and_member_schedule(self):
        ladder = FidelityLadder(R=500, r_min=15, eta=3)
        assert ladder.survivors(50) == 16
        assert ladder.survivors(2) == 1  # never drops to zero members
        # The members of each rung of bracket 3, as the driver climbs it.
        schedule = [50]
        for _ in range(3):
            schedule.append(ladder.survivors(schedule[-1]))
        assert schedule == [50, 16, 5, 1]

    def test_bracket_cycling(self):
        ladder = FidelityLadder(R=500, r_min=15, eta=3, brackets=2)
        assert [ladder.bracket_for(g) for g in range(5)] == [3, 2, 3, 2, 3]
        single = FidelityLadder(R=500, r_min=15, eta=3)
        assert [single.bracket_for(g) for g in range(3)] == [3, 3, 3]

    def test_brackets_clamped_to_existing(self):
        ladder = FidelityLadder(R=120, r_min=20, eta=3, brackets=99)
        assert ladder.s_max == 1
        assert ladder.brackets == 2  # only s_max + 1 brackets exist

    def test_degenerate_single_rung(self):
        # r_min close to R: no cheap rung fits, the ladder collapses to
        # one full-fidelity rung (plain MOHECO behaviour).
        ladder = FidelityLadder(R=100, r_min=60, eta=3)
        assert ladder.s_max == 0
        assert ladder.rung_fidelities(0) == [100]

    def test_validation(self):
        with pytest.raises(ValueError, match="must at least cover the pilot"):
            FidelityLadder(R=100, r_min=101)
        with pytest.raises(ValueError, match="eta must be >= 2"):
            FidelityLadder(R=100, r_min=10, eta=1)
        with pytest.raises(ValueError, match="must be an integer"):
            FidelityLadder(R=100, r_min=10, eta=True)
        with pytest.raises(ValueError, match="generation must be >= 0"):
            FidelityLadder(R=100, r_min=10).bracket_for(-1)
        with pytest.raises(ValueError, match="bracket must be in"):
            FidelityLadder(R=100, r_min=10).rung_fidelities(99)

    def test_from_params(self):
        ladder = FidelityLadder.from_params(500, 15, None)
        assert (ladder.R, ladder.r_min, ladder.eta) == (500, 15, 3)
        ladder = FidelityLadder.from_params(500, 15, {"eta": 2, "r_min": 30})
        assert (ladder.eta, ladder.r_min) == (2, 30)
        with pytest.raises(ValueError, match="unknown mf_params key"):
            FidelityLadder.from_params(500, 15, {"bogus": 1})


class _ScriptedState:
    """The part of a ``CandidateYieldState`` a ladder reads, fed by a script.

    ``rates[k]`` is the pass rate of the samples rung ``k`` adds.
    """

    def __init__(self, rates):
        self.rates = rates
        self.n = 0
        self.passes = 0

    @property
    def value(self):
        return self.passes / self.n if self.n else 0.0

    @property
    def std(self):
        p = self.value
        return math.sqrt(max(p * (1.0 - p), 1e-4))


class _Candidate:
    def __init__(self, rates):
        self.state = _ScriptedState(rates)


class TestLadderPromotion:
    def test_each_rung_promotes_the_top_by_pooled_estimate(self):
        # The paper-scale ladder: rungs of 19, 56, 167 and 500 samples,
        # eta 3, so 18 candidates keep 6, then 2, then 1.
        allocation = LadderAllocation(MOHECOConfig(allocation="ladder"))
        # Candidate 0 reads 19/19 on the opening rung, then mostly fails.
        # Candidate 1 ties it there and keeps passing.  Candidates 2-6 tie
        # at 17/19, so the index decides which four of them climb.
        feasible = [_Candidate([1.0, 0.2, 0.2, 0.2])]
        feasible += [_Candidate([1.0, 0.9, 0.9, 0.9])]
        feasible += [_Candidate([0.9] * 4) for _ in range(5)]
        feasible += [_Candidate([0.5] * 4) for _ in range(11)]
        readings = []

        def refine_round(states, gains, category):
            rung = len(readings)
            for state, gain in zip(states, gains):
                state.n += gain
                state.passes += round(state.rates[rung] * gain)
            readings.append([candidate.state.value for candidate in feasible])

        assert allocation.climb(feasible, refine_round) == 4
        (entry,) = allocation.trace
        rungs = entry["rungs"]
        assert [rung["fidelity"] for rung in rungs] == [19, 56, 167, 500]
        assert len(readings) == len(rungs)
        for rung, values in zip(rungs[:-1], readings):
            keep = allocation.ladder.survivors(len(rung["members"]))
            ranked = sorted(rung["members"], key=lambda i: (-values[i], i))
            assert rung["promoted"] == sorted(ranked[:keep])
        # On the 56-sample rung candidate 0 pools to 41/130, below
        # candidate 2's 17/19, so 2 climbs in its place; weighting each
        # rung's reading by its inverse variance would have kept 0 for
        # its 19/19 rung.
        assert [rung["promoted"] for rung in rungs] == [
            [0, 1, 2, 3, 4, 5],
            [1, 2],
            [1],
            [1],
        ]


class TestRungAllocation:
    def test_clamp_gains_sums_exactly(self):
        gains = clamp_gains(np.array([7.0, 2.0, 1.0]), 25)
        assert gains.sum() == 25
        assert (gains >= 0).all()

    def test_rung_allocation_spends_exactly_the_remaining_budget(self):
        means = np.array([0.9, 0.7, 0.5])
        stds = np.array([0.1, 0.2, 0.3])
        counts = np.array([20, 20, 20])
        gains = rung_allocation(means, stds, counts, total=180)
        assert gains.sum() == 180 - 60
        assert (gains >= 0).all()

    def test_rung_allocation_overspent_rung_is_a_no_op(self):
        gains = rung_allocation(
            np.array([0.9, 0.8]), np.array([0.1, 0.1]), np.array([200, 200]), 100
        )
        assert (gains == 0).all()

    def test_rung_allocation_favours_uncertain_contenders(self):
        # The observed best and its close, noisy rival get the samples;
        # a clearly-worse design gets little.
        means = np.array([0.90, 0.88, 0.30])
        stds = np.array([0.10, 0.30, 0.10])
        counts = np.array([20, 20, 20])
        gains = rung_allocation(means, stds, counts, total=360)
        assert gains.sum() == 300
        assert gains[1] > gains[2]

    def test_rung_allocation_never_claws_back(self):
        # A member already past the rung average keeps its samples; the
        # remaining delta lands on the others and still sums exactly.
        means = np.array([0.9, 0.5])
        stds = np.array([0.1, 0.1])
        counts = np.array([500, 10])
        gains = rung_allocation(means, stds, counts, total=600)
        assert gains.sum() == 90
        assert (gains >= 0).all()


def _run_mf(method="moheco_mf", **kwargs):
    params = {**CONFIG, **kwargs}
    return optimize(params.pop("problem"), method=method, **params)


class TestMultiFidelityRun:
    def test_trace_shape_and_final_rung(self):
        result = _run_mf()
        assert result.fidelity_trace, "ladder must record every generation"
        for entry in result.fidelity_trace:
            assert set(entry) == {"generation", "bracket", "rungs"}
            if not entry["rungs"]:
                continue  # a generation with no feasible candidates
            # The final rung always reaches full fidelity for bracket s_max.
            assert entry["rungs"][-1]["fidelity"] == CONFIG["n_max"]
            for rung in entry["rungs"]:
                assert set(rung) == {
                    "fidelity",
                    "members",
                    "gains",
                    "counts",
                    "promoted",
                }
                assert set(rung["promoted"]) <= set(rung["members"])
                assert len(rung["gains"]) == len(rung["members"])

    def test_trace_is_part_of_result_identity(self):
        result = _run_mf()
        assert result.to_dict()["fidelity_trace"] == result.fidelity_trace
        assert "fidelity_trace" in result.identity_dict()
        round_tripped = MOHECOResult.from_dict(result.to_dict())
        assert round_tripped.fidelity_trace == result.fidelity_trace

    def test_trace_is_json_clean(self):
        result = _run_mf()
        assert json.loads(json.dumps(result.fidelity_trace)) == result.fidelity_trace

    def test_plain_moheco_has_no_trace(self):
        result = optimize(
            CONFIG["problem"],
            method="moheco",
            **{k: v for k, v in CONFIG.items() if k != "problem"},
        )
        assert result.fidelity_trace is None
        assert result.identity_dict()["fidelity_trace"] is None

    def test_mf_params_change_the_schedule(self):
        base = _run_mf()
        eta2 = _run_mf(mf_params={"eta": 2})
        assert base.fidelity_trace != eta2.fidelity_trace
        first = eta2.fidelity_trace[0]["rungs"]
        assert [rung["fidelity"] for rung in first] == [30, 60, 120]

    def test_direct_class_matches_registry_entry(self):
        from repro.core.moheco import MOHECO
        from repro.problems import make_problem

        config = MOHECOConfig(
            n_max=CONFIG["n_max"],
            allocation="ladder",
            max_generations=CONFIG["max_generations"],
            pop_size=CONFIG["pop_size"],
            n0=CONFIG["n0"],
        )
        direct = MOHECO(make_problem("quadratic"), config, rng=CONFIG["seed"]).run()
        registry = _run_mf()
        assert direct.identity_dict() == registry.identity_dict()
        # moheco_mf is moheco with allocation="ladder".
        via_moheco = _run_mf(method="moheco", allocation="ladder")
        assert via_moheco.identity_dict() == registry.identity_dict()


class TestLadderDeterminism:
    """The acceptance bar: bit-identical trace across engines."""

    def test_engines_agree(self):
        # The fused engine against one refine per candidate.
        baseline = _run_mf(engine="serial")
        result = _run_mf(engine=PerCandidateEngine())
        assert result.identity_dict() == baseline.identity_dict()
        assert result.fidelity_trace == baseline.fidelity_trace


def _run_screened_ladder(**kwargs):
    """``moheco_screened`` climbing the ladder: screen, then ladder stage 1."""
    spec = RunSpec(
        problem="quadratic",
        method="moheco_screened",
        seed=11,
        overrides={
            "pop_size": 8,
            "max_generations": 4,
            "n0": 20,
            "n_max": 100,
            "allocation": "ladder",
            "screen_params": {"min_train": 8, "keep_fraction": 0.5},
        },
    )
    return optimize(spec, **kwargs)


class TestComposedLadder:
    """A screened method climbs the ladder under allocation="ladder"."""

    def test_screen_and_ladder_both_act(self):
        result = _run_screened_ladder()
        assert any(entry["rungs"] for entry in result.fidelity_trace)
        assert result.screen_trace
        assert result.ledger.pruned > 0
        # Without the ladder the same method has no fidelity trace.
        assert _run_screened_ladder(allocation="ocba").fidelity_trace is None

    def test_engines_agree(self):
        baseline = _run_screened_ladder(engine="serial")
        result = _run_screened_ladder(engine=PerCandidateEngine())
        assert result.identity_dict() == baseline.identity_dict()


class TestSpecValidation:
    def test_mf_params_need_the_ladder(self):
        for method, overrides in (
            ("moheco", {}),
            ("moheco_mf", {"allocation": "ocba"}),
            ("moheco_screened", {}),
            ("fixed_budget", {}),
        ):
            spec = RunSpec(
                problem="quadratic",
                method=method,
                overrides={**overrides, "mf_params": {"eta": 2}},
            )
            with pytest.raises(SpecError, match="allocation='ladder'") as excinfo:
                validate_run_spec(spec)
            assert excinfo.value.field == "overrides"
        validate_run_spec(
            RunSpec(
                problem="quadratic",
                method="moheco_screened",
                overrides={"allocation": "ladder", "mf_params": {"eta": 2}},
            )
        )

    def test_unknown_allocation_fails_as_spec_error(self):
        spec = RunSpec(
            problem="quadratic", method="moheco", overrides={"allocation": "ucb"}
        )
        with pytest.raises(SpecError, match="allocation must be one of"):
            validate_run_spec(spec)

    def test_tiny_budget_fails_as_spec_error(self):
        spec = RunSpec(
            problem="quadratic",
            method="moheco",
            overrides={"sim_ave": 5, "n0": 15},
        )
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"
        assert "must at least cover the pilot" in excinfo.value.reason

    def test_impossible_ladder_fails_as_spec_error(self):
        spec = RunSpec(
            problem="quadratic",
            method="moheco_mf",
            overrides={"mf_params": {"r_min": 9999}},
        )
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "overrides"

    def test_unknown_mf_key_fails_as_spec_error(self):
        spec = RunSpec(
            problem="quadratic",
            method="moheco_mf",
            overrides={"mf_params": {"bogus": 1}},
        )
        with pytest.raises(SpecError, match="unknown mf_params key"):
            validate_run_spec(spec)

    def test_non_dict_mf_params_fails_as_spec_error(self):
        spec = RunSpec(
            problem="quadratic",
            method="moheco_mf",
            overrides={"mf_params": [3]},
        )
        with pytest.raises(SpecError, match="must be a dict"):
            validate_run_spec(spec)

    def test_valid_specs_pass(self):
        validate_run_spec(
            RunSpec(
                problem="quadratic",
                method="moheco_mf",
                overrides={"mf_params": {"eta": 2, "brackets": 2}},
            )
        )
        validate_run_spec(RunSpec(problem="quadratic", method="moheco"))

    def test_sweep_spec_reports_the_offending_method(self):
        spec = SweepSpec.from_dict(
            {
                "methods": [
                    {"method": "moheco"},
                    {"method": "moheco_mf", "overrides": {"mf_params": {"eta": 0}}},
                ],
                "problems": [{"problem": "quadratic"}],
                "runs": 1,
            }
        )
        with pytest.raises(SpecError) as excinfo:
            validate_sweep_spec(spec)
        assert excinfo.value.field == "methods[1].overrides"

    def test_run_rejects_bad_overrides_too(self):
        # The same errors surface imperatively, without the spec layer.
        with pytest.raises(ValueError, match="must at least cover the pilot"):
            _run_mf(sim_ave=5, n0=15)
        with pytest.raises(ValueError, match="mf_params must be a dict"):
            _run_mf(mf_params=7)
