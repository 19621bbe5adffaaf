"""Ablation benchmarks for the library's main design choices.

Not figures from the paper, but the studies a reviewer would ask for:

* OCBA vs equal allocation — probability of correct selection at equal
  budget (the paper's 'order is easier than value' tenet).
* LHS vs PMC vs Sobol — yield-estimator variance at equal sample count.
* Acceptance sampling on/off — charged simulations for the same estimate.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro.ledger import SimulationLedger
from repro.ocba import approximate_pcs, equal_allocation, ocba_allocation
from repro.problems import make_sphere_problem
from repro.rng import make_rng
from repro.sampling import make_sampler
from repro.sampling.acceptance import LinearMarginScreener
from repro.yieldsim import CandidateYieldState


@pytest.mark.benchmark(group="ablation")
def test_ablation_ocba_vs_equal_pcs(benchmark, results_dir):
    means = np.array([0.93, 0.90, 0.82, 0.70, 0.55, 0.45, 0.30, 0.20])
    stds = np.sqrt(means * (1 - means))

    def study():
        rows = []
        # Budgets in the asymptotic regime where OCBA's optimality holds
        # (the Bonferroni APCS bound is loose for starved designs at very
        # small budgets; pilots of n0=15 mirror the sequential procedure).
        for total in (800, 1600, 3200, 6400):
            pcs_eq = approximate_pcs(
                means, stds, equal_allocation(len(means), total)
            )
            pcs_oc = approximate_pcs(
                means, stds, ocba_allocation(means, stds, total, minimum=15)
            )
            rows.append((total, pcs_eq, pcs_oc))
        return rows

    rows = benchmark(study)
    lines = ["Ablation: P{correct selection}, OCBA vs equal allocation",
             f"{'budget':>8s} {'equal':>8s} {'OCBA':>8s}"]
    for total, eq, oc in rows:
        lines.append(f"{total:>8d} {eq:>8.3f} {oc:>8.3f}")
        assert oc >= eq - 1e-9
    save_result(results_dir, "ablation_ocba.txt", "\n".join(lines))


@pytest.mark.benchmark(group="ablation")
def test_ablation_sampler_variance(benchmark, results_dir):
    problem = make_sphere_problem(sigma=0.3)
    X = np.full((200, 4), 0.55)

    def study():
        out = {}
        for kind in ("pmc", "lhs", "sobol"):
            sampler = make_sampler(kind, problem.variation)
            rng = make_rng(7)
            estimates = []
            for _ in range(60):
                performance = problem.evaluate_pairs(X, sampler.draw(200, rng))
                estimates.append(float(np.mean(problem.specs.passes(performance))))
            out[kind] = float(np.std(estimates))
        return out

    stds = benchmark.pedantic(study, rounds=1, iterations=1)
    lines = ["Ablation: yield-estimator std by sampler (200 samples/estimate)"]
    lines.extend(f"{kind:>6s}: {value:.4f}" for kind, value in stds.items())
    save_result(results_dir, "ablation_sampler.txt", "\n".join(lines))
    assert stds["lhs"] <= stds["pmc"] * 1.1  # LHS no worse than PMC


@pytest.mark.benchmark(group="ablation")
def test_ablation_acceptance_sampling_savings(benchmark, results_dir):
    problem = make_sphere_problem(sigma=0.25)
    x = np.full(4, 0.58)

    def study():
        ledger = SimulationLedger()
        state = CandidateYieldState(
            problem, x, make_sampler("lhs", problem.variation), make_rng(3),
            ledger, "stage1", LinearMarginScreener(problem.specs),
        )
        # Refine in batches: the screener trains on early batches and
        # screens later ones (matching how OCBA refinement feeds it).
        for _ in range(10):
            state.refine(200)
        return state.n_simulated, state.n, state.value, ledger.screened_out

    simulated, total, estimate, screened = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    truth = problem.evaluator.analytic_yield(x, problem.specs)
    text = "\n".join([
        "Ablation: acceptance sampling savings on one candidate",
        f"samples in estimate: {total}",
        f"charged simulations: {simulated} ({simulated / total:.1%})",
        f"screened without simulation: {screened}",
        f"estimate {estimate:.3f} vs analytic {truth:.3f}",
    ])
    save_result(results_dir, "ablation_as.txt", text)
    assert simulated < total
    assert abs(estimate - truth) < 0.05
