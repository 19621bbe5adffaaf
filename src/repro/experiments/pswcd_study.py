"""Experiment: section 3.4 — PSWCD over-design quantification.

The paper argues PSWCD methods over-design because "the separated
worst-case points cannot be achieved simultaneously, so their combination
is over-estimated".  We quantify that: on a set of designs with known MC
yields, compare the PSWCD worst-case yield bound with the reference MC
yield.  The bound should systematically *underestimate* the yield
(over-design pressure: designs get rejected or pushed further from spec
boundaries than necessary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import RunSpec, optimize, resolve_problem
from repro.baselines import pswcd_analysis
from repro.rng import ensure_rng, spawn
from repro.yieldsim import reference_yield

__all__ = ["PSWCDStudyResult", "run_pswcd_study", "backbone_spec"]


def backbone_spec(max_generations: int = 80) -> RunSpec:
    """The MOHECO trajectory the study draws its designs from, as a spec."""
    return RunSpec(
        problem="folded_cascode",
        method="moheco",
        overrides={"max_generations": max_generations},
        tag="pswcd-study-backbone",
    )


@dataclass
class PSWCDStudyResult:
    """Per-design PSWCD bounds against MC reference yields."""

    mc_yields: np.ndarray
    wc_bounds: np.ndarray

    @property
    def mean_underestimate(self) -> float:
        """Mean (MC yield - worst-case bound); positive = over-design."""
        return float(np.mean(self.mc_yields - self.wc_bounds))

    @property
    def fraction_underestimated(self) -> float:
        """Share of designs whose yield the bound underestimates."""
        return float(np.mean(self.wc_bounds <= self.mc_yields + 1e-9))

    def formatted(self) -> str:
        """Render the comparison."""
        lines = [
            "Section 3.4: PSWCD worst-case yield bound vs reference MC",
            f"{'MC yield':>10s} {'WC bound':>10s} {'gap':>8s}",
        ]
        for mc, wc in zip(self.mc_yields, self.wc_bounds):
            lines.append(f"{mc * 100:>9.2f}% {wc * 100:>9.2f}% {(mc - wc) * 100:>7.2f}%")
        lines.append(
            f"mean over-design gap: {self.mean_underestimate * 100:.2f}% "
            f"(bound below MC on {self.fraction_underestimated:.0%} of designs)"
        )
        return "\n".join(lines)


def run_pswcd_study(
    seed: int = 20100312,
    n_designs: int = 8,
    n_train: int = 300,
    reference_n: int = 5000,
    max_generations: int = 80,
    spec: RunSpec | None = None,
) -> PSWCDStudyResult:
    """Assess PSWCD bounds on designs drawn from a MOHECO trajectory.

    ``spec`` swaps the backbone run (default :func:`backbone_spec`); the
    study's own ``seed`` stays in charge of the random streams.
    """
    rng = ensure_rng(seed)
    spec = spec if spec is not None else backbone_spec(max_generations)
    # One problem instance serves the backbone run, the PSWCD analyses and
    # the reference MCs below.
    problem = resolve_problem(spec.problem, spec.problem_params)
    result = optimize(
        problem,
        method=spec.method,
        rng=spawn(rng),
        **spec.overrides,
    )

    # Collect distinct feasible designs spanning the yield range.
    designs: list[np.ndarray] = []
    for record in result.history:
        if record.evaluated_x.size:
            order = np.argsort(record.evaluated_yield)
            for idx in order[-2:]:
                designs.append(record.evaluated_x[idx])
    if not designs:
        raise RuntimeError("no feasible designs recorded in the MOHECO run")
    step = max(1, len(designs) // n_designs)
    chosen = designs[::step][:n_designs]

    mc_yields, wc_bounds = [], []
    for x in chosen:
        analysis = pswcd_analysis(problem, x, n_train=n_train, rng=spawn(rng))
        reference = reference_yield(problem, x, n=reference_n, rng=spawn(rng))
        wc_bounds.append(analysis.yield_bound)
        mc_yields.append(reference.value)

    return PSWCDStudyResult(
        mc_yields=np.array(mc_yields), wc_bounds=np.array(wc_bounds)
    )
