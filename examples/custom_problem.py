"""Extending the library: register your own yield-optimization problem.

Run:
    python examples/custom_problem.py

Any object with ``design_space()``, ``metric_names()``,
``evaluate_pairs(X, samples)`` and a ``variation`` model can be wrapped in a
:class:`~repro.problems.base.YieldProblem` — circuits, behavioural models,
or (as here) an RC filter specified analytically.  ``evaluate_pairs`` is
the whole evaluation contract: design row ``X[i]`` at process sample row
``samples[i]``, one performance row each, as arrays — the optimizer
stacks every candidate's samples into one call.  Registering the factory
with :func:`repro.api.register_problem` makes it a first-class citizen: it
becomes addressable by name from :func:`~repro.api.optimize`, from
:class:`~repro.api.RunSpec` JSON files and from the CLI
(``python -m repro run --problem rc_lowpass ...``).

The example sizes an RC low-pass so its corner frequency hits a band under
+-10 % component variations.
"""

import numpy as np

from repro import Spec, SpecSet, YieldProblem, optimize, register_problem
from repro.circuit.topologies.base import DesignSpace
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.variation import ProcessVariationModel


class RCFilterEvaluator:
    """Corner frequency of an RC low-pass with R/C manufacturing spread.

    Design variables: nominal R [ohm] and C [F].  Process variables: the
    relative R and C errors (inter-die, ~3 % and ~5 % sigma).
    """

    def __init__(self) -> None:
        group = ParameterGroup(
            [
                StatisticalParameter("dR", 0.0, 0.03, "resistor error"),
                StatisticalParameter("dC", 0.0, 0.05, "capacitor error"),
            ]
        )
        self.variation = ProcessVariationModel(group, [])

    def design_space(self) -> DesignSpace:
        return DesignSpace(["r", "c"], [1e3, 10e-12], [1e6, 10e-9])

    def metric_names(self) -> list[str]:
        return ["corner_hz", "area_score"]

    def evaluate_pairs(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Performance of design row ``X[i]`` at sample row ``samples[i]``."""
        r, c = X[:, 0], X[:, 1]
        r_eff = r * (1.0 + samples[:, 0])
        c_eff = c * (1.0 + samples[:, 1])
        corner = 1.0 / (2.0 * np.pi * r_eff * c_eff)
        # A crude "cost": large R and C both cost area.
        area_score = r / 1e6 + c / 1e-9
        return np.column_stack([corner, area_score])


@register_problem("rc_lowpass")
def make_rc_lowpass_problem(corner_min_hz: float = 9e3) -> YieldProblem:
    """Factory registered under ``"rc_lowpass"``."""
    specs = SpecSet(
        [
            Spec("corner_hz", ">=", float(corner_min_hz), unit="Hz"),
            Spec("area_score", "<=", 1.0),
        ]
    )
    return YieldProblem(RCFilterEvaluator(), specs, name="rc_lowpass")


def main() -> None:
    # The registered name is now a valid RunSpec/CLI target.
    result = optimize("rc_lowpass", method="moheco", seed=1,
                      pop_size=16, max_generations=40)
    r, c = result.best_x
    print(f"sized: R = {r / 1e3:.1f} kohm, C = {c * 1e12:.1f} pF")
    print(f"nominal corner: {1.0 / (2 * np.pi * r * c) / 1e3:.2f} kHz "
          "(target: >= 9 kHz under variations)")
    print(f"reported yield: {result.best_yield:.2%} "
          f"in {result.n_simulations} simulations ({result.reason})")

    # Factory parameters flow through by name as well.
    relaxed = optimize("rc_lowpass", method="moheco", seed=1,
                       problem_params={"corner_min_hz": 5e3},
                       pop_size=16, max_generations=20)
    print(f"relaxed 5 kHz spec: yield {relaxed.best_yield:.2%} "
          f"in {relaxed.n_simulations} simulations")


if __name__ == "__main__":
    main()
