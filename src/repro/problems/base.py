"""The generic yield-optimization problem.

A problem couples

* an **evaluator** — anything with ``design_space()``, ``metric_names()``,
  ``evaluate_pairs(X, samples)`` (design row ``i`` at process sample row
  ``i``) and a ``variation`` model; amplifier topologies and synthetic
  evaluators both qualify,
* a **spec set** — pass/fail semantics per sample, and
* **ledger accounting** — every evaluated sample is charged to the supplied
  :class:`~repro.ledger.SimulationLedger`, which is what the paper's
  simulation-count tables report.

:meth:`YieldProblem.evaluate_pairs` is the one evaluation entry point:
engine rounds, per-candidate refinement, the reference MC and the PSWCD
analysis all call it, and the step-3 feasibility gate evaluates through the
same slabbed rows.  The per-sample indicator ``J(x, xi) in {0, 1}`` of the
paper is ``specs.passes`` of those rows; yield is its mean over the process
distribution.
"""

from __future__ import annotations

import numpy as np

from repro.ledger import SimulationLedger
from repro.process.technology import Technology
from repro.specs import SpecSet

__all__ = ["YieldProblem", "check_technology"]


#: Rows per evaluator call.  Fixed slabs keep the evaluator's intermediate
#: arrays flat however many rows one call is given; the engine
#: (:class:`~repro.engine.serial.SerialEngine`) streams a round in groups
#: of one slab, held in one ``min(SLAB_ROWS, sum(gains))``-row sample
#: buffer per round, so the round's drawn and stacked samples stay flat
#: too, and with them peak memory, however large a stage-2 round grows.
SLAB_ROWS = 2048


def check_technology(tech=None) -> None:
    """The circuit factories' value check, also their ``validate_params``.

    ``tech`` is ``None`` (the factory builds its own technology) or a
    :class:`~repro.process.technology.Technology`; a spec, being JSON,
    can only ever pass the former.
    """
    if tech is not None and not isinstance(tech, Technology):
        raise TypeError(f"tech must be a Technology instance, got {tech!r}")


class YieldProblem:
    """A sizing problem: maximise yield subject to nominal feasibility.

    Parameters
    ----------
    evaluator:
        The circuit performance model; it must implement
        ``evaluate_pairs(X, samples)``.
    specs:
        Specifications defining pass/fail; metric names must match the
        evaluator's ``metric_names()`` (order included).
    name:
        Label used in experiment reports.
    """

    def __init__(self, evaluator, specs: SpecSet, name: str = "problem") -> None:
        if not callable(getattr(evaluator, "evaluate_pairs", None)):
            raise TypeError(
                f"{type(evaluator).__name__} does not implement "
                "evaluate_pairs(X, samples), the evaluator protocol "
                "(see examples/custom_problem.py)"
            )
        if list(specs.metric_names) != list(evaluator.metric_names()):
            raise ValueError(
                "spec metrics must match evaluator metrics in order: "
                f"{specs.metric_names} vs {evaluator.metric_names()}"
            )
        self.evaluator = evaluator
        self.specs = specs
        self.name = name
        self.space = evaluator.design_space()
        self.variation = evaluator.variation

    # -- dimensions ---------------------------------------------------------
    @property
    def design_dimension(self) -> int:
        """Number of design variables."""
        return self.space.dimension

    @property
    def process_dimension(self) -> int:
        """Number of process variables (paper: 80 / 123)."""
        return self.variation.dimension

    # -- simulation ------------------------------------------------------------
    def evaluate_pairs(
        self,
        X: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Row-aligned evaluation: design ``X[i]`` at its own ``samples[i]``.

        The one evaluation entry point.  Engines stack a round's
        border-band samples, one slab-sized group of candidates at a time,
        into an ``(N, ...)`` pair matrix (each design row repeated for its
        own samples); one
        design at ``n`` samples is ``np.broadcast_to(x, (n, d))``.  Exactly
        ``N`` simulations are charged — one per row, the unit the paper's
        Tables 2/4 count.  The evaluator is called once per
        :data:`SLAB_ROWS` rows.

        Parameters
        ----------
        X:
            Design matrix, shape ``(N, design_dimension)``, aligned row by
            row with ``samples``.
        samples:
            Process sample matrix, shape ``(N, process_dimension)``.

        Returns
        -------
        numpy.ndarray
            Performance matrix, shape ``(N, n_metrics)``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if X.shape[0] != samples.shape[0]:
            raise ValueError(
                f"pairs must align row by row: {X.shape[0]} designs vs "
                f"{samples.shape[0]} samples"
            )
        if ledger is not None:
            ledger.charge(X.shape[0], category=category)
        return self._evaluate_rows(X, samples)

    def _evaluate_rows(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Row-aligned performance ``(N, n_metrics)`` in slabs; charges nothing."""
        out = np.empty((X.shape[0], len(self.specs)))
        for start in range(0, X.shape[0], SLAB_ROWS):
            stop = start + SLAB_ROWS
            out[start:stop] = self.evaluator.evaluate_pairs(
                X[start:stop], samples[start:stop]
            )
        return out

    # -- nominal feasibility -------------------------------------------------------
    def nominal_feasibility(
        self, x: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[bool, float]:
        """(feasible, constraint violation) at the nominal process point.

        This is the paper's step-3 feasibility check: infeasible candidates
        get yield 0 and compete by violation (Deb's rules); no MC analysis
        is spent on them.  It is the one-row case of
        :meth:`nominal_feasibility_batch`.
        """
        feasible, violation = self.nominal_feasibility_batch(
            np.asarray(x, dtype=float)[None, :], ledger
        )
        return bool(feasible[0]), float(violation[0])

    def nominal_feasibility_batch(
        self, X: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-3 feasibility of a whole design batch in one evaluation.

        Returns ``(feasible, violation)`` arrays of shape ``(m,)``; one
        simulation per design is charged to ``feasibility``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if ledger is not None:
            ledger.charge(X.shape[0], category="feasibility")
        nominal = np.broadcast_to(
            self.variation.nominal(), (X.shape[0], self.process_dimension)
        )
        violations = self.specs.violation(self._evaluate_rows(X, nominal))
        return violations == 0.0, violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"YieldProblem({self.name!r}, d={self.design_dimension}, "
            f"p={self.process_dimension}, specs={len(self.specs)})"
        )
