"""The generic yield-optimization problem.

A problem couples

* an **evaluator** — anything with ``design_space()``, ``metric_names()``,
  ``evaluate(x, samples)`` and a ``variation`` model (amplifier topologies
  and synthetic evaluators both qualify); one that also has
  ``evaluate_pairs(X, samples)`` is batched across designs,
* a **spec set** — pass/fail semantics per sample, and
* **ledger accounting** — every evaluated sample is charged to the supplied
  :class:`~repro.ledger.SimulationLedger`, which is what the paper's
  simulation-count tables report.

The per-sample indicator ``J(x, xi) in {0, 1}`` of the paper is
:meth:`YieldProblem.indicator`; yield is its mean over the process
distribution.
"""

from __future__ import annotations

import numpy as np

from repro.ledger import SimulationLedger
from repro.specs import SpecSet

__all__ = ["YieldProblem"]


#: Rows per evaluator call on the batched paths.  Fixed slabs keep the
#: evaluator's intermediate arrays, and with them peak memory, flat however
#: large a fused round grows.
SLAB_ROWS = 2048


def _equal_row_runs(X: np.ndarray):
    """Yield ``(start, stop)`` slices of runs of identical consecutive rows."""
    n = X.shape[0]
    if n == 0:
        return
    changed = np.flatnonzero(np.any(X[1:] != X[:-1], axis=1)) + 1
    start = 0
    for stop in (*changed.tolist(), n):
        yield start, stop
        start = stop


class YieldProblem:
    """A sizing problem: maximise yield subject to nominal feasibility.

    Parameters
    ----------
    evaluator:
        The circuit performance model.
    specs:
        Specifications defining pass/fail; metric names must match the
        evaluator's ``metric_names()`` (order included).
    name:
        Label used in experiment reports.
    """

    def __init__(self, evaluator, specs: SpecSet, name: str = "problem") -> None:
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
    def simulate(
        self,
        x: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Performance matrix of ``x`` at ``samples``; charges the ledger.

        One charged simulation per sample row — the unit the paper's
        Tables 2/4 count.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if ledger is not None:
            ledger.charge(samples.shape[0], category=category)
        return self.evaluator.evaluate(np.asarray(x, dtype=float), samples)

    def indicator(
        self,
        x: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Per-sample pass indicator J(x, xi), shape ``(n,)`` of bool."""
        performance = self.simulate(x, samples, ledger, category)
        return self.specs.passes(performance)

    # -- batched simulation ----------------------------------------------------
    def evaluate_batch(
        self,
        X: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Performance tensor of ``m`` designs at ``n`` shared samples.

        This is the batched evaluation protocol the Monte-Carlo hot paths
        call: one array op instead of ``m`` Python-level evaluator calls.
        Evaluators that define ``evaluate_batch(X, samples)`` (the synthetic
        problems do) are called once for the whole design batch; all others
        see the ``m * n`` (design, sample) pairs through the same slabbed
        row evaluation as :meth:`evaluate_pairs`.

        Parameters
        ----------
        X:
            Design matrix, shape ``(m, design_dimension)`` (a single design
            vector is promoted to ``m = 1``).
        samples:
            Process sample matrix, shape ``(n, process_dimension)``.

        Returns
        -------
        numpy.ndarray
            Performance tensor, shape ``(m, n, n_metrics)``; ``m * n``
            simulations are charged to the ledger.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if ledger is not None:
            ledger.charge(X.shape[0] * samples.shape[0], category=category)
        batch_evaluate = getattr(self.evaluator, "evaluate_batch", None)
        if batch_evaluate is not None:
            return np.asarray(batch_evaluate(X, samples), dtype=float)
        m, n = X.shape[0], samples.shape[0]
        rows = self._evaluate_rows(np.repeat(X, n, axis=0), np.tile(samples, (m, 1)))
        return rows.reshape(m, n, -1)

    def evaluate_pairs(
        self,
        X: np.ndarray,
        samples: np.ndarray,
        ledger: SimulationLedger | None = None,
        category: str = "mc",
    ) -> np.ndarray:
        """Row-aligned evaluation: design ``X[i]`` at its own ``samples[i]``.

        This is the fused-round protocol of the execution engines: one OCBA
        round's border-band samples for *all* candidates, stacked into a
        single ``(N, ...)`` pair matrix (each design row repeated for its
        own samples), resolved in one dispatch.  Unlike
        :meth:`evaluate_batch` — the cross-product ``m x n`` protocol — it
        charges exactly ``N`` simulations.

        Evaluators that define ``evaluate_pairs(X, samples)`` (the paper's
        circuits and the synthetic problems) are called once per
        :data:`SLAB_ROWS` rows; all others are dispatched one call per run
        of identical consecutive design rows (which is exactly one call per
        candidate when the engines build the stack).

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
        """Row-aligned performance ``(N, n_metrics)``; charges nothing."""
        out = np.empty((X.shape[0], len(self.specs)))
        pairs_evaluate = getattr(self.evaluator, "evaluate_pairs", None)
        if pairs_evaluate is None:
            for start, stop in _equal_row_runs(X):
                out[start:stop] = self.evaluator.evaluate(X[start], samples[start:stop])
            return out
        for start in range(0, X.shape[0], SLAB_ROWS):
            stop = start + SLAB_ROWS
            out[start:stop] = pairs_evaluate(X[start:stop], samples[start:stop])
        return out

    # -- nominal feasibility -------------------------------------------------------
    def nominal_performance(
        self, x: np.ndarray, ledger: SimulationLedger | None = None
    ) -> np.ndarray:
        """Performance at the nominal process point (one charged sim)."""
        nominal = self.variation.nominal()[None, :]
        return self.simulate(x, nominal, ledger, category="feasibility")[0]

    def nominal_feasibility(
        self, x: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[bool, float]:
        """(feasible, constraint violation) at the nominal process point.

        This is the paper's step-3 feasibility check: infeasible candidates
        get yield 0 and compete by violation (Deb's rules); no MC analysis
        is spent on them.
        """
        performance = self.nominal_performance(x, ledger)[None, :]
        violation = float(self.specs.violation(performance)[0])
        return violation == 0.0, violation

    def nominal_feasibility_batch(
        self, X: np.ndarray, ledger: SimulationLedger | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-3 feasibility of a whole design batch in one evaluation.

        Returns ``(feasible, violation)`` arrays of shape ``(m,)``; one
        simulation per design is charged, exactly as ``m`` scalar calls
        would.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        nominal = self.variation.nominal()[None, :]
        performance = self.evaluate_batch(X, nominal, ledger, category="feasibility")
        violations = self.specs.violation(performance[:, 0, :])
        return violations == 0.0, violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"YieldProblem({self.name!r}, d={self.design_dimension}, "
            f"p={self.process_dimension}, specs={len(self.specs)})"
        )
