"""Incremental Monte-Carlo yield estimation for one candidate design.

:class:`CandidateYieldState` is the unit OCBA operates on: it owns the
candidate's private sample stream, its running pass count, and (optionally)
an acceptance-sampling screener.  ``refine(k)`` adds ``k`` more samples to
the estimate, charging only the simulations the screener could not avoid.

Screened samples count toward the *estimate* (they are classified
pass/fail) but not toward the *cost* — exactly how the paper credits AS.

Refinement is split into two halves so
:meth:`SerialEngine.refine_round <repro.engine.serial.SerialEngine.refine_round>`
can fuse many candidates' simulations into stacked dispatches:

* :meth:`CandidateYieldState.prepare` draws the sample block from the
  candidate's private RNG stream, lets the screener resolve the certain
  samples locally, and returns the border band as a
  :class:`PendingRefinement`;
* :meth:`CandidateYieldState.absorb` incorporates the simulated
  performance rows back into the running estimate.

``refine(k)`` composes the two with an immediate local evaluation through
``problem.evaluate_pairs``, one candidate at a time: the per-candidate
reference the fused round is tested against.  Because each candidate owns
a private generator, the draw streams are independent of how the pending
blocks are grouped for simulation, so fused and per-candidate rounds give
bit-identical estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ledger import SimulationLedger
from repro.sampling.acceptance import LinearMarginScreener
from repro.sampling.base import Sampler

__all__ = ["YieldEstimate", "CandidateYieldState", "PendingRefinement"]

#: Variance floor so OCBA ratios stay finite for 0 %/100 % estimates.
_VARIANCE_FLOOR = 1e-4


@dataclass
class PendingRefinement:
    """A candidate's border-band samples awaiting simulation.

    Produced by :meth:`CandidateYieldState.prepare`; the fused round
    simulates ``samples`` at ``state.x`` (charging ``category``) and feeds
    the performance rows back through :meth:`CandidateYieldState.absorb`.
    It repoints ``samples`` at rows of its round buffer, so they are valid
    only until the block has been absorbed.
    """

    state: "CandidateYieldState"
    samples: np.ndarray
    category: str

    @property
    def n_samples(self) -> int:
        """Rows awaiting simulation."""
        return int(self.samples.shape[0])


@dataclass(frozen=True)
class YieldEstimate:
    """A yield point estimate with its sampling-error description."""

    passes: int
    n: int

    @property
    def value(self) -> float:
        """The yield estimate (0 when no samples were taken)."""
        if self.n == 0:
            return 0.0
        return self.passes / self.n

    @property
    def variance(self) -> float:
        """Bernoulli variance p(1-p), floored away from zero."""
        p = self.value
        return max(p * (1.0 - p), _VARIANCE_FLOOR)

    @property
    def std(self) -> float:
        """Standard deviation of one sample (sqrt of variance)."""
        return float(np.sqrt(self.variance))

    @property
    def standard_error(self) -> float:
        """Standard error of the estimate itself."""
        if self.n == 0:
            return 1.0
        return self.std / np.sqrt(self.n)

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval — robust near 0 %/100 % yields."""
        if self.n == 0:
            return 0.0, 1.0
        n, p = self.n, self.value
        denom = 1.0 + z**2 / n
        centre = (p + z**2 / (2 * n)) / denom
        half = (z / denom) * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
        # Clamp against floating-point dust: mathematically the Wilson
        # interval always contains the point estimate.
        low = min(max(0.0, centre - half), p)
        high = max(min(1.0, centre + half), p)
        return low, high


class CandidateYieldState:
    """Incrementally-refined yield estimate of one design point.

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.base.YieldProblem`.
    x:
        The design vector (copied).
    sampler:
        Sample stream (PMC / LHS / Sobol).
    rng:
        Private generator for this candidate's draws.
    ledger:
        Budget ledger; simulations are charged to ``category``.
    category:
        Ledger category ("stage1", "stage2", "local_search", ...).
    screener:
        Optional acceptance-sampling screener; ``None`` disables AS.
    """

    def __init__(
        self,
        problem,
        x: np.ndarray,
        sampler: Sampler,
        rng: np.random.Generator,
        ledger: SimulationLedger | None = None,
        category: str = "stage1",
        screener: LinearMarginScreener | None = None,
    ) -> None:
        self.problem = problem
        self.x = np.array(x, dtype=float)
        self.sampler = sampler
        self.rng = rng
        self.ledger = ledger
        self.category = category
        self.screener = screener
        self._passes = 0
        self._n = 0
        self._n_simulated = 0

    # -- state --------------------------------------------------------------
    @property
    def n(self) -> int:
        """Samples incorporated in the estimate (simulated + screened)."""
        return self._n

    @property
    def n_simulated(self) -> int:
        """Simulations actually charged for this candidate."""
        return self._n_simulated

    @property
    def estimate(self) -> YieldEstimate:
        """Current estimate snapshot."""
        return YieldEstimate(passes=self._passes, n=self._n)

    @property
    def value(self) -> float:
        """Current yield estimate.

        Computed inline (same arithmetic as :attr:`YieldEstimate.value`):
        the OCBA loop reads it for every candidate every round, so it must
        not pay a snapshot allocation.
        """
        if self._n == 0:
            return 0.0
        return self._passes / self._n

    @property
    def std(self) -> float:
        """Per-sample standard deviation (for OCBA); same fast path."""
        p = self.value
        return float(np.sqrt(max(p * (1.0 - p), _VARIANCE_FLOOR)))

    # -- refinement --------------------------------------------------------------
    def prepare(
        self, n_additional: int, category: str | None = None
    ) -> PendingRefinement | None:
        """Draw and screen ``n_additional`` samples; return the border band.

        The candidate's private RNG stream advances here, and the screener
        resolves (and immediately incorporates) the certain samples; only
        the samples that genuinely need simulation are returned.  ``None``
        means nothing is left to simulate.
        """
        if n_additional < 0:
            raise ValueError(f"cannot refine by a negative count: {n_additional}")
        if n_additional == 0:
            return None

        samples = self.sampler.draw(n_additional, self.rng)

        if self.screener is not None and self.screener.active:
            screen = self.screener.classify(samples)
            self._passes += screen.screened_pass
            self._n += screen.n_screened
            if self.ledger is not None:
                self.ledger.record_screened(screen.n_screened)
            samples = samples[screen.simulate_mask]

        if samples.shape[0] == 0:
            return None
        return PendingRefinement(self, samples, category or self.category)

    def absorb(
        self,
        samples: np.ndarray,
        performance: np.ndarray,
        margins: np.ndarray | None = None,
        n_passed: int | None = None,
    ) -> YieldEstimate:
        """Incorporate simulated ``performance`` rows for ``samples``.

        ``margins`` and ``n_passed`` may be supplied when the caller already
        computed them on a fused block (one vectorized op across all
        candidates of a round); otherwise they are derived here.
        """
        if margins is None:
            margins = self.problem.specs.margins(performance)
        if n_passed is None:
            n_passed = int(np.sum(np.all(margins >= 0.0, axis=1)))
        self._passes += n_passed
        self._n += samples.shape[0]
        self._n_simulated += samples.shape[0]
        if self.screener is not None:
            self.screener.update(samples, margins)
        return self.estimate

    def refine(self, n_additional: int, category: str | None = None) -> YieldEstimate:
        """Add ``n_additional`` samples to the estimate.

        Draws fresh samples, lets the screener resolve the certain ones, and
        simulates the border band locally; returns the updated estimate.
        The fused round runs the same two halves (:meth:`prepare` /
        :meth:`absorb`) across candidates instead.
        """
        pending = self.prepare(n_additional, category)
        if pending is None:
            return self.estimate
        X = np.broadcast_to(self.x, (pending.n_samples, self.x.size))
        performance = self.problem.evaluate_pairs(
            X, pending.samples, self.ledger, pending.category
        )
        return self.absorb(pending.samples, performance)
