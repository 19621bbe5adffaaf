"""Acceptance sampling (AS): simulate only near the acceptance border.

The original AS technique [Elias 1994] avoids simulating Monte-Carlo samples
that are clearly inside or clearly outside the acceptance region, spending
simulations only near the border.  The paper keeps the idea but insists the
border itself is resolved by real MC simulations to protect accuracy; our
implementation follows that contract:

1. For each candidate design, the first ``min_train`` samples are always
   simulated; their spec *margins* train a ridge-regularised linear model
   margin_j ~ w_j . xi + b_j with per-spec residual standard deviations.
2. For subsequent samples the model predicts all margins.  A sample is
   classified without simulation only when the prediction is *certain*:
   every margin above ``+safety * sigma_resid`` (certain pass) or at least
   one margin below ``-safety * sigma_resid`` (certain fail).  Everything
   else — the border band — is simulated exactly.
3. Every simulated sample is fed back into the training set; the model is
   refit on a doubling schedule.  A refit only runs when a classification
   reads it: ``update`` marks it due on the blocks seen so far, and the
   next ``classify`` fits exactly that prefix first.  A candidate that is
   never classified again (a fixed budget refines in one round) never
   pays for the fit.

With the default ``safety = 3`` the per-sample misclassification probability
is Phi(-3) ~ 0.13 % per spec *under the linear-Gaussian assumption*, and in
practice lower because most screened samples sit far beyond the band.  The
screener reports how many simulations it avoided; the ledger records them as
``screened_out`` and they are never charged as simulations (matching how the
paper credits AS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.specs import SpecSet

__all__ = ["LinearMarginScreener", "ScreenResult"]


@dataclass
class ScreenResult:
    """Outcome of screening one batch of samples.

    ``labels``: +1 certain pass, 0 certain fail, -1 must simulate.
    """

    labels: np.ndarray

    @property
    def simulate_mask(self) -> np.ndarray:
        """Boolean mask of samples that require full simulation."""
        return self.labels < 0

    @property
    def screened_pass(self) -> int:
        """Samples classified as pass without simulation."""
        return int(np.sum(self.labels == 1))

    @property
    def screened_fail(self) -> int:
        """Samples classified as fail without simulation."""
        return int(np.sum(self.labels == 0))

    @property
    def n_screened(self) -> int:
        """Total samples resolved without simulation."""
        return self.screened_pass + self.screened_fail


class LinearMarginScreener:
    """Self-calibrating acceptance-sampling screener for one candidate.

    :meth:`update` stores its own copy of the samples it trains on, since
    the fit that reads them runs later and the caller may reuse the array.

    Parameters
    ----------
    specs:
        The problem's spec set (margins are modelled in normalised units).
    safety:
        Certainty band half-width in residual standard deviations.
    min_train:
        Simulations accumulated before the model activates.
    ridge:
        Tikhonov regularisation weight (the process dimension usually
        exceeds the early training-set size).
    """

    def __init__(
        self,
        specs: SpecSet,
        safety: float = 3.0,
        min_train: int = 30,
        ridge: float = 1e-2,
    ) -> None:
        if safety <= 0:
            raise ValueError(f"safety must be positive, got {safety}")
        self.specs = specs
        self.safety = float(safety)
        self.min_train = int(min_train)
        self.ridge = float(ridge)
        self._x: list[np.ndarray] = []      # blocks of simulated process samples
        self._m: list[np.ndarray] = []      # their margin rows, block by block
        self._n_train = 0
        self._weights: np.ndarray | None = None   # (d+1, n_specs)
        self._resid_std: np.ndarray | None = None  # (n_specs,)
        self._trained_at = 0
        self._due_blocks = 0  # blocks the due fit covers; 0 = none due

    # -- training ------------------------------------------------------------
    @property
    def n_train(self) -> int:
        """Number of simulated samples available for training."""
        return self._n_train

    def update(self, samples: np.ndarray, margins: np.ndarray) -> None:
        """Feed back simulated samples and their spec margins.

        The screener keeps its own copy of ``samples``: the engine hands
        over rows of a round buffer that the round's next group overwrites,
        and the fit reads them later.
        """
        samples = np.array(samples, dtype=float, ndmin=2)
        margins = np.atleast_2d(np.asarray(margins, dtype=float))
        self._x.append(samples)
        self._m.append(margins)
        self._n_train += samples.shape[0]
        # Refit on a doubling schedule to amortise the lstsq cost; the fit
        # itself waits for the next classify.
        if self.n_train >= self.min_train and self.n_train >= 2 * max(
            self._trained_at, self.min_train // 2
        ):
            self._due_blocks = len(self._x)
            self._trained_at = self.n_train

    def _fit(self, blocks: int) -> None:
        """Fit the margin model on the first ``blocks`` training blocks."""
        x = np.vstack(self._x[:blocks])
        m = np.vstack(self._m[:blocks])
        n, d = x.shape
        design = np.hstack([np.ones((n, 1)), x])
        # Ridge via augmented least squares: [A; sqrt(l) I] w = [m; 0].
        penalty = np.sqrt(self.ridge) * np.eye(d + 1)
        penalty[0, 0] = 0.0  # never penalise the intercept
        a_aug = np.vstack([design, penalty])
        b_aug = np.vstack([m, np.zeros((d + 1, m.shape[1]))])
        weights, *_ = np.linalg.lstsq(a_aug, b_aug, rcond=None)
        residuals = m - design @ weights
        # Unbiased-ish residual scale with a floor: a model that looks
        # perfect on a small training set must not screen aggressively.
        dof = max(n - 1, 1)
        resid_std = np.sqrt(np.sum(residuals**2, axis=0) / dof)
        floor = 0.05 * np.std(m, axis=0, ddof=1) + 1e-9
        self._weights = weights
        self._resid_std = np.maximum(resid_std, floor)

    # -- classification ----------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the model has enough data to screen (a fit is due or done)."""
        return self._due_blocks > 0 or self._weights is not None

    def classify(self, samples: np.ndarray) -> ScreenResult:
        """Classify a batch; -1 entries must be simulated."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        n = samples.shape[0]
        labels = np.full(n, -1, dtype=int)
        if not self.active or n == 0:
            return ScreenResult(labels)
        if self._due_blocks:
            self._fit(self._due_blocks)
            self._due_blocks = 0

        design = np.hstack([np.ones((n, 1)), samples])
        predicted = design @ self._weights
        band = self.safety * self._resid_std
        certain_pass = np.all(predicted >= band, axis=1)
        certain_fail = np.any(predicted <= -band, axis=1)
        labels[certain_pass] = 1
        # A sample that is certain-fail on one spec is a fail regardless of
        # the others; resolve the (rare) overlap with certain_pass in favour
        # of simulation.
        overlap = certain_pass & certain_fail
        labels[certain_fail] = 0
        labels[overlap] = -1
        return ScreenResult(labels)
