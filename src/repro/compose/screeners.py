"""The surrogate screen of a MOHECO run (``screen_params``).

The screen sits between trial proposal (step 2) and the feasibility gate
(step 3) of the MOHECO loop: it sees the raw trial matrix *before any
simulation is charged* and decides which rows are worth simulating.
Pruned rows never reach the feasibility check, so they cost zero
simulations — the ledger's ``pruned`` column records them instead.

Determinism contract: the screen's decisions depend only on the run's
seed and the (engine-invariant) estimation results — never on
wall-clock, engine choice or worker count — because every
decision lands on ``MOHECOResult.screen_trace``, which is part of the
result *identity*.  The :class:`SurrogateScreener` satisfies this by
drawing all of its randomness from a private stream spawned from the
optimizer RNG at construction, refitting on a data-driven cadence, and
breaking score ties by stable index order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rng import ensure_rng, spawn
from repro.surrogate.rsb import ResponseSurfaceYieldModel

__all__ = ["SurrogateScreener", "make_screener"]


class SurrogateScreener:
    """Online MLP/RSB yield discriminator pruning the trial pool.

    BagNet-style (PAPERS.md, arxiv 1907.10515): a cheap learned model is
    trained on every candidate the run has already paid to evaluate, and
    each generation's trial pool is ranked by predicted yield before any
    simulator time is spent.  Only the top ``keep_fraction`` survive to
    the feasibility gate.

    The keep-fraction is *calibrated by rank quantile*: the cut is taken
    on the score ordering, not on an absolute score threshold, so a
    systematically optimistic or pessimistic surrogate still prunes
    exactly the configured fraction — miscalibration of the regressor's
    scale cannot silently disable (or over-tighten) the screen.

    Parameters (the ``screen_params`` knobs)
    ----------------------------------------
    keep_fraction:
        Fraction of each trial pool that survives, in (0, 1].
    min_train:
        Evaluated-candidate count below which the screener falls back to
        keep-all (mode ``"fallback"`` in the trace) — an untrained
        discriminator must not veto exploration.
    min_keep:
        Hard floor on survivors per generation (>= 1), so a tiny pool or
        an aggressive fraction can never starve selection.
    refit_every:
        Refit cadence in screening calls (1 = every generation).
    n_hidden / n_restarts / max_iterations:
        The :class:`~repro.surrogate.rsb.ResponseSurfaceYieldModel`
        training knobs; defaults are sized for a per-generation refit.
    max_train:
        Cap on training rows (most recent win), bounding refit cost on
        long runs.
    """

    def __init__(
        self,
        *,
        keep_fraction: float = 0.5,
        min_train: int = 30,
        min_keep: int = 2,
        refit_every: int = 1,
        n_hidden: int = 8,
        n_restarts: int = 1,
        max_iterations: int = 40,
        max_train: int = 512,
        rng=None,
        **params,
    ) -> None:
        if params:
            raise ValueError(
                f"unknown screen_params {sorted(params)}; valid knobs: "
                "keep_fraction, min_train, min_keep, refit_every, n_hidden, "
                "n_restarts, max_iterations, max_train"
            )
        keep_fraction = float(keep_fraction)
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
        min_train = int(min_train)
        if min_train < 2:
            raise ValueError(f"min_train must be >= 2, got {min_train}")
        min_keep = int(min_keep)
        if min_keep < 1:
            raise ValueError(f"min_keep must be >= 1, got {min_keep}")
        refit_every = int(refit_every)
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        for name, value in (
            ("n_hidden", int(n_hidden)),
            ("n_restarts", int(n_restarts)),
            ("max_iterations", int(max_iterations)),
            ("max_train", int(max_train)),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.keep_fraction = keep_fraction
        self.min_train = min_train
        self.min_keep = min_keep
        self.refit_every = refit_every
        self.n_hidden = int(n_hidden)
        self.n_restarts = int(n_restarts)
        self.max_iterations = int(max_iterations)
        self.max_train = int(max_train)
        self.rng = ensure_rng(rng)
        self._train_x: list[np.ndarray] = []
        self._train_y: list[float] = []
        self._model: ResponseSurfaceYieldModel | None = None
        self._screens = 0

    # -- training data ------------------------------------------------------
    def observe(self, x: np.ndarray, y: float) -> None:
        """Record one evaluated candidate (infeasible ones arrive as 0.0)."""
        self._train_x.append(np.asarray(x, dtype=float).copy())
        self._train_y.append(float(y))

    @property
    def train_rows(self) -> int:
        """Evaluated candidates accumulated so far."""
        return len(self._train_y)

    # -- screening ----------------------------------------------------------
    def _refit(self) -> None:
        x = np.array(self._train_x[-self.max_train :])
        y = np.array(self._train_y[-self.max_train :])
        # A fresh model per refit with its own spawned stream: the RNG
        # consumption is a deterministic function of the refit count, so
        # score sequences replay bit-identically across engines.
        self._model = ResponseSurfaceYieldModel(
            n_hidden=self.n_hidden,
            n_restarts=self.n_restarts,
            max_iterations=self.max_iterations,
            rng=spawn(self.rng),
        )
        self._model.fit(x, y)

    def screen(self, xs: np.ndarray, generation: int):
        """Rank the pool and keep the calibrated top fraction.

        Returns ``(keep_mask, record)`` — the boolean survivor mask over
        ``xs`` rows and the JSON-compatible ``screen_trace`` entry.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = len(xs)
        targets = self._train_y[-self.max_train :]
        # Two fallback conditions, both keep-all: too few evaluated
        # candidates, or no *signal* in them (a discriminator trained on a
        # constant target — e.g. an all-infeasible population, every yield
        # 0 — would rank the pool arbitrarily and veto the very
        # exploration that finds the first feasible design).
        if self.train_rows < self.min_train or max(targets) <= min(targets):
            record = {
                "generation": int(generation),
                "mode": "fallback",
                "refit": False,
                "train_rows": self.train_rows,
                "keep": list(range(n)),
                "pruned": [],
            }
            return np.ones(n, dtype=bool), record

        refit = self._model is None or self._screens % self.refit_every == 0
        if refit:
            self._refit()
        self._screens += 1

        scores = np.nan_to_num(self._model.predict(xs), nan=-1.0)
        n_keep = min(n, max(self.min_keep, math.ceil(self.keep_fraction * n)))
        # Stable sort: equal scores keep their index order, so the cut is
        # deterministic regardless of float-tie patterns.
        order = np.argsort(-scores, kind="stable")
        keep_indices = sorted(int(i) for i in order[:n_keep])
        mask = np.zeros(n, dtype=bool)
        mask[keep_indices] = True
        record = {
            "generation": int(generation),
            "mode": "screened",
            "refit": bool(refit),
            "train_rows": self.train_rows,
            "keep": keep_indices,
            "pruned": [int(i) for i in np.flatnonzero(~mask)],
            "scores": [round(float(s), 9) for s in scores],
        }
        return mask, record


def make_screener(screen_params: dict, *, rng=None) -> SurrogateScreener:
    """The :class:`SurrogateScreener` a run's ``screen_params`` configure.

    Unknown or out-of-range knobs raise ``ValueError`` here, which spec
    validation surfaces as a structured
    :class:`~repro.api.errors.SpecError` at submission time.
    """
    if not isinstance(screen_params, dict):
        raise ValueError(
            f"screen_params must be a dict of screener knobs, got {screen_params!r}"
        )
    return SurrogateScreener(**screen_params, rng=rng)
