"""Experiment: section 3.4 — response-surface (NN) accuracy study.

Protocol from the paper: take a typical MOHECO run on example 1; at every
checkpoint iteration ``k``, train the 20-neuron BP network (LM training) on
all (design, yield) data from iterations <= k and predict the yields of
iteration ``k + 1``; report the RMS error.  The paper's finding: "even when
the training data corresponding to the first 50 iterations of MOHECO are
used, the RMS error is still 6.86 %" — far above what a designer could
accept, and the reason RSB methods lose to MOHECO at equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import optimize
from repro.problems import make_folded_cascode_problem
from repro.rng import ensure_rng, spawn
from repro.surrogate import ResponseSurfaceYieldModel

__all__ = ["RSBStudyResult", "run_rsb_study"]


@dataclass
class RSBStudyResult:
    """RMS prediction error per training-cutoff iteration."""

    checkpoints: np.ndarray
    rms_errors: np.ndarray
    train_sizes: np.ndarray

    @property
    def final_rms(self) -> float:
        """RMS error at the largest training cutoff (paper: ~6.9 %)."""
        return float(self.rms_errors[-1])

    def formatted(self) -> str:
        """Render the error-vs-training-data curve."""
        lines = [
            "Section 3.4: NN response-surface accuracy on MOHECO run data",
            f"{'train<=iter':>12s} {'#train':>8s} {'RMS error':>10s}",
        ]
        for k, n, e in zip(self.checkpoints, self.train_sizes, self.rms_errors):
            lines.append(f"{int(k):>12d} {int(n):>8d} {e * 100:>9.2f}%")
        lines.append(
            f"final RMS error: {self.final_rms * 100:.2f}% "
            "(paper: 6.86% with 50 iterations of training data)"
        )
        return "\n".join(lines)


def run_rsb_study(
    seed: int = 20100311,
    n_checkpoints: int = 6,
    n_hidden: int = 20,
    max_generations: int = 120,
) -> RSBStudyResult:
    """Run the study on a fresh typical MOHECO trajectory."""
    rng = ensure_rng(seed)
    result = optimize(
        make_folded_cascode_problem(),
        "moheco",
        rng=spawn(rng),
        max_generations=max_generations,
    )
    history = result.history

    # Usable checkpoints: generations with data both before and at k+1.
    usable = [
        record.generation
        for record in history
        if record.generation + 1 < len(history)
        and history.training_data(record.generation)[1].size >= 20
        and history.generation_data(record.generation + 1)[1].size >= 3
    ]
    if not usable:
        raise RuntimeError("the MOHECO run produced too little data for the study")
    idx = np.unique(
        np.linspace(0, len(usable) - 1, min(n_checkpoints, len(usable))).astype(int)
    )
    checkpoints = [usable[i] for i in idx]

    errors, sizes = [], []
    for k in checkpoints:
        x_train, y_train = history.training_data(k)
        x_test, y_test = history.generation_data(k + 1)
        model = ResponseSurfaceYieldModel(
            n_hidden=n_hidden, n_restarts=2, rng=spawn(rng)
        )
        model.fit(x_train, y_train)
        errors.append(model.rms_error(x_test, y_test))
        sizes.append(len(y_train))

    return RSBStudyResult(
        checkpoints=np.array(checkpoints),
        rms_errors=np.array(errors),
        train_sizes=np.array(sizes),
    )
