"""Ordinal-selection quality metrics.

Used by tests and the OCBA-vs-equal ablation bench to quantify the paper's
tenet that "order is easier than value": with the same total budget, OCBA
allocation yields a higher probability of correctly selecting the best
design (P{CS}) than equal allocation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["approximate_pcs", "equal_allocation"]


def equal_allocation(n_designs: int, total: int) -> np.ndarray:
    """Split ``total`` as evenly as integers allow (the non-OCBA baseline)."""
    if n_designs <= 0:
        raise ValueError(f"need at least one design, got {n_designs}")
    base = total // n_designs
    alloc = np.full(n_designs, base, dtype=int)
    alloc[: total - base * n_designs] += 1
    return alloc


def approximate_pcs(
    means: np.ndarray, stds: np.ndarray, allocation: np.ndarray
) -> float:
    """Approximate probability of correct selection (APCS, Chen 2000).

    Bonferroni-style lower bound: with ``b`` the true best design::

        P{CS} >= 1 - sum_{i != b} P(Jhat_b < Jhat_i)
               = 1 - sum_{i != b} Phi(-delta_i / sqrt(s_b^2/n_b + s_i^2/n_i))

    Designs with zero allocation contribute a full miss probability (their
    estimate is uninformative).
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    if not (means.shape == stds.shape == allocation.shape):
        raise ValueError("means, stds and allocation must have equal shapes")

    b = int(np.argmax(means))
    miss = 0.0
    for i in range(means.shape[0]):
        if i == b:
            continue
        if allocation[i] <= 0 or allocation[b] <= 0:
            miss += 0.5
            continue
        gap = means[b] - means[i]
        scale = np.sqrt(
            stds[b] ** 2 / allocation[b] + stds[i] ** 2 / allocation[i]
        )
        if scale == 0.0:
            continue
        miss += float(ndtr(-gap / scale))
    return max(0.0, 1.0 - miss)
