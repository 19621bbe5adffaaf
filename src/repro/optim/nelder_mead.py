"""Bound-aware Nelder-Mead simplex search (Lagarias et al. 1998).

MOHECO's local engine: gradient-free (yield estimates are noisy and
non-differentiable), cheap in bookkeeping, and effective for the local
refinement of a single good candidate.  Objective evaluations are expensive
(each costs ``n_max`` circuit simulations), so the implementation counts
evaluated points and honours a hard cap on them, the initial simplex
included.

The objective is batched: it takes an ``(m, d)`` matrix of points and
returns their ``m`` values.  Independent points share one call — the
``d + 1`` vertices of the initial simplex, and the vertices of a shrink
step — so an objective that simulates can fuse them into one round.
Reflection, expansion and contraction each depend on the value before
them and are one-row calls.

Standard coefficients: reflection 1, expansion 2, contraction 0.5,
shrink 0.5.  Points are clipped into the design box before evaluation (the
simplex geometry is preserved by clipping only the evaluated copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuit.topologies.base import DesignSpace

__all__ = ["nelder_mead_maximize", "NelderMeadResult"]


@dataclass
class NelderMeadResult:
    """Outcome of a simplex search."""

    x: np.ndarray
    objective: float
    iterations: int
    #: Points evaluated (not objective calls), the initial simplex included.
    evaluations: int


def nelder_mead_maximize(
    objective: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    space: DesignSpace,
    max_iterations: int = 10,
    initial_step: float = 0.03,
    max_evaluations: int | None = None,
) -> NelderMeadResult:
    """Maximise ``objective`` starting from ``x0``.

    Parameters
    ----------
    objective:
        Batched function to maximise: an ``(m, d)`` matrix of points in,
        ``m`` values out (MOHECO passes a stage-2 yield estimator).
    x0:
        Start point (the population best).
    space:
        Box bounds; evaluated points are clipped into the box.
    max_iterations:
        Simplex iterations (the paper notes NM "needs about 10 iterations
        for one candidate").
    initial_step:
        Initial simplex size as a fraction of each variable's range.
    max_evaluations:
        Optional hard cap on evaluated points (budget guard), at least 1.
        The ``d + 1`` vertices of the initial simplex count against it;
        under a cap below ``d + 1`` only the first ``max_evaluations``
        vertices are evaluated, and the best of them is returned after 0
        iterations.
    """
    x0 = space.clip(np.asarray(x0, dtype=float))
    d = space.dimension
    span = space.upper - space.lower
    cap = max_evaluations if max_evaluations is not None else (d + 1) * (max_iterations + 2)
    if cap < 1:
        raise ValueError(f"max_evaluations must be >= 1, got {cap}")

    evaluations = 0

    def f(xs: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(xs)
        return np.asarray(objective(space.clip(xs)), dtype=float)

    # Initial simplex: x0 plus one step along each axis (sign chosen away
    # from the nearer bound so the simplex starts inside the box).
    simplex = [x0.copy()]
    for j in range(d):
        step = initial_step * span[j]
        direction = 1.0 if x0[j] + step <= space.upper[j] else -1.0
        vertex = x0.copy()
        vertex[j] += direction * step
        simplex.append(space.clip(vertex))
    simplex = np.array(simplex)
    values = f(simplex[: min(d + 1, cap)])

    iterations = 0
    while iterations < max_iterations and evaluations < cap:
        iterations += 1
        order = np.argsort(-values)  # descending: best first
        simplex, values = simplex[order], values[order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + 1.0 * (centroid - worst)
        fr = f(reflected[None, :])[0]
        if fr > values[0]:
            # Try to expand.
            expanded = centroid + 2.0 * (centroid - worst)
            fe = f(expanded[None, :])[0] if evaluations < cap else -np.inf
            if fe > fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            # Contract (outside if the reflection helped a little).
            if fr > values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted[None, :])[0] if evaluations < cap else -np.inf
            if fc > min(fr, values[-1]):
                simplex[-1], values[-1] = contracted, fc
            else:
                # Shrink toward the best vertex, as many vertices as the
                # cap still allows, in one call.
                shrunk = slice(1, 1 + min(d, cap - evaluations))
                if shrunk.stop > 1:
                    simplex[shrunk] = simplex[0] + 0.5 * (simplex[shrunk] - simplex[0])
                    values[shrunk] = f(simplex[shrunk])

    best = int(np.argmax(values))
    return NelderMeadResult(
        x=space.clip(simplex[best]),
        objective=float(values[best]),
        iterations=iterations,
        evaluations=evaluations,
    )
