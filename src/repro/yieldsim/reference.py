"""High-N reference yield estimation.

The paper scores every method against a 50 000-sample MC analysis at the
returned design point ("a very reliable approximation of the real yield
value": within 0.01 % of a 250 000-sample run).  These verification
simulations are charged to the ``reference`` ledger category, which
:attr:`~repro.ledger.SimulationLedger.total` excludes — the paper's tables
likewise exclude them.
"""

from __future__ import annotations

import numpy as np

from repro.ledger import REFERENCE_CATEGORY, SimulationLedger
from repro.yieldsim.estimator import YieldEstimate

__all__ = ["reference_yield"]


def reference_yield(
    problem,
    x: np.ndarray,
    n: int = 50_000,
    rng: np.random.Generator | None = None,
    ledger: SimulationLedger | None = None,
    batch_size: int = 5_000,
) -> YieldEstimate:
    """Plain-MC yield of design ``x`` with ``n`` samples, batched.

    Batching bounds peak memory (the 123-variable problem at 50 k samples
    would otherwise materialise hundreds of MB of device arrays at once).
    Raises :class:`ValueError` unless ``n`` and ``batch_size`` are >= 1.
    """
    if n < 1 or batch_size < 1:
        raise ValueError(
            f"reference MC needs n >= 1 and batch_size >= 1, got n={n}, "
            f"batch_size={batch_size}"
        )
    if rng is None:
        rng = np.random.default_rng(2**32 - 1)
    x = np.asarray(x, dtype=float)
    passes = 0
    remaining = int(n)
    while remaining > 0:
        batch = min(batch_size, remaining)
        samples = problem.variation.sample(batch, rng)
        performance = problem.evaluate_pairs(
            np.broadcast_to(x, (batch, x.size)),
            samples,
            ledger,
            category=REFERENCE_CATEGORY,
        )
        passes += int(np.sum(problem.specs.passes(performance)))
        remaining -= batch
    return YieldEstimate(passes=passes, n=int(n))
