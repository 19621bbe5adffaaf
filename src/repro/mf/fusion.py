"""Precision-weighted fusion of per-rung yield history.

A candidate climbing the ladder accumulates pass/total *segments*, one
per rung it survived.  All segments estimate the same Bernoulli yield
(same design, same MC distribution), but at very different sample counts
— a 500-sample final rung says far more than a 19-sample opening rung.
Fusing them with inverse-variance (precision) weights::

    w_j = n_j / max(p_j * (1 - p_j), floor)
    fused = sum_j w_j * p_j / sum_j w_j

down-weights noisy low-fidelity history the way the MFES-style surrogate
fusion weights low-fidelity models, while staying a pure closed form —
deterministic, engine-invariant, and cheap enough to run per rung.

The fused value drives *ranking* (who gets promoted up the ladder); the
candidate's cumulative estimate (``CandidateYieldState.value``, the plain
pooled ratio) remains the selection fitness and the reported yield, so
paper-facing numbers never depend on the fusion rule.
"""

from __future__ import annotations

__all__ = ["RungSegment", "fuse_segments"]

from dataclasses import dataclass

#: Same variance floor the yield estimator uses for 0 %/100 % estimates.
_VARIANCE_FLOOR = 1e-4


@dataclass(frozen=True)
class RungSegment:
    """One rung's contribution to a candidate's yield history."""

    #: Samples incorporated during the rung (simulated + screened).
    n: int
    #: How many of them passed every spec.
    passes: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"segment needs n >= 1, got {self.n}")
        if not 0 <= self.passes <= self.n:
            raise ValueError(
                f"passes must be in [0, {self.n}], got {self.passes}"
            )

    @property
    def value(self) -> float:
        """The segment's own yield estimate."""
        return self.passes / self.n

    @property
    def precision(self) -> float:
        """Inverse variance of the segment estimate: n / (p(1-p) floored)."""
        p = self.value
        return self.n / max(p * (1.0 - p), _VARIANCE_FLOOR)


def fuse_segments(segments: list[RungSegment]) -> float:
    """Precision-weighted yield estimate across a candidate's rungs.

    Returns ``0.0`` for an empty history (matching the estimator's
    convention for unsampled candidates).  With a single segment the
    fused value equals the segment's own estimate; weights are computed
    with floored variances so degenerate 0 %/100 % segments stay finite.
    """
    if not segments:
        return 0.0
    total_weight = 0.0
    weighted = 0.0
    for segment in segments:
        weight = segment.precision
        total_weight += weight
        weighted += weight * segment.value
    return weighted / total_weight
