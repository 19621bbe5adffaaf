"""Performance specifications and pass/fail semantics.

A specification is a one-sided bound on a named performance metric, e.g.
``A0 >= 70 dB`` or ``power <= 1.07 mW``.  A :class:`SpecSet` groups the
specifications of one sizing problem and provides vectorised pass/fail and
constraint-violation evaluation over performance matrices.

Conventions
-----------
* Performance matrices have shape ``(n_samples, n_metrics)`` with columns in
  the order of ``SpecSet.metric_names``.
* ``margin`` is signed slack: positive means the spec is met, negative means
  violated.  Margins are normalised by a per-spec scale so that violations of
  different metrics (dB vs mW) are comparable when aggregated — this feeds
  Deb's constraint-violation selection rule.
* The yield indicator of the paper, J(x, xi) in {0, 1}, is
  ``SpecSet.passes`` applied to one sample's performance row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Spec", "SpecSet"]

_VALID_KINDS = (">=", "<=")


@dataclass(frozen=True)
class Spec:
    """One one-sided performance specification.

    Parameters
    ----------
    name:
        Metric name; must match a column produced by the circuit evaluator.
    kind:
        ``">="`` for lower bounds (gain, swing) or ``"<="`` for upper bounds
        (power, area, offset).
    bound:
        The bound, in the same unit the evaluator reports the metric in.
    unit:
        Human-readable unit for table rendering only.
    scale:
        Normalisation used for constraint violations.  Defaults to
        ``|bound|`` (or 1 for zero bounds), which keeps violations
        dimensionless and O(1) regardless of the metric's physical unit.
    """

    name: str
    kind: str
    bound: float
    unit: str = ""
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"spec kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"spec scale must be positive, got {self.scale}")

    @property
    def effective_scale(self) -> float:
        """Scale used to normalise margins; never zero."""
        if self.scale is not None:
            return self.scale
        if self.bound != 0.0:
            return abs(self.bound)
        return 1.0

    def margin(self, value):
        """Signed normalised slack of ``value`` against this spec.

        Positive = pass.  Works on scalars and arrays.  A slack too large
        for the scale (a subnormal bound, say) saturates to ``+-inf``
        without a floating-point warning; its sign is all that
        :meth:`passes`-style decisions and violations read.
        """
        value = np.asarray(value, dtype=float)
        with np.errstate(over="ignore"):
            if self.kind == ">=":
                raw = value - self.bound
            else:
                raw = self.bound - value
            out = raw / self.effective_scale
        if out.ndim == 0:
            return float(out)
        return out

    def passes(self, value):
        """Boolean pass/fail of ``value`` against this spec."""
        value = np.asarray(value, dtype=float)
        if self.kind == ">=":
            out = value >= self.bound
        else:
            out = value <= self.bound
        if out.ndim == 0:
            return bool(out)
        return out

    def __str__(self) -> str:
        unit = f" {self.unit}" if self.unit else ""
        return f"{self.name} {self.kind} {self.bound:g}{unit}"


@dataclass
class SpecSet:
    """An ordered collection of :class:`Spec` objects.

    The ordering defines the column layout of performance matrices.
    """

    specs: list[Spec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate spec names: {names}")

    # -- introspection ----------------------------------------------------
    @property
    def metric_names(self) -> list[str]:
        """Column order for performance matrices."""
        return [spec.name for spec in self.specs]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, name: str) -> Spec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        """Column index of metric ``name``."""
        for i, spec in enumerate(self.specs):
            if spec.name == name:
                return i
        raise KeyError(name)

    # -- vectorised evaluation --------------------------------------------
    def _as_matrix(self, performance) -> np.ndarray:
        matrix = np.asarray(performance, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.shape[1] != len(self.specs):
            raise ValueError(
                f"performance matrix has {matrix.shape[1]} columns, "
                f"spec set has {len(self.specs)} specs"
            )
        return matrix

    def margins(self, performance) -> np.ndarray:
        """Normalised signed margins, shape ``(n_samples, n_specs)``.

        NaN performance values (numerically invalid designs) map to a large
        negative margin so they always fail and carry a large violation.
        """
        matrix = self._as_matrix(performance)
        margins = np.empty_like(matrix)
        for j, spec in enumerate(self.specs):
            margins[:, j] = spec.margin(matrix[:, j])
        margins = np.where(np.isnan(margins), -1e6, margins)
        return margins

    def passes(self, performance) -> np.ndarray:
        """Per-sample pass indicator J(x, xi), shape ``(n_samples,)``."""
        return np.all(self.margins(performance) >= 0.0, axis=1)

    def violation(self, performance) -> np.ndarray:
        """Aggregate constraint violation per sample (0 = feasible).

        The sum of negative normalised margins, as used by selection-based
        constraint handling (Deb 2000): feasible points have violation 0,
        infeasible points compare by total violation.
        """
        margins = self.margins(performance)
        return np.sum(np.where(margins < 0.0, -margins, 0.0), axis=1)

    def worst_margin(self, performance) -> np.ndarray:
        """The most critical (smallest) normalised margin per sample."""
        return np.min(self.margins(performance), axis=1)

    def describe(self) -> str:
        """Multi-line human-readable listing of the specifications."""
        return "\n".join(str(spec) for spec in self.specs)
