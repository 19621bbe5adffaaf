"""Common interface of parametric amplifier topologies."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.process.technology import Technology
from repro.process.variation import ProcessVariationModel

__all__ = ["AmplifierTopology", "DesignSpace"]


class DesignSpace:
    """A named, box-bounded design-variable space."""

    def __init__(self, names: list[str], lower, upper) -> None:
        self.names = list(names)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if not (len(self.names) == len(self.lower) == len(self.upper)):
            raise ValueError("names, lower and upper must have equal length")
        if np.any(self.upper <= self.lower):
            bad = [self.names[i] for i in np.where(self.upper <= self.lower)[0]]
            raise ValueError(f"upper must exceed lower for all variables; bad: {bad}")

    @property
    def dimension(self) -> int:
        """Number of design variables."""
        return len(self.names)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a vector (or matrix of row vectors) into the box."""
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x: np.ndarray):
        """Whether ``x`` lies inside the box (inclusive).

        Accepts a single vector (returns a plain ``bool``) or a matrix of
        row vectors like :meth:`clip` does (returns a boolean array, one
        entry per row).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim > 2 or x.shape[-1] != self.dimension:
            raise ValueError(
                f"expected shape ({self.dimension},) or (m, {self.dimension}), "
                f"got {x.shape}"
            )
        inside = np.all((x >= self.lower) & (x <= self.upper), axis=-1)
        if x.ndim == 1:
            return bool(inside)
        return inside

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random designs, shape ``(n, dimension)``."""
        u = rng.uniform(0.0, 1.0, size=(n, self.dimension))
        return self.lower + u * (self.upper - self.lower)

    def as_dict(self, x: np.ndarray) -> dict[str, float]:
        """Map a design vector onto variable names."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {x.shape}")
        return dict(zip(self.names, x.tolist()))


class AmplifierTopology(ABC):
    """A parametric amplifier performance model in one technology.

    Subclasses define the design space, the mismatch-carrying device list
    and the vectorised performance evaluation :meth:`evaluate_pairs`.
    """

    def __init__(self, tech: Technology) -> None:
        self.tech = tech
        self._variation = tech.variation_model(self.device_names())

    # -- static structure ----------------------------------------------------
    @abstractmethod
    def device_names(self) -> list[str]:
        """Names of the mismatch-carrying transistors (paper's counting)."""

    @abstractmethod
    def design_space(self) -> DesignSpace:
        """Box bounds of the design variables."""

    @abstractmethod
    def metric_names(self) -> list[str]:
        """Column order of the performance matrix."""

    # -- evaluation -------------------------------------------------------------
    @abstractmethod
    def evaluate_pairs(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Performance of design row ``X[i]`` at process sample ``samples[i]``.

        Parameters
        ----------
        X:
            Design matrix, shape ``(N, design_space().dimension)``, aligned
            row by row with ``samples``; a single row ``(1, d)`` is shared
            by every sample.
        samples:
            Process sample matrix, shape ``(N, variation.dimension)``.

        Returns
        -------
        numpy.ndarray
            Performance matrix, shape ``(N, len(metric_names()))``.
        """

    def evaluate(self, x: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Performance of one design ``x`` at each sample: the one-row case."""
        return self.evaluate_pairs(np.asarray(x, dtype=float)[None, :], samples)

    # -- shared helpers ------------------------------------------------------------
    @property
    def variation(self) -> ProcessVariationModel:
        """The process-variation model of this circuit."""
        return self._variation

    def evaluate_nominal(self, x: np.ndarray) -> np.ndarray:
        """Performance at the nominal process point, shape ``(n_metrics,)``."""
        nominal = self._variation.nominal()[None, :]
        return self.evaluate(x, nominal)[0]

    @staticmethod
    def _design_columns(
        names: list[str], X: np.ndarray, samples: np.ndarray
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Name -> per-row design column, and the 2-D sample matrix.

        ``X`` is either ``(N, d)``, aligned row by row with ``samples`` of
        shape ``(N, p)``, or a single row ``(1, d)`` shared by every sample;
        the columns broadcast against the per-sample arrays either way.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if X.shape[0] not in (1, samples.shape[0]):
            raise ValueError(
                f"pairs must align row by row: {X.shape[0]} designs vs "
                f"{samples.shape[0]} samples"
            )
        return dict(zip(names, X.T)), samples

    def _realize_stack(
        self,
        polarity: str,
        stack: list[tuple[str | None, str]],
        d: dict[str, np.ndarray],
        inter: dict[str, np.ndarray],
        samples: np.ndarray,
    ):
        """Realize a stack of same-polarity devices in one call.

        ``stack`` lists ``(device, geometry)`` in stack order: ``device`` is
        a mismatch-carrying name or ``None`` for a mismatch-free replica,
        and ``geometry`` the suffix of its design columns (``"0"`` reads
        ``w0``/``l0``).  Unpack the result into per-device views.
        """
        w = np.stack([d["w" + geometry] for _, geometry in stack])
        l = np.stack([d["l" + geometry] for _, geometry in stack])
        scores = self._variation.mismatch_stack(samples, [dev for dev, _ in stack])
        return self.tech.realize(polarity, w, l, inter, scores)


def _mirror_current(vgs_ref, output):
    """Current of a mirror output device at the reference diode's gate voltage.

    The reference device is diode-connected at its current, which sets
    ``vgs_ref``; the output device sees the same gate voltage, so VTH/beta
    mismatch between the two maps into an output-current error via the
    exact square-law-with-theta model.
    """
    return output.current_for_vov(vgs_ref - output.vth)


def _parallel(r1, r2):
    """Parallel resistance, safe for zeros."""
    return r1 * r2 / np.maximum(r1 + r2, 1e-30)
