"""Named Gaussian process parameters and ordered groups of them.

A :class:`StatisticalParameter` couples a name ("VTH0Rn") with the mean and
standard deviation of its Gaussian marginal.  A :class:`ParameterGroup` is an
ordered collection, fixed when it is built, that maps between named
parameters and the columns of sample matrices and keeps the means and
standard deviations as two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _scipy_special

__all__ = ["StatisticalParameter", "ParameterGroup"]


@dataclass(frozen=True)
class StatisticalParameter:
    """One named Gaussian variable N(mu, sigma^2).

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"TOXRn"`` (inter-die oxide-thickness ratio
        for NMOS devices) or ``"M1.dVTH0"`` (mismatch of device M1).
    mu, sigma:
        Mean and standard deviation; ``sigma`` must be non-negative (0 makes
        the variable a constant).
    description:
        Optional free-text documentation shown by ``describe()``.
    """

    name: str
    mu: float = 0.0
    sigma: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


class ParameterGroup:
    """Ordered, name-indexed collection of statistical parameters.

    The order fixes the column layout of sample matrices of shape
    ``(n_samples, len(group))``.
    """

    def __init__(self, parameters: list[StatisticalParameter]) -> None:
        self._parameters = list(parameters)
        self._index: dict[str, int] = {}
        for j, parameter in enumerate(self._parameters):
            if parameter.name in self._index:
                raise ValueError(f"duplicate parameter name: {parameter.name!r}")
            self._index[parameter.name] = j
        self._mu = np.array([p.mu for p in self._parameters], dtype=float)
        self._sigma = np.array([p.sigma for p in self._parameters], dtype=float)

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self):
        return iter(self._parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> StatisticalParameter:
        return self._parameters[self._index[name]]

    @property
    def names(self) -> list[str]:
        """Parameter names in column order."""
        return [parameter.name for parameter in self._parameters]

    def index_of(self, name: str) -> int:
        """Column index of parameter ``name``."""
        return self._index[name]

    # -- moments (used by linearised screeners) -----------------------------
    def means(self) -> np.ndarray:
        """Vector of means in column order."""
        return self._mu.copy()

    def stds(self) -> np.ndarray:
        """Vector of standard deviations in column order."""
        return self._sigma.copy()

    # -- sampling -----------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Independent Monte-Carlo draws, shape ``(n, len(group))``.

        Each column is one ``rng.normal(mu_j, sigma_j, size=n)`` call, in
        column order; that order fixes the stream every seeded result reads.
        """
        if n < 0:
            raise ValueError(f"sample count must be non-negative, got {n}")
        out = np.empty((n, len(self._parameters)))
        for j, parameter in enumerate(self._parameters):
            out[:, j] = rng.normal(parameter.mu, parameter.sigma, size=n)
        return out

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map a uniform(0,1) matrix onto the parameter space through the
        Gaussian inverse CDF, ``mu + sigma * ndtri(u)`` per column.

        ``u`` has shape ``(n, len(group))``; used by LHS/Sobol samplers.
        The map runs in place on one clipped copy of ``u``; ``u`` itself is
        never written.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != len(self._parameters):
            raise ValueError(
                f"uniform matrix must have shape (n, {len(self._parameters)}), got {u.shape}"
            )
        out = _ndtri(u, out=np.empty_like(u))
        out *= self._sigma
        out += self._mu
        return out

    def describe(self) -> str:
        """Human-readable listing, one ``name: N(mu, sigma)`` line each."""
        lines = []
        for parameter in self._parameters:
            note = f"  # {parameter.description}" if parameter.description else ""
            lines.append(
                f"{parameter.name}: N(mu={parameter.mu:g}, sigma={parameter.sigma:g}){note}"
            )
        return "\n".join(lines)


def _ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal inverse CDF, clipped away from 0/1 for stability.

    With ``out``, ``u`` is clipped into ``out``, which is then mapped in place.
    """
    u = np.clip(u, 1e-12, 1.0 - 1e-12, out=out)
    return _scipy_special.ndtri(u, out=out)
