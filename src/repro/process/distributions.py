"""Marginal distributions for statistical process parameters.

Each distribution exposes

* ``sample(n, rng)`` — direct Monte-Carlo draws,
* ``ppf(u)`` — inverse CDF, mapping uniform(0,1) variates onto the
  distribution.  This is what Latin-hypercube and Sobol sampling use: they
  generate stratified/low-discrepancy uniforms and push them through the
  inverse CDF, preserving their space-filling structure in the target space.
* ``mean`` / ``std`` — first two moments (used by linearised screeners).

Only the few families that real statistical device models use are
implemented, all fully vectorised.  The normal and lognormal inverse CDFs
call ``scipy.special.ndtri``.  ``scipy.stats`` is imported only when a
:class:`TruncatedNormalDistribution` is built (its frozen ``truncnorm``
supplies the inverse CDF and moments): no shipped technology uses one, and
importing ``scipy.stats`` costs more start-up than NumPy and
``scipy.special`` together.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy import special as _scipy_special

__all__ = [
    "Distribution",
    "NormalDistribution",
    "LognormalDistribution",
    "UniformDistribution",
    "TruncatedNormalDistribution",
]


class Distribution(ABC):
    """A one-dimensional marginal distribution."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` iid variates."""

    @abstractmethod
    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF evaluated at uniform variates ``u`` in (0, 1)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Distribution mean."""

    @property
    @abstractmethod
    def std(self) -> float:
        """Distribution standard deviation."""


class NormalDistribution(Distribution):
    """Gaussian N(mu, sigma^2); the workhorse of statistical device models."""

    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=n)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.mu + self.sigma * _ndtri(u)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def std(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"NormalDistribution(mu={self.mu:g}, sigma={self.sigma:g})"


class LognormalDistribution(Distribution):
    """Lognormal: exp(N(mu_log, sigma_log^2)).

    Used for strictly-positive parameters with multiplicative variation
    (e.g. junction capacitance ratios).
    """

    def __init__(self, mu_log: float = 0.0, sigma_log: float = 0.1) -> None:
        if sigma_log < 0:
            raise ValueError(f"sigma_log must be non-negative, got {sigma_log}")
        self.mu_log = float(mu_log)
        self.sigma_log = float(sigma_log)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(rng.normal(self.mu_log, self.sigma_log, size=n))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.exp(self.mu_log + self.sigma_log * _ndtri(u))

    @property
    def mean(self) -> float:
        return float(np.exp(self.mu_log + 0.5 * self.sigma_log**2))

    @property
    def std(self) -> float:
        variance = (np.exp(self.sigma_log**2) - 1.0) * np.exp(
            2.0 * self.mu_log + self.sigma_log**2
        )
        return float(np.sqrt(variance))

    def __repr__(self) -> str:
        return f"LognormalDistribution(mu_log={self.mu_log:g}, sigma_log={self.sigma_log:g})"


class UniformDistribution(Distribution):
    """Uniform on [low, high]; occasionally used for poorly-characterised
    parameters in early PDK revisions."""

    def __init__(self, low: float, high: float) -> None:
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        self.low = float(low)
        self.high = float(high)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.low + (self.high - self.low) * u

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def std(self) -> float:
        return (self.high - self.low) / np.sqrt(12.0)

    def __repr__(self) -> str:
        return f"UniformDistribution(low={self.low:g}, high={self.high:g})"


class TruncatedNormalDistribution(Distribution):
    """Gaussian truncated to [low, high].

    Foundry models truncate physical parameters (oxide thickness cannot go
    negative); truncation also keeps extreme LHS strata finite.
    """

    def __init__(self, mu: float, sigma: float, low: float, high: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if high <= low:
            raise ValueError(f"high ({high}) must be > low ({low})")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.low = float(low)
        self.high = float(high)
        self._a = (self.low - self.mu) / self.sigma
        self._b = (self.high - self.mu) / self.sigma
        from scipy.stats import truncnorm

        self._frozen = truncnorm(self._a, self._b, loc=self.mu, scale=self.sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Inverse-CDF sampling keeps the draw reproducible from ``rng``
        # without touching scipy's global random state.
        return self.ppf(rng.uniform(0.0, 1.0, size=n))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self._frozen.ppf(u)

    @property
    def mean(self) -> float:
        return float(self._frozen.mean())

    @property
    def std(self) -> float:
        return float(self._frozen.std())

    def __repr__(self) -> str:
        return (
            f"TruncatedNormalDistribution(mu={self.mu:g}, sigma={self.sigma:g}, "
            f"low={self.low:g}, high={self.high:g})"
        )


def _ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal inverse CDF, clipped away from 0/1 for stability.

    With ``out``, ``u`` is clipped into ``out``, which is then mapped in place.
    """
    u = np.clip(u, 1e-12, 1.0 - 1e-12, out=out)
    return _scipy_special.ndtri(u, out=out)
