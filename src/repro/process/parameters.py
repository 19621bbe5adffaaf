"""Named statistical parameters and ordered groups of them.

A :class:`StatisticalParameter` couples a name ("VTH0Rn") with its marginal
distribution.  A :class:`ParameterGroup` is an ordered collection that maps
between named parameters and the columns of sample matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.distributions import Distribution, NormalDistribution, _ndtri

__all__ = ["StatisticalParameter", "ParameterGroup"]


@dataclass(frozen=True)
class StatisticalParameter:
    """One named statistical variable.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"TOXRn"`` (inter-die oxide-thickness ratio
        for NMOS devices) or ``"M1.dVTH0"`` (mismatch of device M1).
    distribution:
        Marginal distribution of the variable.
    description:
        Optional free-text documentation shown by ``describe()``.
    """

    name: str
    distribution: Distribution
    description: str = ""

    @classmethod
    def normal(
        cls, name: str, mu: float = 0.0, sigma: float = 1.0, description: str = ""
    ) -> "StatisticalParameter":
        """Shorthand for a Gaussian parameter."""
        return cls(name, NormalDistribution(mu, sigma), description)


class ParameterGroup:
    """Ordered, name-indexed collection of statistical parameters.

    The order fixes the column layout of sample matrices of shape
    ``(n_samples, len(group))``.
    """

    def __init__(self, parameters: list[StatisticalParameter] | None = None) -> None:
        self._parameters: list[StatisticalParameter] = []
        self._index: dict[str, int] = {}
        self._moments: tuple | None = None
        for parameter in parameters or []:
            self.add(parameter)

    # -- construction -----------------------------------------------------
    def add(self, parameter: StatisticalParameter) -> None:
        """Append a parameter; names must be unique within the group."""
        if parameter.name in self._index:
            raise ValueError(f"duplicate parameter name: {parameter.name!r}")
        self._index[parameter.name] = len(self._parameters)
        self._parameters.append(parameter)
        self._moments = None

    def extend(self, parameters: list[StatisticalParameter]) -> None:
        """Append several parameters."""
        for parameter in parameters:
            self.add(parameter)

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

    def column(self, samples: np.ndarray, name: str) -> np.ndarray:
        """Extract the column of ``samples`` belonging to ``name``."""
        return np.asarray(samples)[:, self._index[name]]

    # -- moments (used by linearised screeners and LHS) ---------------------
    def means(self) -> np.ndarray:
        """Vector of marginal means in column order."""
        return np.array([parameter.distribution.mean for parameter in self._parameters])

    def stds(self) -> np.ndarray:
        """Vector of marginal standard deviations in column order."""
        return np.array([parameter.distribution.std for parameter in self._parameters])

    # -- sampling -----------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Independent Monte-Carlo draws, shape ``(n, len(group))``."""
        if n < 0:
            raise ValueError(f"sample count must be non-negative, got {n}")
        out = np.empty((n, len(self._parameters)))
        for j, parameter in enumerate(self._parameters):
            out[:, j] = parameter.distribution.sample(n, rng)
        return out

    def _gaussian_moments(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Full-width ``(mu, sigma)`` — 0 and 1 on non-Gaussian columns — plus
        ``[(column, distribution)]`` of every non-Gaussian parameter; cached
        until the group grows."""
        if self._moments is None:
            dists = [p.distribution for p in self._parameters]
            gaussian = [type(d) is NormalDistribution for d in dists]
            self._moments = (
                np.array([d.mu if g else 0.0 for d, g in zip(dists, gaussian)]),
                np.array([d.sigma if g else 1.0 for d, g in zip(dists, gaussian)]),
                [(j, d) for j, (d, g) in enumerate(zip(dists, gaussian)) if not g],
            )
        return self._moments

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map a uniform(0,1) matrix onto the parameter space via inverse CDFs.

        ``u`` has shape ``(n, len(group))``; used by LHS/Sobol samplers.
        Every column maps in place on one clipped copy of ``u`` as
        ``mu + sigma * ndtri(u)``; each non-Gaussian column is then
        overwritten from its own distribution's ``ppf``.  ``u`` itself is
        never written.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != len(self._parameters):
            raise ValueError(
                f"uniform matrix must have shape (n, {len(self._parameters)}), got {u.shape}"
            )
        mu, sigma, others = self._gaussian_moments()
        out = _ndtri(u, out=np.empty_like(u))
        out *= sigma
        out += mu
        for j, dist in others:
            out[:, j] = dist.ppf(u[:, j])
        return out

    def describe(self) -> str:
        """Human-readable listing with distributions."""
        lines = []
        for parameter in self._parameters:
            note = f"  # {parameter.description}" if parameter.description else ""
            lines.append(f"{parameter.name}: {parameter.distribution!r}{note}")
        return "\n".join(lines)
