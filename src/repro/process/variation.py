"""Inter-die / intra-die process variation model.

The paper's process spaces decompose into

* **inter-die** variables — one draw per fabricated die, shared by every
  device on it (e.g. ``TOXRn``, the NMOS oxide-thickness ratio), and
* **intra-die** (mismatch) variables — one draw per device, modelling local
  fluctuations.  The paper uses 4 per transistor: TOX, VTH0, LD, WD.

Layout
------
A process sample is a row vector.  Columns are ordered *inter-die variables
first*, then per-device mismatch blocks in device order::

    [ inter_1 .. inter_K | dev1.dTOX dev1.dVTH0 dev1.dLD dev1.dWD | dev2... ]

Mismatch variables are stored as **standard normal scores**; the Pelgrom
area-law scaling ``sigma = A / sqrt(W * L)`` is applied later by the
technology when device geometry is known.  This keeps the sample space
fixed-dimensional and design-independent, which is what lets the same sample
matrix be reused across candidate designs (common random numbers) and what
makes the variable counts match the paper (80 for example 1, 123 for
example 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.distributions import NormalDistribution
from repro.process.parameters import ParameterGroup, StatisticalParameter

__all__ = ["IntraDieSpec", "ProcessVariationModel"]

#: Default per-device mismatch variables, in the paper's order.
DEFAULT_MISMATCH_VARS = ("dTOX", "dVTH0", "dLD", "dWD")


@dataclass(frozen=True)
class IntraDieSpec:
    """Mismatch layout: which per-device variables exist.

    The variables are dimensionless standard-normal scores; their physical
    magnitude comes from the technology's Pelgrom coefficients.
    """

    variables: tuple[str, ...] = DEFAULT_MISMATCH_VARS

    @property
    def per_device(self) -> int:
        """Number of mismatch variables per device."""
        return len(self.variables)


class ProcessVariationModel:
    """The full statistical space of one circuit in one technology.

    Parameters
    ----------
    inter:
        Group of inter-die statistical parameters (physical distributions).
    device_names:
        Ordered names of the mismatch-carrying devices (the circuit's
        transistors).
    intra:
        Which mismatch variables each device carries.
    """

    def __init__(
        self,
        inter: ParameterGroup,
        device_names: list[str],
        intra: IntraDieSpec | None = None,
    ) -> None:
        if len(set(device_names)) != len(device_names):
            raise ValueError(f"duplicate device names: {device_names}")
        self.inter = inter
        self.device_names = list(device_names)
        self.intra = intra or IntraDieSpec()
        self._device_index = {name: i for i, name in enumerate(self.device_names)}

        # The full group (inter + standard-normal mismatch scores) drives
        # sampling; building it once fixes the column layout.
        full = ParameterGroup(list(inter))
        for device in self.device_names:
            for var in self.intra.variables:
                full.add(
                    StatisticalParameter(
                        f"{device}.{var}",
                        NormalDistribution(0.0, 1.0),
                        description=f"mismatch score of {var} on {device}",
                    )
                )
        self._full = full

    # -- dimensions ---------------------------------------------------------
    @property
    def n_inter(self) -> int:
        """Number of inter-die variables."""
        return len(self.inter)

    @property
    def n_intra(self) -> int:
        """Number of intra-die (mismatch) variables."""
        return len(self.device_names) * self.intra.per_device

    @property
    def dimension(self) -> int:
        """Total process-space dimension (paper: 80 / 123)."""
        return self.n_inter + self.n_intra

    @property
    def names(self) -> list[str]:
        """All variable names in column order."""
        return self._full.names

    @property
    def full_group(self) -> ParameterGroup:
        """The combined parameter group (inter + mismatch scores)."""
        return self._full

    # -- sampling -------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Primitive Monte-Carlo draws, shape ``(n, dimension)``."""
        return self._full.sample(n, rng)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) variates through the marginal inverse CDFs."""
        return self._full.from_uniform(u)

    def nominal(self) -> np.ndarray:
        """The nominal process point (inter means, zero mismatch)."""
        point = np.zeros(self.dimension)
        point[: self.n_inter] = self.inter.means()
        return point

    # -- slicing ---------------------------------------------------------------
    def inter_values(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        """Inter-die variables as a name -> column-vector mapping."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return {
            name: samples[:, j] for j, name in enumerate(self.inter.names)
        }

    def inter_matrix(self, samples: np.ndarray) -> np.ndarray:
        """The inter-die block of ``samples``, shape ``(n, n_inter)``."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return samples[:, : self.n_inter]

    def mismatch_scores(self, samples: np.ndarray, device: str) -> np.ndarray:
        """Standard-normal mismatch scores for one device.

        Returns shape ``(n, per_device)`` with columns in
        ``self.intra.variables`` order.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        idx = self._device_index[device]
        start = self.n_inter + idx * self.intra.per_device
        return samples[:, start : start + self.intra.per_device]

    def mismatch_stack(
        self, samples: np.ndarray, devices: list[str | None]
    ) -> np.ndarray:
        """Mismatch scores of several devices, ``(len(devices), n, per_device)``.

        A ``None`` entry is a mismatch-free replica and gets zero scores.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        scores = np.zeros((len(devices), samples.shape[0], self.intra.per_device))
        for j, device in enumerate(devices):
            if device is not None:
                scores[j] = self.mismatch_scores(samples, device)
        return scores

    def mismatch_column(self, samples: np.ndarray, device: str, var: str) -> np.ndarray:
        """One mismatch score column, e.g. ``("M1", "dVTH0")``."""
        scores = self.mismatch_scores(samples, device)
        return scores[:, self.intra.variables.index(var)]

    def describe(self) -> str:
        """Summary string (counts per category)."""
        return (
            f"ProcessVariationModel: {self.dimension} variables = "
            f"{self.n_inter} inter-die + {self.n_intra} intra-die "
            f"({len(self.device_names)} devices x {self.intra.per_device})"
        )
