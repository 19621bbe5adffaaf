"""Inter-die / intra-die process variation model.

The paper's process spaces decompose into

* **inter-die** variables — one draw per fabricated die, shared by every
  device on it (e.g. ``TOXRn``, the NMOS oxide-thickness ratio), and
* **intra-die** (mismatch) variables — one draw per device, modelling local
  fluctuations.  The paper uses 4 per transistor: TOX, VTH0, LD, WD.

Every variable is Gaussian.

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

import numpy as np

from repro.process.parameters import ParameterGroup, StatisticalParameter

__all__ = ["ProcessVariationModel"]

#: The per-device mismatch scores, in the paper's order.
MISMATCH_VARS = ("dTOX", "dVTH0", "dLD", "dWD")
_PER_DEVICE = len(MISMATCH_VARS)


class ProcessVariationModel:
    """The full statistical space of one circuit in one technology.

    Parameters
    ----------
    inter:
        Group of inter-die statistical parameters (physical units).
    device_names:
        Ordered names of the mismatch-carrying devices (the circuit's
        transistors); each carries the four :data:`MISMATCH_VARS` scores.
    """

    def __init__(self, inter: ParameterGroup, device_names: list[str]) -> None:
        if len(set(device_names)) != len(device_names):
            raise ValueError(f"duplicate device names: {device_names}")
        self.inter = inter
        self.device_names = list(device_names)
        self._device_index = {name: i for i, name in enumerate(self.device_names)}

        # The full group (inter + standard-normal mismatch scores) drives
        # sampling; building it once fixes the column layout.
        self._full = ParameterGroup(
            list(inter)
            + [
                StatisticalParameter(
                    f"{device}.{var}", description=f"mismatch score of {var} on {device}"
                )
                for device in self.device_names
                for var in MISMATCH_VARS
            ]
        )

    # -- dimensions ---------------------------------------------------------
    @property
    def n_inter(self) -> int:
        """Number of inter-die variables."""
        return len(self.inter)

    @property
    def n_intra(self) -> int:
        """Number of intra-die (mismatch) variables."""
        return len(self.device_names) * _PER_DEVICE

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
        """Map uniform(0,1) variates through the Gaussian inverse CDF."""
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

    def mismatch_scores(self, samples: np.ndarray, device: str) -> np.ndarray:
        """Standard-normal mismatch scores for one device.

        Returns shape ``(n, 4)`` with columns in :data:`MISMATCH_VARS` order.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        start = self.n_inter + self._device_index[device] * _PER_DEVICE
        return samples[:, start : start + _PER_DEVICE]

    def mismatch_stack(
        self, samples: np.ndarray, devices: list[str | None]
    ) -> np.ndarray:
        """Mismatch scores of several devices, ``(len(devices), n, 4)``.

        A ``None`` entry is a mismatch-free replica and gets zero scores.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        scores = np.zeros((len(devices), samples.shape[0], _PER_DEVICE))
        for j, device in enumerate(devices):
            if device is not None:
                scores[j] = self.mismatch_scores(samples, device)
        return scores

    def mismatch_column(self, samples: np.ndarray, device: str, var: str) -> np.ndarray:
        """One mismatch score column, e.g. ``("M1", "dVTH0")``."""
        scores = self.mismatch_scores(samples, device)
        return scores[:, MISMATCH_VARS.index(var)]

    def describe(self) -> str:
        """Summary string (counts per category)."""
        return (
            f"ProcessVariationModel: {self.dimension} variables = "
            f"{self.n_inter} inter-die + {self.n_intra} intra-die "
            f"({len(self.device_names)} devices x {_PER_DEVICE})"
        )
