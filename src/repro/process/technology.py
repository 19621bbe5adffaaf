"""Technology abstraction: nominal models + statistical variation.

A :class:`Technology` bundles

* supply voltage and geometry limits,
* nominal NMOS/PMOS model cards,
* the inter-die statistical parameter group (the named variables of the
  paper's experiments, e.g. ``TOXRn``, ``VTH0Rp``), and
* Pelgrom mismatch coefficients for the per-device intra-die variables.

Concrete technologies (``repro.circuit.tech.c035``, ``...n90``) implement
:meth:`realize`, which applies one matrix of process samples to one device,
or to a stack of same-polarity devices, and returns vectorised effective
parameters (:class:`DeviceArrays`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.circuit.mosfet import DeviceArrays, MosfetModelCard
from repro.process.parameters import ParameterGroup
from repro.process.variation import ProcessVariationModel

__all__ = ["PelgromCoefficients", "Technology"]


@dataclass(frozen=True)
class PelgromCoefficients:
    """Area-law mismatch coefficients: ``sigma = A / sqrt(W*L)``.

    Units chosen so that W, L in metres give the physical sigma directly:

    * ``avt`` [V*m] — threshold-voltage mismatch,
    * ``atox`` [m] — relative oxide-thickness mismatch (sigma is unitless),
    * ``ald`` [m^2] — lateral-diffusion mismatch (sigma in metres),
    * ``awd`` [m^2] — width-reduction mismatch (sigma in metres).
    """

    avt: float
    atox: float
    ald: float
    awd: float

    def sigmas(self, w, l) -> tuple:
        """Mismatch sigmas ``(tox_rel, vth, ld, wd)`` for drawn W, L [m]:
        relative oxide thickness [-], threshold [V], lateral diffusion [m]
        and width reduction [m], each ``A / sqrt(W*L)`` from one square
        root.  ``w`` and ``l`` may be arrays (one device or a stack)."""
        root = np.sqrt(w * l)
        return self.atox / root, self.avt / root, self.ald / root, self.awd / root


class Technology(ABC):
    """Base class for synthetic CMOS technologies.

    Subclasses define the nominal cards, the inter-die parameter group and
    the physical effect of every statistical variable (:meth:`realize`).
    """

    #: Human-readable name, e.g. "C035".
    name: str = "base"
    #: Supply voltage [V].
    vdd: float = 3.3
    #: Minimum drawn channel length [m].
    lmin: float = 0.35e-6
    #: Minimum drawn width [m].
    wmin: float = 0.5e-6

    def __init__(self) -> None:
        self.nmos = self.build_nmos()
        self.pmos = self.build_pmos()
        self.inter = self.build_inter_group()
        self.pelgrom = {
            "n": self.build_pelgrom("n"),
            "p": self.build_pelgrom("p"),
        }

    # -- construction hooks -------------------------------------------------
    @abstractmethod
    def build_nmos(self) -> MosfetModelCard:
        """Nominal NMOS model card."""

    @abstractmethod
    def build_pmos(self) -> MosfetModelCard:
        """Nominal PMOS model card."""

    @abstractmethod
    def build_inter_group(self) -> ParameterGroup:
        """The inter-die statistical parameter group."""

    @abstractmethod
    def build_pelgrom(self, polarity: str) -> PelgromCoefficients:
        """Mismatch coefficients for one polarity."""

    # -- variation application -------------------------------------------------
    @abstractmethod
    def realize(
        self,
        polarity: str,
        w: np.ndarray | float,
        l: np.ndarray | float,
        inter: dict[str, np.ndarray],
        scores: np.ndarray,
    ) -> DeviceArrays:
        """Effective parameters of one device, or of a stack of ``k``
        same-polarity devices, over all ``N`` samples.

        A stack computes the inter-die terms once on ``(N,)`` and
        broadcasts them over the device axis; each device's entries are
        bit-equal to its own one-device call.

        Parameters
        ----------
        polarity:
            ``"n"`` or ``"p"``.
        w, l:
            Drawn geometry [m]: a scalar, ``(1,)`` or ``(N,)`` for one
            device; ``(k, 1)`` or ``(k, N)`` for a stack.
        inter:
            Inter-die variable name -> per-sample value array ``(N,)``.
        scores:
            Standard-normal mismatch scores with columns (dTOX, dVTH0, dLD,
            dWD), read as ``scores[..., i]``: ``(N, 4)`` for one device,
            ``(k, N, 4)`` for a stack (zeros for a mismatch-free replica).
        """

    # -- helpers ------------------------------------------------------------------
    def card(self, polarity: str) -> MosfetModelCard:
        """Model card for a polarity."""
        if polarity == "n":
            return self.nmos
        if polarity == "p":
            return self.pmos
        raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")

    def _work_buffers(self, polarity, w, l, inter, z) -> list[np.ndarray]:
        """The mismatch sigmas ``(tox_rel, vth, ld, wd)`` of :meth:`realize`
        as four arrays of the realization's full shape, for it to compute
        in place.

        The full shape broadcasts the geometry, one score column ``z`` and
        the inter-die arrays.  A sigma array of that shape is this call's
        own and is returned as it is; a broadcasting one (a ``(k, 1)``
        shared design, scalar geometry) is copied out to the full shape.
        """
        shape = np.broadcast_shapes(np.shape(w), np.shape(l), z.shape, np.shape(inter["DELL"]))
        return [
            sigma if np.shape(sigma) == shape else np.broadcast_to(sigma, shape).copy()
            for sigma in self.pelgrom[polarity].sigmas(w, l)
        ]

    @staticmethod
    def _junction_scale(card, weff, cjr, cjswr, area, perimeter, nominal) -> np.ndarray:
        """The junction-cap scale of :meth:`realize`, which blends the
        area/sidewall cap ratios ``cjr``/``cjswr`` into one factor::

            (cj * area * cjr + cjsw * perimeter * cjswr)
            / max(cj * area + cjsw * perimeter, 1e-30)

        with ``area = weff * ldiff`` and ``perimeter = 2 * (weff + ldiff)``,
        computed in place on the three work buffers; returns ``area``,
        which holds it.
        """
        np.multiply(weff, card.ldiff, out=area)
        area *= card.cj
        np.add(weff, card.ldiff, out=perimeter)
        perimeter *= 2.0
        perimeter *= card.cjsw
        np.add(area, perimeter, out=nominal)
        np.maximum(nominal, 1e-30, out=nominal)
        area *= cjr
        perimeter *= cjswr
        area += perimeter
        area /= nominal
        return area

    def variation_model(self, device_names: list[str]) -> ProcessVariationModel:
        """Build the full process space for a circuit's device list."""
        return ProcessVariationModel(self.inter, device_names)

    def realize_nominal(self, polarity: str, w: float, l: float) -> DeviceArrays:
        """Effective parameters at the nominal process point (n_samples=1)."""
        inter = {name: np.array([mu])
                 for name, mu in zip(self.inter.names, self.inter.means())}
        scores = np.zeros((1, 4))
        return self.realize(polarity, w, l, inter, scores)

    def clip_geometry(self, w: float, l: float) -> tuple[float, float]:
        """Clamp drawn geometry to the technology's legal minima."""
        return max(w, self.wmin), max(l, self.lmin)
