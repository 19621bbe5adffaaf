"""MOSFET device model.

Two views of the same device are provided:

* :class:`MosfetModelCard` — nominal technology parameters of one device
  polarity (the equivalent of a SPICE ``.model`` card).  Includes a full
  large-signal I-V evaluation (cutoff / triode / saturation with
  channel-length modulation and mobility degradation) used by the generic
  MNA DC Newton solver.
* :class:`DeviceArrays` — *effective* per-sample device parameters after
  process variations have been applied by a technology.  All entries are
  NumPy arrays over the Monte-Carlo sample axis, optionally behind a
  leading device axis (a stack of same-polarity devices realized in one
  call), and the bias-point helper methods are fully vectorised.
  ``vov_for_current`` solves operating points (the overdrive that carries
  a drain current): one call solves a whole stack, one current row per
  device.  ``gm``, ``gmbs`` and ``vdsat`` take that solved overdrive, and
  only ``gds`` and ``ro`` take the drain current itself.  This is what
  the fast analytic topology evaluators consume.

Sign conventions: p-channel devices are evaluated with source-referenced
*magnitudes* (``vgs``, ``vds`` >= 0 meaning |VGS|, |VDS|); polarity handling
happens at the netlist/stamping layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["MosfetModelCard", "DeviceArrays", "EPS_OX"]

#: Permittivity of SiO2 [F/m].
EPS_OX = 3.45e-11

#: Smoothing width for the cutoff transition [V]; keeps Newton iterations
#: differentiable through the subthreshold corner.
_VOV_SMOOTH = 5e-3


@dataclass(frozen=True)
class MosfetModelCard:
    """Nominal model parameters for one device polarity.

    Units are SI throughout.

    Parameters
    ----------
    polarity:
        ``"n"`` or ``"p"``.
    vth0:
        Zero-bias threshold-voltage magnitude [V].
    u0:
        Low-field mobility [m^2/(V s)].
    tox:
        Gate-oxide thickness [m].
    ld, wd:
        Lateral diffusion / width reduction per side [m]; effective geometry
        is ``Leff = L - 2*ld``, ``Weff = W - 2*wd``.
    theta:
        Mobility-degradation coefficient [1/V]; ID saturates as
        ``0.5 k vov^2 / (1 + theta vov)``.
    clm:
        Channel-length-modulation length coefficient [m/V];
        ``lambda = clm / Leff``.
    gamma:
        Body-effect coefficient [sqrt(V)].
    phi:
        Surface potential 2*phi_F [V].
    cj, cjsw:
        Junction area [F/m^2] and sidewall [F/m] capacitance densities.
    cgdo, cgso:
        Gate-drain / gate-source overlap capacitance per width [F/m].
    ldiff:
        Source/drain diffusion length [m] used for junction areas.
    nfactor:
        Subthreshold slope factor n (EKV interpolation in DeviceArrays).
    """

    polarity: str
    vth0: float
    u0: float
    tox: float
    ld: float = 0.0
    wd: float = 0.0
    theta: float = 0.0
    clm: float = 0.05e-6
    gamma: float = 0.5
    phi: float = 0.8
    cj: float = 9e-4
    cjsw: float = 2.8e-10
    cgdo: float = 3e-10
    cgso: float = 3e-10
    ldiff: float = 0.5e-6
    nfactor: float = 1.4

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.tox <= 0:
            raise ValueError(f"tox must be positive, got {self.tox}")
        if self.u0 <= 0:
            raise ValueError(f"u0 must be positive, got {self.u0}")

    # -- derived ------------------------------------------------------------
    @property
    def cox(self) -> float:
        """Oxide capacitance per area [F/m^2]."""
        return EPS_OX / self.tox

    @property
    def kp(self) -> float:
        """Transconductance parameter u0 * cox [A/V^2]."""
        return self.u0 * self.cox

    def with_overrides(self, **kwargs) -> "MosfetModelCard":
        """Return a copy with some parameters replaced (corner cards)."""
        return replace(self, **kwargs)

    # -- large-signal model (used by the MNA DC solver) ----------------------
    def ids(self, w: float, l: float, vgs, vds, vbs=0.0) -> np.ndarray:
        """Drain current [A] (source-referenced magnitudes for PMOS).

        Vectorised over any broadcastable combination of bias arrays.
        """
        ids, _, _, _ = self.ids_and_derivatives(w, l, vgs, vds, vbs)
        return ids

    def ids_and_derivatives(self, w: float, l: float, vgs, vds, vbs=0.0):
        """Drain current and its partial derivatives w.r.t. (vgs, vds, vbs).

        Returns ``(ids, gm, gds, gmbs)``; all broadcast over the inputs.
        The model is a smoothed Level-1: the effective overdrive is passed
        through a softplus so the current and derivatives stay continuous at
        the cutoff boundary (a requirement for Newton convergence), and
        triode/saturation are blended at ``vds = vov``.

        Negative ``vds`` engages reverse conduction (drain and source swap
        roles, as in SPICE); the returned derivatives remain the partials
        with respect to the *original* source-referenced voltages, so MNA
        stamps need no mode awareness.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vbs = np.asarray(vbs, dtype=float)

        reverse = vds < 0.0
        if np.any(reverse):
            # Forward part evaluated with clamped vds >= 0.
            f_ids, f_gm, f_gds, f_gmbs = self._forward_ids(
                w, l, np.maximum(vds, 0.0) * 0.0 + vgs, np.maximum(vds, 0.0), vbs
            )
            # Reverse part: swap terminals.  u = vgs - vds (gate to the new
            # source), d = -vds, b = vbs - vds; i_d = -f(u, d, b).
            r_ids, r_gm, r_gds, r_gmbs = self._forward_ids(
                w, l, vgs - vds, -vds, np.minimum(vbs - vds, self.phi - 1e-3)
            )
            ids = np.where(reverse, -r_ids, f_ids)
            gm = np.where(reverse, -r_gm, f_gm)
            gds = np.where(reverse, r_gm + r_gds + r_gmbs, f_gds)
            gmbs = np.where(reverse, -r_gmbs, f_gmbs)
            return ids, gm, gds, gmbs
        return self._forward_ids(w, l, vgs, vds, vbs)

    def _forward_ids(self, w: float, l: float, vgs, vds, vbs):
        """Forward-mode (vds >= 0) current and derivatives."""
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vbs = np.asarray(vbs, dtype=float)

        leff = max(l - 2.0 * self.ld, 1e-9)
        weff = max(w - 2.0 * self.wd, 1e-9)
        beta = self.kp * weff / leff
        lam = self.clm / leff

        # Body effect (vbs is the source-referenced body voltage magnitude;
        # reverse bias increases the threshold).
        sqrt_term = np.sqrt(np.maximum(self.phi - vbs, 1e-6))
        vth = self.vth0 + self.gamma * (sqrt_term - np.sqrt(self.phi))
        dvth_dvbs = 0.5 * self.gamma / sqrt_term

        # Smoothed overdrive: softplus keeps d(ids)/d(vgs) finite in cutoff.
        raw = vgs - vth
        vov = _VOV_SMOOTH * np.logaddexp(0.0, raw / _VOV_SMOOTH)
        dvov_draw = _sigmoid(raw / _VOV_SMOOTH)

        denom = 1.0 + self.theta * vov
        vds_pos = np.maximum(vds, 0.0)

        sat = vds_pos >= vov
        # Saturation: ids = 0.5 beta vov^2 / (1 + theta vov) * (1 + lam vds)
        ids_sat = 0.5 * beta * vov**2 / denom * (1.0 + lam * vds_pos)
        dids_dvov_sat = (
            0.5 * beta * vov * (2.0 + self.theta * vov) / denom**2 * (1.0 + lam * vds_pos)
        )
        gds_sat = 0.5 * beta * vov**2 / denom * lam

        # Triode: ids = beta (vov - vds/2) vds / (1 + theta vov) * (1 + lam vds)
        ids_tri = beta * (vov - 0.5 * vds_pos) * vds_pos / denom * (1.0 + lam * vds_pos)
        dids_dvov_tri = (
            beta * vds_pos / denom * (1.0 + lam * vds_pos)
            - self.theta * ids_tri / denom
        )
        gds_tri = (
            beta * (vov - vds_pos) / denom * (1.0 + lam * vds_pos)
            + beta * (vov - 0.5 * vds_pos) * vds_pos / denom * lam
        )

        ids = np.where(sat, ids_sat, ids_tri)
        dids_dvov = np.where(sat, dids_dvov_sat, dids_dvov_tri)
        gds = np.where(sat, gds_sat, gds_tri)

        gm = dids_dvov * dvov_draw
        # vth depends on vbs: d ids / d vbs = -dids/dvov * dvth/dvbs ... with
        # the same smoothing chain rule.
        gmbs = dids_dvov * dvov_draw * dvth_dvbs

        return ids, gm, gds, gmbs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


#: Thermal voltage kT/q at 300 K [V].
THERMAL_VOLTAGE = 0.02585


class DeviceArrays:
    """Effective device parameters over a Monte-Carlo sample axis.

    Produced by a technology's ``realize`` method; consumed by the analytic
    topology evaluators.  Every attribute is an array over the rows of one
    evaluation (scalars broadcast fine too): the drawn geometry ``w``/``l``
    has one entry per design row — or a single entry shared by every
    sample — and the effective parameters one entry per sample row.

    A *stack* holds ``k`` same-polarity devices: its geometry is ``(k, 1)``
    or ``(k, N)`` and every device-dependent array ``(k, N)``, while the
    inter-die-only arrays (``theta``, ``gamma``, ``cg_scale``, ``phi``)
    stay ``(N,)`` and broadcast.  ``stack[i]`` is device ``i``'s view and
    ``stack[a:b]`` a sub-stack; both slice the stacked arrays, ``beta``
    included, so a view's entries are bit-equal to a one-device
    realization's.

    An evaluator solves each (device, current) operating point once with
    :meth:`vov_for_current` — on a sub-stack, one current row per device,
    so one call solves a whole dependency wave — and passes the solved
    overdrive ``vov`` on to :meth:`gm`, :meth:`gmbs` and :meth:`vdsat`;
    the gate-source magnitude is ``vth + vov``.  Only :meth:`gds` and
    :meth:`ro` take the drain current ``ids``, the one input they use.

    The bias-point helpers use an EKV-style all-region interpolation::

        u   = vov / (2 n Vt)
        h   = softplus(u) = ln(1 + exp(u))
        Id  = 2 n beta Vt^2 h^2 / (1 + theta * max(vov, 0))
        gm  = 2 beta Vt h sigmoid(u) / (1 + theta * max(vov, 0))

    which recovers the square law (with mobility degradation) in strong
    inversion and the exponential subthreshold law — hence the physical
    weak-inversion transconductance ceiling ``gm <= Id / (n Vt)`` — in weak
    inversion.  Without that ceiling a sizing optimizer can buy unlimited
    gm at negligible current by inflating W, which removes the power
    tension the paper's example 1 is built around.

    Attributes
    ----------
    vth:
        Effective threshold magnitude [V].
    kp:
        Effective ``u0*cox`` [A/V^2].
    beta:
        ``kp * weff / leff`` [A/V^2].
    lam:
        Channel-length modulation [1/V].
    theta:
        Mobility degradation [1/V].
    weff, leff:
        Effective geometry [m].
    cox:
        Effective oxide capacitance density [F/m^2].
    cj_scale, cg_scale:
        Multiplicative variation factors on junction / overlap capacitances.
    nfactor:
        Subthreshold slope factor n.
    """

    def __init__(
        self,
        card: MosfetModelCard,
        w: np.ndarray | float,
        l: np.ndarray | float,
        vth: np.ndarray,
        kp: np.ndarray,
        lam: np.ndarray,
        theta: np.ndarray,
        weff: np.ndarray,
        leff: np.ndarray,
        cox: np.ndarray,
        cj_scale: np.ndarray | float = 1.0,
        cg_scale: np.ndarray | float = 1.0,
        gamma: np.ndarray | float | None = None,
        phi: np.ndarray | float | None = None,
    ) -> None:
        self.card = card
        self.w = np.asarray(w, dtype=float)
        self.l = np.asarray(l, dtype=float)
        self.vth = np.asarray(vth, dtype=float)
        self.kp = np.asarray(kp, dtype=float)
        self.lam = np.asarray(lam, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.weff = np.asarray(weff, dtype=float)
        self.leff = np.asarray(leff, dtype=float)
        self.cox = np.asarray(cox, dtype=float)
        self.cj_scale = np.asarray(cj_scale, dtype=float)
        self.cg_scale = np.asarray(cg_scale, dtype=float)
        self.gamma = np.asarray(card.gamma if gamma is None else gamma, dtype=float)
        self.phi = np.asarray(card.phi if phi is None else phi, dtype=float)
        self.nfactor = float(getattr(card, "nfactor", 1.4))
        # kp * weff / leff with one allocation; leff has the product's shape.
        self.beta = self.kp * self.weff
        self.beta /= self.leff
        #: Attributes that carry the leading device axis of a stack.
        self._stacked = (
            tuple(name for name, value in vars(self).items()
                  if isinstance(value, np.ndarray) and value.ndim == 2)
            if self.w.ndim == 2 else ()
        )

    def __getitem__(self, index) -> "DeviceArrays":
        """Device ``index`` of a stack (or the sub-stack ``index`` slices),
        as a view of the stacked arrays; shared arrays are reused."""
        if not self._stacked:
            raise TypeError("only a stacked realization has per-device views")
        fields = vars(self)
        view = object.__new__(DeviceArrays)
        view.__dict__.update(fields)
        view.__dict__.update({name: fields[name][index] for name in self._stacked})
        if view.w.ndim != 2:
            view._stacked = ()
        return view

    def __iter__(self):
        """The per-device views of a stack, in stack order."""
        return (self[i] for i in range(len(self.w)))

    # -- bias-point quantities (EKV all-region) ---------------------------------
    def _nvt(self) -> float:
        """2 n Vt, the EKV interpolation scale [V]."""
        return 2.0 * self.nfactor * THERMAL_VOLTAGE

    def current_for_vov(self, vov) -> np.ndarray:
        """Drain current at overdrive ``vov = vgs - vth`` (any region) [A]."""
        vov = np.asarray(vov, dtype=float)
        scale = self._nvt()
        h = np.logaddexp(0.0, vov / scale)  # softplus
        denom = 1.0 + self.theta * np.maximum(vov, 0.0)
        return 0.5 * self.beta * scale**2 * h**2 / denom

    def vov_for_current(self, ids) -> np.ndarray:
        """Overdrive ``vgs - vth`` that carries ``ids`` in saturation [V].

        Inverts the EKV interpolation (negative values = weak inversion).
        The mobility-degradation factor is handled by a short fixed-point
        iteration (it converges fast because theta*vov << 1 + theta*vov).
        On a stack, ``ids`` has one row per device (``(k, 1)`` or
        ``(k, N)``) and the result is ``(k, N)``.  The eight steps run on
        preallocated buffers, in the operation order of
        ``q = sqrt(ids * (1 + theta * max(vov, 0)) / i_scale)`` and
        ``vov = scale * where(q > 30, q, log(expm1(min(q, 30))))``.
        """
        ids = np.maximum(np.asarray(ids, dtype=float), 1e-15)
        scale = self._nvt()
        i_scale = 0.5 * self.beta * scale**2  # ids = i_scale * h^2 / denom
        shape = np.broadcast_shapes(ids.shape, self.beta.shape)
        vov = np.zeros(shape)
        q = np.empty(shape)
        work = np.empty(shape)
        strong = np.empty(shape, dtype=bool)
        for _ in range(8):
            np.maximum(vov, 0.0, out=work)
            np.multiply(self.theta, work, out=work)
            np.add(1.0, work, out=work)
            np.multiply(ids, work, out=work)
            np.divide(work, i_scale, out=work)
            np.sqrt(work, out=q)
            # invert softplus: u = ln(exp(q) - 1), guarded for large q
            np.minimum(q, 30.0, out=work)
            np.expm1(work, out=work)
            np.log(work, out=work)
            np.greater(q, 30.0, out=strong)
            np.copyto(work, q, where=strong)
            np.multiply(scale, work, out=vov)
        return vov

    def gm(self, vov) -> np.ndarray:
        """Transconductance at the solved overdrive ``vov`` (saturation) [S].

        Exact derivative of :meth:`current_for_vov` at the operating
        overdrive, including the mobility-degradation term.  Strong
        inversion: ~ beta*vov/n degraded by theta; weak inversion:
        Id/(n*Vt) — the physical ceiling.
        """
        vov = np.asarray(vov, dtype=float)
        scale = self._nvt()
        u = vov / scale
        h = np.logaddexp(0.0, u)
        sig = _sigmoid(np.asarray(u, dtype=float))
        denom = 1.0 + self.theta * np.maximum(vov, 0.0)
        base = self.beta * scale * h * sig / denom
        # d/dvov of the 1/(1+theta*vov) factor (active above threshold).
        correction = np.where(
            vov > 0.0,
            0.5 * self.beta * scale**2 * h**2 * self.theta / denom**2,
            0.0,
        )
        return base - correction

    def gds(self, ids) -> np.ndarray:
        """Output conductance lambda * ids [S]."""
        return self.lam * np.asarray(ids, dtype=float)

    def ro(self, ids) -> np.ndarray:
        """Output resistance 1/gds [ohm]."""
        return 1.0 / np.maximum(self.gds(ids), 1e-15)

    def vdsat(self, vov) -> np.ndarray:
        """Saturation voltage at the solved overdrive ``vov`` [V].

        Approaches the overdrive in strong inversion and floors near
        ~3.5 Vt in weak inversion (EKV-style blend).
        """
        floor = 3.5 * THERMAL_VOLTAGE
        return np.sqrt(np.maximum(vov, 0.0) ** 2 + floor**2)

    def vth_at(self, vsb) -> np.ndarray:
        """Threshold with body effect at source-bulk reverse bias ``vsb`` [V].

        ``vth_at(0)`` equals :attr:`vth`; cascode devices whose sources sit
        above the bulk rail see the increase.
        """
        vsb = np.maximum(np.asarray(vsb, dtype=float), 0.0)
        return self.vth + self.gamma * (
            np.sqrt(self.phi + vsb) - np.sqrt(self.phi)
        )

    def gmbs(self, vov, vsb=0.0, gm=None) -> np.ndarray:
        """Bulk transconductance at the solved overdrive ``vov`` and
        source-bulk bias ``vsb`` [S]; ``gm`` is :meth:`gm` at ``vov`` when
        the caller already has it."""
        vsb = np.maximum(np.asarray(vsb, dtype=float), 0.0)
        chi = self.gamma / (2.0 * np.sqrt(self.phi + vsb))
        return chi * (self.gm(vov) if gm is None else gm)

    # -- capacitances ---------------------------------------------------------
    def cgs(self) -> np.ndarray:
        """Gate-source capacitance (channel 2/3 CoxWL + overlap) [F]."""
        channel = (2.0 / 3.0) * self.weff * self.leff * self.cox
        overlap = self.card.cgso * self.weff * self.cg_scale
        return channel + overlap

    def cgd(self) -> np.ndarray:
        """Gate-drain overlap capacitance [F]."""
        return self.card.cgdo * self.weff * self.cg_scale

    def cdb(self) -> np.ndarray:
        """Drain-bulk junction capacitance [F] (zero-bias, conservative)."""
        area = self.weff * self.card.ldiff
        perimeter = 2.0 * (self.weff + self.card.ldiff)
        return (self.card.cj * area + self.card.cjsw * perimeter) * self.cj_scale

    def csb(self) -> np.ndarray:
        """Source-bulk junction capacitance [F]."""
        return self.cdb()

    def area(self) -> np.ndarray:
        """Drawn gate area W*L [m^2] (for the area spec)."""
        return self.w * self.l
