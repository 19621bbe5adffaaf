"""The MOHECO method family and its optional surrogate screen.

:mod:`repro.compose.method` registers the family from one backbone table:
the four backbone methods (``moheco``, ``oo_only``, ``fixed_budget``,
``moheco_mf``) and the two screened ones (``moheco_screened``,
``fixed_budget_screened``), which run a backbone with the BagNet-style
:class:`~repro.compose.screeners.SurrogateScreener` in front of the
feasibility gate.  :mod:`repro.api` imports it; this package itself only
exports the screen, which :class:`~repro.core.moheco.MOHECO` builds from
a run's ``screen_params``.
"""

from repro.compose.screeners import SurrogateScreener, make_screener

__all__ = ["SurrogateScreener", "make_screener"]
