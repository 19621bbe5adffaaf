"""The optional surrogate screen of the MOHECO family.

The screened methods (``moheco_screened``, ``fixed_budget_screened``) are
the rows of :data:`repro.api.methods.MOHECO_FAMILY` whose runs put the
BagNet-style :class:`~repro.compose.screeners.SurrogateScreener` in front
of the feasibility gate.  :class:`~repro.core.moheco.MOHECO` builds the
screen from a run's ``screen_params``.
"""

from repro.compose.screeners import SurrogateScreener, make_screener

__all__ = ["SurrogateScreener", "make_screener"]
