"""Config-composed optimization methods (RDGEMO-style).

New methods are four-field configs — ``{screener, proposer, selection,
backbone}`` — whose parts resolve by name from the :data:`SCREENERS` /
:data:`PROPOSERS` / :data:`SELECTIONS` registries, so a new scenario in
``repro list methods`` is ~10 lines of config rather than a driver.

Importing this package registers the whole MOHECO method family — the
four backbone methods (``moheco``, ``oo_only``, ``fixed_budget``,
``moheco_mf``) and the shipped composed methods (``moheco_screened``,
``moheco_lineasy``, ``fixed_budget_screened``) — and the built-in parts.
"""

from repro.compose.parts import (
    PROPOSERS,
    SCREENERS,
    SELECTIONS,
    get_proposer,
    get_screener,
    get_selection,
    list_proposers,
    list_screeners,
    list_selections,
    make_proposer,
    make_screener,
    register_proposer,
    register_screener,
    register_selection,
)
from repro.compose.method import (
    BACKBONES,
    ComposedMOHECO,
    register_composed_method,
)
from repro.compose.proposers import DEProposer, LineSubspaceProposer
from repro.compose.screeners import NullScreener, SurrogateScreener

__all__ = [
    "SCREENERS",
    "PROPOSERS",
    "SELECTIONS",
    "BACKBONES",
    "register_screener",
    "get_screener",
    "list_screeners",
    "register_proposer",
    "get_proposer",
    "list_proposers",
    "register_selection",
    "get_selection",
    "list_selections",
    "make_screener",
    "make_proposer",
    "ComposedMOHECO",
    "register_composed_method",
    "NullScreener",
    "SurrogateScreener",
    "DEProposer",
    "LineSubspaceProposer",
]
