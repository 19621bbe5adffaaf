"""The part registries composed methods are assembled from.

A composed method (:mod:`repro.compose.method`) is a four-field config::

    {"screener": ..., "proposer": ..., "selection": ..., "backbone": ...}

whose parts are resolved *by name* through the registries owned here —
the RDGEMO pattern: new algorithms are data, not drivers.

* :data:`SCREENERS` — candidate-pool filters that run *before* the
  feasibility check, so a pruned trial charges zero simulations.  A
  screener class is instantiated per run with the method's
  ``screen_params`` plus a private ``rng`` stream, and must implement
  ``observe(x, y)`` (labelled training data as estimation completes) and
  ``screen(xs, generation) -> (keep_mask, record)`` where ``record`` is
  the JSON-compatible entry appended to ``MOHECOResult.screen_trace``.
* :data:`PROPOSERS` — trial-vector generators replacing MOHECO's step 2.
  Instantiated per run with the config's static ``proposer_params``; must
  implement ``propose(optimizer, population, best_index) -> (n, d)``.
* :data:`SELECTIONS` — step-8 survivor rules.  Registered as plain
  functions ``select(population, trials) -> None`` mutating the
  population in place.

All three share :class:`~repro.registry.Registry` semantics
(case-insensitive names, duplicate errors, unknown-name errors listing
what is registered), and third-party parts plug in through the
``register_*`` helpers re-exported from :mod:`repro.api`.
"""

from __future__ import annotations

from repro.registry import Registry

__all__ = [
    "SCREENERS",
    "PROPOSERS",
    "SELECTIONS",
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
]

#: Name -> screener class (see module docstring for the part protocol).
SCREENERS: Registry = Registry("screener")
#: Name -> proposer class.
PROPOSERS: Registry = Registry("proposer")
#: Name -> selection function.
SELECTIONS: Registry = Registry("selection")


def register_screener(name: str, screener_cls=None, *, overwrite: bool = False):
    """Register a candidate-pool screener class (usable as a decorator)."""
    return SCREENERS.register(name, screener_cls, overwrite=overwrite)


def get_screener(name: str):
    """The screener class registered under ``name``."""
    return SCREENERS.get(name)


def list_screeners() -> list[str]:
    """Sorted names of the registered screeners."""
    return SCREENERS.names()


def register_proposer(name: str, proposer_cls=None, *, overwrite: bool = False):
    """Register a trial-proposer class (usable as a decorator)."""
    return PROPOSERS.register(name, proposer_cls, overwrite=overwrite)


def get_proposer(name: str):
    """The proposer class registered under ``name``."""
    return PROPOSERS.get(name)


def list_proposers() -> list[str]:
    """Sorted names of the registered proposers."""
    return PROPOSERS.names()


def register_selection(name: str, select_fn=None, *, overwrite: bool = False):
    """Register a step-8 selection function (usable as a decorator)."""
    return SELECTIONS.register(name, select_fn, overwrite=overwrite)


def get_selection(name: str):
    """The selection function registered under ``name``."""
    return SELECTIONS.get(name)


def list_selections() -> list[str]:
    """Sorted names of the registered selection rules."""
    return SELECTIONS.names()


def make_screener(name: str, params: dict | None = None, *, rng=None):
    """Instantiate the screener ``name`` with per-run ``screen_params``.

    The screener's constructor validates its knobs — unknown or
    out-of-range ``screen_params`` raise ``ValueError`` here, which spec
    validation surfaces as a structured
    :class:`~repro.api.errors.SpecError` at submission time.
    """
    if params is not None and not isinstance(params, dict):
        raise ValueError(
            f"screen_params must be a dict of screener knobs, got {params!r}"
        )
    return SCREENERS.create(name, **(params or {}), rng=rng)


def make_proposer(name: str, params: dict | None = None):
    """Instantiate the proposer ``name`` with its static config params."""
    return PROPOSERS.create(name, **(params or {}))
