"""The three public plugin registries and their register/get/list helpers.

Samplers and problems live next to their implementations
(:data:`repro.sampling.SAMPLERS`, :data:`repro.problems.PROBLEMS`); the
method registry is owned here.  All three share
:class:`~repro.registry.Registry` semantics: case-insensitive
names, :class:`~repro.registry.DuplicateNameError` on re-registration, and
unknown-name errors that list what *is* registered.

A **method** entry is a runner callable::

    runner(problem, *, rng=None, ledger=None, callbacks=None, **overrides)
        -> MOHECOResult

so every optimizer — the paper's MOHECO and its ablations, PSWCD, or a
third-party algorithm — is driven identically by
:func:`repro.api.optimize` and the CLI.
"""

from __future__ import annotations

from repro.problems import PROBLEMS
from repro.registry import Registry
from repro.sampling import SAMPLERS

__all__ = [
    "METHODS",
    "PROBLEMS",
    "SAMPLERS",
    "register_method",
    "get_method",
    "list_methods",
    "register_problem",
    "get_problem",
    "list_problems",
    "register_sampler",
    "get_sampler",
    "list_samplers",
]

#: Name -> optimization-method runner (see module docstring for signature).
METHODS: Registry = Registry("method")


def register_method(name: str, runner=None, *, overwrite: bool = False):
    """Register an optimization method runner (usable as a decorator)."""
    return METHODS.register(name, runner, overwrite=overwrite)


def get_method(name: str):
    """The runner registered under ``name``."""
    return METHODS.get(name)


def list_methods() -> list[str]:
    """Sorted names of the registered methods."""
    return METHODS.names()


def register_problem(name: str, factory=None, *, overwrite: bool = False):
    """Register a problem factory returning a fresh ``YieldProblem``."""
    return PROBLEMS.register(name, factory, overwrite=overwrite)


def get_problem(name: str):
    """The problem factory registered under ``name``."""
    return PROBLEMS.get(name)


def list_problems() -> list[str]:
    """Sorted names of the registered problems."""
    return PROBLEMS.names()


def register_sampler(name: str, sampler_cls=None, *, overwrite: bool = False):
    """Register a :class:`~repro.sampling.base.Sampler` subclass."""
    return SAMPLERS.register(name, sampler_cls, overwrite=overwrite)


def get_sampler(name: str):
    """The sampler class registered under ``name``."""
    return SAMPLERS.get(name)


def list_samplers() -> list[str]:
    """Sorted names of the registered samplers."""
    return SAMPLERS.names()

