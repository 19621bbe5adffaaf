"""Named plugin registries.

The public API resolves methods, problems, samplers and caches by
name through :class:`Registry` instances, so third-party scenarios plug in
without touching library code::

    from repro.api import register_problem

    @register_problem("my_amplifier")
    def make_my_amplifier_problem(**kwargs):
        ...

Error messages always list the currently registered names, so a typo tells
you what *is* available instead of just what is not.  Registered factories
check their count and real-number parameters with :func:`check_count` and
:func:`check_real`.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Generic, Iterator, TypeVar

__all__ = [
    "Registry",
    "DuplicateNameError",
    "UnknownNameError",
    "check_count",
    "check_real",
]

T = TypeVar("T")


class DuplicateNameError(ValueError):
    """A name was registered twice without ``overwrite=True``."""


class UnknownNameError(ValueError):
    """A lookup name is not registered; the message lists what is."""


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` unless an integer >= ``minimum``."""
    # bool is an int subclass; `"workers": true` is a mistake, not 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a ``float``; ``ValueError`` unless a finite real number."""
    # bool is an int subclass; `true` is a mistake, not 1.0.
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


class Registry(Generic[T]):
    """A case-insensitive name -> factory mapping with helpful errors.

    Parameters
    ----------
    kind:
        Human label for error messages ("method", "sampler", ...).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    # -- registration -------------------------------------------------------
    def register(
        self, name: str, obj: T | None = None, *, overwrite: bool = False
    ) -> T | Callable[[T], T]:
        """Register ``obj`` under ``name``; usable as a decorator.

        >>> registry = Registry("greeter")
        >>> @registry.register("hello")
        ... def hello():
        ...     return "hi"
        """
        key = self._normalize(name)
        if obj is None:

            def decorator(target: T) -> T:
                self.register(name, target, overwrite=overwrite)
                return target

            return decorator
        if key in self._entries and not overwrite:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        self._entries[key] = obj
        return obj

    def unregister(self, name: str) -> None:
        """Remove a registration (raises if absent)."""
        self._entries.pop(self._require(name), None)

    # -- lookup -------------------------------------------------------------
    def get(self, name: str) -> T:
        """The object registered under ``name``."""
        return self._entries[self._require(name)]

    def create(self, name: str, *args, **kwargs):
        """Look up ``name`` and call it with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    # -- protocol niceties --------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return self._normalize(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={self.names()})"

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _normalize(name: str) -> str:
        return str(name).strip().lower()

    def _require(self, name: str) -> str:
        key = self._normalize(name)
        if key not in self._entries:
            known = ", ".join(self.names()) or "<none>"
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; registered: {known}"
            )
        return key
