"""Declarative run description.

A :class:`RunSpec` captures everything needed to reproduce one optimization
run — problem name (+ factory parameters), method name (+ config
overrides) and the seed — as plain JSON-compatible data.  Specs are what
the CLI consumes (``python -m repro run --spec run.json``), what
experiments archive next to their results, and what the HTTP service
(:mod:`repro.service`) accepts as a job.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields, replace

from repro.api.errors import SpecError

__all__ = ["RunSpec"]


def _coerce_int(data: dict, key: str, spec: str, default=None) -> int | None:
    """An optional-integer field of a spec payload (``None`` means default)."""
    value = data.get(key)
    if value is None:
        return default
    # bool is an int subclass; `"seed": true` is a mistake, not seed 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"expected an integer, got {value!r}", field=key, spec=spec
        )
    return value


def _coerce_text(data: dict, key: str, spec: str) -> str | None:
    """An optional free-text field of a spec payload (labels, tags)."""
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise SpecError(f"expected a string, got {value!r}", field=key, spec=spec)
    return value


def _coerce_dict(data: dict, key: str, spec: str) -> dict:
    """An optional-object field of a spec payload (``None`` means empty)."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SpecError(
            f"expected a JSON object, got {value!r}", field=key, spec=spec
        )
    return dict(value)


def _reject_unknown(data: dict, known: tuple, kind: str, spec: str) -> None:
    """Unknown keys fail loudly, naming the first one: a misspelled key
    would otherwise be dropped and its default silently used."""
    unknown = set(data) - set(known)
    if unknown:
        raise SpecError(
            f"unknown {kind} keys {sorted(unknown)}; expected a subset of "
            f"{sorted(known)}",
            field=sorted(unknown)[0],
            spec=spec,
        )


def _check_name(value, key: str, spec: str, *, optional: bool = False) -> None:
    """A registry-name field: a non-empty string (or ``None`` if optional)."""
    if optional and value is None:
        return
    if not isinstance(value, str) or not value:
        raise SpecError(
            f"expected a registry name, got {value!r}", field=key, spec=spec
        )


def _check_seed(value, key: str, spec: str) -> None:
    """A root-seed field: a non-negative integer, or ``None`` (entropy).

    Checked by the constructor, so a negative seed fails at the door, not
    in the first RNG call of a queued job or a sweep worker.
    """
    # bool is an int subclass; `"seed": true` is a mistake, not seed 1.
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 0
    ):
        raise SpecError(
            f"expected a non-negative integer, got {value!r}", field=key, spec=spec
        )


def _check_cache_fields(spec_obj, spec: str) -> None:
    """The cache fields a Run- or SweepSpec share."""
    _check_name(spec_obj.cache, "cache", spec, optional=True)
    if spec_obj.cache_params and spec_obj.cache is None:
        raise SpecError(
            "cache_params require a cache name", field="cache_params", spec=spec
        )


@dataclass(frozen=True)
class RunSpec:
    """One optimization run, described declaratively.

    Parameters
    ----------
    problem:
        Name in the problem registry (e.g. ``"sphere"``,
        ``"folded_cascode"``).
    method:
        Name in the method registry (e.g. ``"moheco"``, ``"oo_only"``,
        ``"fixed_budget"``, ``"pswcd"``).
    seed:
        Root seed of the run, a non-negative integer; ``None`` draws OS
        entropy (irreproducible).
    problem_params:
        Keyword arguments for the problem factory.
    overrides:
        Method/config overrides (e.g. ``{"pop_size": 20, "n_max": 300}``).
    cache:
        Warm-start evaluation-cache registry name (``"lru"``); ``None``
        disables caching.  Replayed rows are still charged, so a cache
        never changes the seeded result or the simulation totals — it is
        a deployment knob, not an algorithm knob.
    cache_params:
        Keyword arguments for the cache factory (e.g. ``{"max_bytes":
        67108864, "spill_path": "cache.jsonl"}``).
    tag:
        Free-form label carried through to reports.
    """

    problem: str
    method: str = "moheco"
    seed: int | None = None
    problem_params: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    cache: str | None = None
    cache_params: dict = field(default_factory=dict)
    tag: str | None = None

    def __post_init__(self) -> None:
        _check_name(self.problem, "problem", "RunSpec")
        _check_name(self.method, "method", "RunSpec")
        _check_seed(self.seed, "seed", "RunSpec")
        _check_cache_fields(self, "RunSpec")
        # Detach from caller-owned dicts: a frozen, hashable spec must not
        # change identity when the caller later mutates what it passed in.
        object.__setattr__(self, "problem_params", copy.deepcopy(self.problem_params))
        object.__setattr__(self, "overrides", copy.deepcopy(self.overrides))
        object.__setattr__(self, "cache_params", copy.deepcopy(self.cache_params))

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the dict fields; hash
        # the canonical JSON form instead so specs work in sets/dict keys
        # (deduping seed sweeps, caching results per spec).
        return hash(json.dumps(self.to_dict(), sort_keys=True, default=str))

    # -- derivation --------------------------------------------------------
    def with_overrides(self, **overrides) -> "RunSpec":
        """Copy with extra method/config overrides merged in."""
        return replace(self, overrides={**self.overrides, **overrides})

    def with_seed(self, seed: int | None) -> "RunSpec":
        """Copy with a different seed (for replication sweeps)."""
        return replace(self, seed=seed)

    def with_cache(self, cache: str | None, **cache_params) -> "RunSpec":
        """Copy with a different warm-start cache configuration."""
        return replace(self, cache=cache, cache_params=cache_params)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "problem": self.problem,
            "method": self.method,
            "seed": self.seed,
            "problem_params": copy.deepcopy(self.problem_params),
            "overrides": copy.deepcopy(self.overrides),
            "cache": self.cache,
            "cache_params": copy.deepcopy(self.cache_params),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`.

        Raises :class:`~repro.api.errors.SpecError` — with the offending
        field — for non-object payloads, unknown keys, wrong value types
        and the constructor's own checks, so services and the CLI can
        report *which* part of a submitted spec is broken.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"expected a JSON object, got {type(data).__name__}",
                spec="RunSpec",
            )
        _reject_unknown(
            data, tuple(f.name for f in fields(cls)), "RunSpec", "RunSpec"
        )
        if data.get("problem") is None:
            raise SpecError("required field is missing", field="problem", spec="RunSpec")
        # Registry-name fields are type-checked by the constructor.
        return cls(
            problem=data["problem"],
            method=data.get("method", "moheco"),
            seed=_coerce_int(data, "seed", "RunSpec"),
            problem_params=_coerce_dict(data, "problem_params", "RunSpec"),
            overrides=_coerce_dict(data, "overrides", "RunSpec"),
            cache=data.get("cache"),
            cache_params=_coerce_dict(data, "cache_params", "RunSpec"),
            tag=_coerce_text(data, "tag", "RunSpec"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from a JSON string."""
        return cls.from_dict(json.loads(text))
