"""Declarative description of a seed sweep.

A :class:`SweepSpec` is the multi-run analogue of
:class:`~repro.api.spec.RunSpec`: a methods × problems × seeds grid plus
the protocol scale (reference-MC size, generation cap) and the execution
knob (worker count), as plain JSON-compatible data.
:meth:`SweepSpec.expand` turns the grid into concrete per-run
:class:`RunSpec`\\ s; the per-run random streams are *not* stored — they
derive deterministically from ``(base_seed, run_index)`` via
:func:`repro.rng.run_streams`, which is what lets a process-sharded sweep
reproduce the serial loop bit for bit.

The execution knob ``workers`` travels with the spec for convenience but
is excluded from :meth:`SweepSpec.sweep_hash`: it changes wall-clock,
never results, so a store written by a 4-worker sweep resumes cleanly
under 1 worker and vice versa.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.api.errors import SpecError
from repro.api.spec import (
    RunSpec,
    _check_name,
    _check_int,
    _coerce_dict,
    _coerce_int,
    _coerce_text,
    _reject_unknown,
)

__all__ = ["MethodSpec", "ProblemSpec", "SweepRun", "SweepSpec"]


def _check_label(label: str) -> None:
    if "|" in label:
        # '|' is the store-key separator; allowing it would let two
        # distinct grid cells collide into one key.
        raise SpecError(
            f"labels must not contain '|': {label!r}", field="label", spec="SweepSpec"
        )


def _entry_payload(data, name_key: str, known: tuple) -> dict:
    """One grid entry as a checked dict; a bare string is a registry name.

    Field names in the raised :class:`SpecError` are relative to the entry
    (``"overrides"``); :class:`SweepSpec` prefixes them with its position.
    """
    if isinstance(data, str):
        return {name_key: data}
    if not isinstance(data, dict):
        raise SpecError(
            f"expected a registry-name string or an object, got {data!r}",
            spec="SweepSpec",
        )
    _reject_unknown(data, known, f"{name_key} entry", "SweepSpec")
    if name_key not in data:
        raise SpecError(
            f"entry is missing its {name_key!r} registry name",
            field=name_key,
            spec="SweepSpec",
        )
    return data


@dataclass(frozen=True)
class MethodSpec:
    """One method column of the grid: registry name + config overrides.

    ``label`` is the display name used in tables and store keys (the
    paper's tables distinguish "300 simulations (AS+LHS)" from "500
    simulations (AS+LHS)" — same registry method, different overrides);
    it defaults to the registry name.
    """

    method: str
    label: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_name(self.method, "method", "SweepSpec")
        if self.label is None:
            object.__setattr__(self, "label", self.method)
        _check_label(self.label)
        object.__setattr__(self, "overrides", copy.deepcopy(self.overrides))

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "method": self.method,
            "label": self.label,
            "overrides": copy.deepcopy(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: "dict | str") -> "MethodSpec":
        """Inverse of :meth:`to_dict`; a bare string means no overrides.

        Unknown keys and wrong value types raise :class:`SpecError`.
        """
        data = _entry_payload(data, "method", ("method", "label", "overrides"))
        return cls(
            method=data["method"],
            label=_coerce_text(data, "label", "SweepSpec"),
            overrides=_coerce_dict(data, "overrides", "SweepSpec"),
        )


@dataclass(frozen=True)
class ProblemSpec:
    """One problem row of the grid: registry name + factory parameters."""

    problem: str
    label: str | None = None
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_name(self.problem, "problem", "SweepSpec")
        if self.label is None:
            object.__setattr__(self, "label", self.problem)
        _check_label(self.label)
        object.__setattr__(
            self, "problem_params", copy.deepcopy(self.problem_params)
        )

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "problem": self.problem,
            "label": self.label,
            "problem_params": copy.deepcopy(self.problem_params),
        }

    @classmethod
    def from_dict(cls, data: "dict | str") -> "ProblemSpec":
        """Inverse of :meth:`to_dict`; a bare string means default params.

        Unknown keys and wrong value types raise :class:`SpecError`.
        """
        data = _entry_payload(data, "problem", ("problem", "label", "problem_params"))
        return cls(
            problem=data["problem"],
            label=_coerce_text(data, "label", "SweepSpec"),
            problem_params=_coerce_dict(data, "problem_params", "SweepSpec"),
        )


def _grid_axis(entries, entry_cls, axis: str) -> tuple:
    """``entries`` as ``entry_cls`` objects; errors name ``axis[i].key``."""
    parsed = []
    for index, entry in enumerate(entries):
        try:
            parsed.append(
                entry if isinstance(entry, entry_cls) else entry_cls.from_dict(entry)
            )
        except SpecError as error:
            where = f"{axis}[{index}]" + (f".{error.field}" if error.field else "")
            raise SpecError(error.reason, field=where, spec="SweepSpec") from error
    return tuple(parsed)


@dataclass(frozen=True)
class SweepRun:
    """One cell-run of the expanded grid.

    ``spec.seed`` holds the sweep's ``base_seed``; the actual streams of
    the run are ``repro.rng.run_streams(spec.seed, run_index)``, so the
    pair ``(spec, run_index)`` fully reproduces the run anywhere.
    """

    ordinal: int
    problem_label: str
    method_label: str
    run_index: int
    reference_n: int
    spec: RunSpec

    @property
    def key(self) -> str:
        """Store key: unique and stable across expansions of the same spec.

        Uniqueness holds because labels cannot contain the ``|`` separator
        (enforced by Method/ProblemSpec validation).
        """
        return f"{self.problem_label}|{self.method_label}|{self.run_index}"


@dataclass(frozen=True)
class SweepSpec:
    """A methods × problems × seeds grid, JSON-round-trippable.

    Parameters
    ----------
    methods / problems:
        The grid axes (at least one entry each).
    runs:
        Independent replications per (method, problem) cell; run ``i``
        always sees the same random streams regardless of execution order
        or worker count.
    base_seed:
        Root seed all per-run streams derive from, a non-negative integer.
    reference_n:
        Sample count of the high-N reference MC every returned design is
        scored against (charged to the excluded ``reference`` ledger
        category).
    max_generations:
        Sweep-wide generation cap merged into every method's overrides
        (a method's own ``max_generations`` override wins); ``None``
        leaves the method defaults.
    workers:
        Default process count for the sweep executor (1 = serial);
        ``None`` lets the executor decide.  Excluded from
        :meth:`sweep_hash`.
    tag:
        Free-form label carried into reports and the store header.
    """

    methods: tuple[MethodSpec, ...]
    problems: tuple[ProblemSpec, ...]
    runs: int = 3
    base_seed: int = 20100308
    reference_n: int = 20_000
    max_generations: int | None = None
    workers: int | None = None
    tag: str | None = None

    def __post_init__(self) -> None:
        methods = _grid_axis(self.methods, MethodSpec, "methods")
        problems = _grid_axis(self.problems, ProblemSpec, "problems")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "problems", problems)
        for axis, entries in (("methods", methods), ("problems", problems)):
            labels = [entry.label for entry in entries]
            if not labels:
                raise SpecError(
                    "a sweep needs at least one entry", field=axis, spec="SweepSpec"
                )
            if len(set(labels)) != len(labels):
                raise SpecError(
                    f"duplicate labels in sweep: {labels}", field=axis, spec="SweepSpec"
                )
        for key in ("runs", "reference_n", "max_generations", "workers"):
            optional = key in ("max_generations", "workers")
            _check_int(getattr(self, key), key, "SweepSpec", 1, optional=optional)
        _check_int(self.base_seed, "base_seed", "SweepSpec", 0)

    # -- derivation --------------------------------------------------------
    def expand(self) -> list[SweepRun]:
        """The grid as concrete per-run items, in deterministic order.

        Order is problem-major, then method, then run index — the order
        the serial executor works through; sharded executors may finish
        runs in any order, but every run's streams depend only on its own
        ``run_index``, so order never leaks into results.
        """
        items: list[SweepRun] = []
        ordinal = 0
        for problem in self.problems:
            for method in self.methods:
                overrides = dict(method.overrides)
                if (
                    self.max_generations is not None
                    and "max_generations" not in overrides
                ):
                    overrides["max_generations"] = self.max_generations
                spec = RunSpec(
                    problem=problem.problem,
                    method=method.method,
                    seed=self.base_seed,
                    problem_params=problem.problem_params,
                    overrides=overrides,
                    tag=self.tag,
                )
                for run_index in range(self.runs):
                    items.append(
                        SweepRun(
                            ordinal=ordinal,
                            problem_label=problem.label,
                            method_label=method.label,
                            run_index=run_index,
                            reference_n=self.reference_n,
                            spec=spec,
                        )
                    )
                    ordinal += 1
        return items

    @property
    def total_runs(self) -> int:
        """Grid size: problems × methods × runs."""
        return len(self.problems) * len(self.methods) * self.runs

    # -- identity ----------------------------------------------------------
    def sweep_hash(self) -> str:
        """Hash of the result-determining fields (store resume validation).

        The execution knob ``workers`` and the ``tag`` are excluded: two
        sweeps that differ only there produce byte-identical records, so
        their stores are interchangeable.
        """
        payload = {
            "methods": [m.to_dict() for m in self.methods],
            "problems": [p.to_dict() for p in self.problems],
            "runs": self.runs,
            "base_seed": self.base_seed,
            "reference_n": self.reference_n,
            "max_generations": self.max_generations,
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "methods": [m.to_dict() for m in self.methods],
            "problems": [p.to_dict() for p in self.problems],
            "runs": self.runs,
            "base_seed": self.base_seed,
            "reference_n": self.reference_n,
            "max_generations": self.max_generations,
            "workers": self.workers,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`.

        Method/problem entries may be bare registry-name strings.  Unknown
        keys (at the top level or inside an entry), wrong value types and
        the constructor's own checks raise :class:`SpecError` naming the
        field, e.g. ``methods[1].overrides``.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"expected a JSON object, got {type(data).__name__}",
                spec="SweepSpec",
            )
        _reject_unknown(
            data, tuple(f.name for f in fields(cls)), "SweepSpec", "SweepSpec"
        )
        for axis in ("methods", "problems"):
            if not isinstance(data.get(axis, ()), (list, tuple)):
                raise SpecError(
                    f"expected a list, got {data[axis]!r}",
                    field=axis,
                    spec="SweepSpec",
                )
        # Grid entries and registry names are checked by the constructor.
        return cls(
            methods=tuple(data.get("methods", ())),
            problems=tuple(data.get("problems", ())),
            runs=_coerce_int(data, "runs", "SweepSpec", 3),
            base_seed=_coerce_int(data, "base_seed", "SweepSpec", 20100308),
            reference_n=_coerce_int(data, "reference_n", "SweepSpec", 20_000),
            max_generations=_coerce_int(data, "max_generations", "SweepSpec"),
            workers=_coerce_int(data, "workers", "SweepSpec"),
            tag=_coerce_text(data, "tag", "SweepSpec"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec from a JSON string."""
        return cls.from_dict(json.loads(text))
