"""Structured spec-validation errors.

A :class:`SpecError` pinpoints *which field* of a ``RunSpec``/``SweepSpec``
payload is wrong and *why*, as data rather than prose: the HTTP service
maps it to a 400 body clients can route on, and the CLI prints it as a
``field: reason`` line instead of a traceback.  It subclasses
:class:`ValueError`, so every pre-existing ``except ValueError`` path
(CLI error handling, tests) keeps working unchanged.

:func:`validate_run_spec` / :func:`validate_sweep_spec` go one step past
shape checking: they resolve every registry name (problem, method), bind
the problem parameter names to the resolved factory and check their
values, so a typo fails at submission time with the list of valid names —
not minutes later inside a queued job.
"""

from __future__ import annotations

import inspect

__all__ = ["SpecError", "validate_run_spec", "validate_sweep_spec"]


class SpecError(ValueError):
    """A spec payload failed validation.

    Parameters
    ----------
    reason:
        Human-readable explanation of the failure.
    field:
        Dotted path of the offending field (``"seed"``,
        ``"methods[1].overrides"``); ``None`` when the payload as a whole
        is malformed (e.g. not a JSON object).
    spec:
        Which spec kind was being validated (``"RunSpec"``/``"SweepSpec"``).
    """

    def __init__(
        self, reason: str, *, field: str | None = None, spec: str | None = None
    ) -> None:
        self.reason = str(reason)
        self.field = field
        self.spec = spec
        prefix = f"{spec}." if spec else ""
        location = f"{prefix}{field}: " if field else (f"{spec}: " if spec else "")
        super().__init__(f"{location}{self.reason}")

    def to_dict(self) -> dict:
        """JSON body of a service 400 response."""
        return {
            "error": "invalid_spec",
            "spec": self.spec,
            "field": self.field,
            "reason": self.reason,
            "message": str(self),
        }


def _check_registry(registry, name: str, field: str, spec: str) -> None:
    from repro.registry import UnknownNameError

    try:
        registry.get(name)
    except UnknownNameError as error:
        raise SpecError(str(error), field=field, spec=spec) from error


def _refuse(check, field: str, spec: str) -> None:
    """Run ``check()``; a ``ValueError``/``TypeError`` becomes a
    :class:`SpecError` on ``field``."""
    try:
        check()
    except SpecError:
        raise
    except (ValueError, TypeError) as error:
        raise SpecError(str(error), field=field, spec=spec) from error


def _check_params(registry, name: str, params: dict, field: str, spec: str) -> None:
    """Bind ``params`` to the signature of the factory registered as
    ``name``, then run its ``validate_params`` hook on them, if it has one.

    Nothing is constructed: building a circuit problem takes a while.  The
    built-in problems' hooks are the value checks their factories run, so
    the door and the run apply one rule.
    """
    if not params:
        return
    factory = registry.get(name)
    signature = inspect.signature(factory)
    try:
        signature.bind_partial(**params)
    except TypeError as error:
        accepted = ", ".join(
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )
        raise SpecError(
            f"{error} ({name!r} accepts: {accepted or 'no parameters'})",
            field=field,
            spec=spec,
        ) from error
    validator = getattr(factory, "validate_params", None)
    if validator is not None:
        _refuse(lambda: validator(**params), field, spec)


def _check_overrides(runner, overrides: dict, field: str, spec: str) -> None:
    """Run the method's own overrides validator, if it declares one.

    Method runners may expose a ``validate_overrides(overrides)``
    attribute — the config (and, for multi-fidelity methods, ladder)
    construction without the run.  Bad overrides — unknown field names, a
    stage-1 budget that cannot cover the pilot samples, an impossible rung
    schedule — therefore fail *at submission time* as a structured
    :class:`SpecError` instead of tripping the bare config assertion
    inside a queued job.
    """
    validator = getattr(runner, "validate_overrides", None)
    if validator is not None:
        _refuse(lambda: validator(overrides), field, spec)


def validate_run_spec(spec) -> None:
    """Resolve every registry name a :class:`RunSpec` references.

    Raises :class:`SpecError` (with the offending field) for unregistered
    problem/method names, for problem parameters the resolved factory does
    not accept (by name, or by value via its ``validate_params`` hook), and
    for overrides the resolved method itself rejects (via its
    ``validate_overrides`` hook).  Shape errors (unknown keys, wrong types)
    are already raised by ``RunSpec.from_dict`` itself.
    """
    from repro.api.registries import METHODS, PROBLEMS

    _check_registry(PROBLEMS, spec.problem, "problem", "RunSpec")
    _check_params(
        PROBLEMS, spec.problem, spec.problem_params, "problem_params", "RunSpec"
    )
    _check_registry(METHODS, spec.method, "method", "RunSpec")
    _check_overrides(
        METHODS.get(spec.method), spec.overrides, "overrides", "RunSpec"
    )


def validate_sweep_spec(spec) -> None:
    """Resolve every registry name a :class:`SweepSpec` references."""
    from repro.api.registries import METHODS, PROBLEMS

    for index, method in enumerate(spec.methods):
        _check_registry(
            METHODS, method.method, f"methods[{index}].method", "SweepSpec"
        )
        _check_overrides(
            METHODS.get(method.method),
            method.overrides,
            f"methods[{index}].overrides",
            "SweepSpec",
        )
    for index, problem in enumerate(spec.problems):
        field = f"problems[{index}].problem"
        _check_registry(PROBLEMS, problem.problem, field, "SweepSpec")
        _check_params(
            PROBLEMS,
            problem.problem,
            problem.problem_params,
            f"{field}_params",
            "SweepSpec",
        )
