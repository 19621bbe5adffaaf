"""Multi-run experiment settings (a thin adapter over :mod:`repro.sweep`).

The paper's protocol: "10 runs with independent random numbers have been
performed for all experiments and the results have been analyzed and
compared statistically."  That protocol is owned by the sweep layer —
:class:`~repro.sweep.spec.SweepSpec` grids executed by
:func:`~repro.sweep.executor.run_sweep` (serial or process-sharded,
resumable) — and this module keeps the historical settings on top of it:

* :class:`ExperimentSettings` — the legacy ``REPRO_*`` environment knobs,
  now a **deprecated compatibility path**: each knob maps onto a
  :class:`SweepSpec` field (see :meth:`ExperimentSettings.sweep_spec`).
  New code should build the spec directly (or use ``repro sweep``).
* :class:`RunRecord` / :class:`MethodSummary` — re-exported from their
  canonical home :mod:`repro.sweep.records`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.sweep.records import MethodSummary, RunRecord
from repro.sweep.spec import SweepSpec

__all__ = [
    "ExperimentSettings",
    "RunRecord",
    "MethodSummary",
    "ensure_method_specs",
]


def ensure_method_specs(methods):
    """Reject the pre-1.2 dict-of-closures ``methods`` form loudly.

    The experiment entry points used to take ``{label: run_fn}``; iterating
    a dict would silently yield its keys as bare registry names and drop
    the closures/overrides, so the break must be explicit.
    """
    if isinstance(methods, dict):
        raise TypeError(
            "methods is a sequence of MethodSpec entries (registry name + "
            "overrides); the pre-1.2 dict-of-closures form cannot express "
            "a sweep — register the closure as a method and pass "
            "MethodSpec(name, overrides={...}) instead"
        )
    return methods


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale of an experiment run.

    Environment knobs (deprecated compatibility path)
    -------------------------------------------------
    The pre-sweep harness was configured through ``REPRO_*`` environment
    variables.  :meth:`from_env` still honours them, and each maps onto a
    :class:`~repro.sweep.spec.SweepSpec` field — prefer setting those
    directly (or the matching ``repro sweep`` flags):

    =====================  =========================  ====================
    env knob               SweepSpec field            ``repro sweep`` flag
    =====================  =========================  ====================
    ``REPRO_FULL=1``       ``runs=10`` +              —
                           ``reference_n=50000`` +
                           ``max_generations=200``
    ``REPRO_RUNS=<n>``     ``runs``                   ``--runs``
    ``REPRO_REF_N=<n>``    ``reference_n``            ``--reference-n``
    ``REPRO_MAXGEN=<n>``   ``max_generations``        ``--max-generations``
    =====================  =========================  ====================
    """

    runs: int
    reference_n: int
    max_generations: int
    full: bool

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """Build settings from the (deprecated) REPRO_* environment knobs."""
        full = os.environ.get("REPRO_FULL", "0") == "1"
        runs = int(os.environ.get("REPRO_RUNS", "10" if full else "3"))
        reference_n = int(
            os.environ.get("REPRO_REF_N", "50000" if full else "20000")
        )
        max_generations = int(
            os.environ.get("REPRO_MAXGEN", "200" if full else "150")
        )
        return cls(
            runs=runs,
            reference_n=reference_n,
            max_generations=max_generations,
            full=full,
        )

    def sweep_spec(
        self,
        problems,
        methods,
        base_seed: int,
        **kwargs,
    ) -> SweepSpec:
        """These settings as a :class:`SweepSpec` over ``problems × methods``.

        ``problems`` / ``methods`` accept :class:`ProblemSpec` /
        :class:`MethodSpec` entries or the dict/str forms their
        ``from_dict`` understands; extra ``kwargs`` (``engine``,
        ``workers``, ``tag``, ...) pass through to the spec.
        """
        return SweepSpec(
            methods=tuple(methods),
            problems=tuple(problems),
            runs=self.runs,
            base_seed=base_seed,
            reference_n=self.reference_n,
            max_generations=self.max_generations,
            **kwargs,
        )

