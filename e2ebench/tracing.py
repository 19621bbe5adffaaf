"""Runtime span tracing around the public functions of each layer.

The tracer patches a fixed list of functions for the duration of a
``with Tracer(...)`` block and restores them on exit; nothing in the
library changes.  Every call becomes a span ``[layer, start, end, parent,
work]`` kept in memory (``parent`` indexes the enclosing span, -1 at the
top; ``work`` is the layer's own count: rows, samples, OCBA rounds).  A
layer's self time is the duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

import repro.core.moheco
import repro.engine.serial
import repro.mf.driver
from repro.compose.screeners import SurrogateScreener
from repro.engine.serial import SerialEngine
from repro.optim.de import DifferentialEvolution
from repro.problems.base import YieldProblem
from repro.sampling.acceptance import LinearMarginScreener
from repro.sampling.lhs import LatinHypercubeSampler
from repro.surrogate.rsb import ResponseSurfaceYieldModel

__all__ = ["ROOT", "Tracer", "layer_table"]

#: Layer of the benchmark's own root span around one workload iteration;
#: its self time is the loop bookkeeping no other layer claims.
ROOT = "core.other"


def _rows(args, result):
    """Rows of the first positional argument after ``self``."""
    return int(np.atleast_2d(args[1]).shape[0])


#: ``(layer, owner, attribute, work)`` — every function the tracer wraps.
#: Module-level owners are the modules whose *global name* the caller
#: looks up (``repro.core.moheco.ocba_sequential``, not the defining module).
PATCHES = [
    ("problems.feasibility", YieldProblem, "nominal_feasibility_batch", _rows),
    ("problems.feasibility", YieldProblem, "nominal_feasibility", lambda a, r: 1),
    ("problems.simulate", YieldProblem, "evaluate_pairs", _rows),
    ("sampling.draw", LatinHypercubeSampler, "draw", lambda a, r: int(a[1])),
    ("sampling.as_classify", LinearMarginScreener, "classify", _rows),
    ("sampling.as_update", LinearMarginScreener, "update", _rows),
    ("engine.refine_round", SerialEngine, "refine_round", None),
    ("engine.scatter", repro.engine.serial, "scatter_round", None),
    ("ocba", repro.core.moheco, "ocba_sequential", lambda a, r: int(r.rounds)),
    ("optim.propose", DifferentialEvolution, "propose", None),
    ("optim.local_search", repro.core.moheco, "nelder_mead_maximize", None),
    ("mf.rung_alloc", repro.mf.driver, "rung_allocation", None),
    ("compose.screen", SurrogateScreener, "screen", _rows),
    ("surrogate.fit", ResponseSurfaceYieldModel, "fit", _rows),
]

#: Every layer the tracer reports, root included, in table order.
LAYERS = list(dict.fromkeys(layer for layer, *_ in PATCHES)) + [ROOT]


class Tracer:
    """Collects spans while active; use as a context manager."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, layer, original, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (the benchmark's root span)."""
        return self._wrap(layer, fn, None)(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        for layer, owner, attribute, work in PATCHES:
            original = vars(owner)[attribute]
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, work))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """Per layer: ``calls``, ``self_s`` (span time minus children),
        ``total_s`` (span time, children included) and ``work``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {
            layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0} for layer in LAYERS
        }
        for (layer, start, end, _, work), children in zip(self.spans, child_time):
            entry = totals[layer]
            entry["calls"] += 1
            entry["self_s"] += end - start - children
            entry["total_s"] += end - start
            entry["work"] += work
        return totals

    def children_of(self, layer: str) -> dict[str, int]:
        """Calls per layer whose direct parent span is a ``layer`` span."""
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == layer:
                counts[name] += 1
        return dict(counts)

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip), times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, (layer, start, end, parent, work) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": layer,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                            "work": work,
                        }
                    )
                    + "\n"
                )


def layer_table(totals: dict[str, dict], run_s: float) -> str:
    """Layer / self s / share / µs per work unit, as aligned text."""
    lines = [f"{'layer':<22}{'calls':>9}{'self s':>10}{'share':>8}{'work':>10}{'us/work':>10}"]
    for layer in LAYERS:
        entry = totals[layer]
        if not entry["calls"]:
            continue
        share = entry["self_s"] / run_s if run_s > 0 else 0.0
        per = 1e6 * entry["self_s"] / entry["work"] if entry["work"] else float("nan")
        lines.append(
            f"{layer:<22}{entry['calls']:>9}{entry['self_s']:>10.3f}{share:>8.1%}"
            f"{entry['work']:>10}{per:>10.1f}"
        )
    return "\n".join(lines)
