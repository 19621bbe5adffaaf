"""Judge the MOHECO extensions against ``moheco`` from a sweep store.

    repro sweep --spec benchmarks/specs/methods_as_off.json --workers 2 \\
        --out methods_as_off.jsonl --no-tables
    python benchmarks/methods_audit.py methods_as_off.jsonl \\
        > benchmarks/results/methods_as_off.txt

The store's first method is the baseline and every other method an
extension.  Per problem and method the table gives the mean (standard
error) and worst reference yield, the mean (standard error) and range of
charged simulations, and the mean wall-clock of ``optimize`` per run.

The rule, fixed before the audit ran: an extension passes on a problem
only if it beats the baseline by more than 2 standard errors on mean
charged simulations (lower) or on mean reference yield (higher), and
loses by more than 2 on neither.  It passes the audit only if it passes on
every problem.  The reading is unpaired: the standard error of a
difference of two means is ``sqrt(se_a**2 + se_b**2)``, each ``se`` the
sample standard deviation (``ddof=1``) over ``sqrt(runs)``.
"""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

from repro.experiments.tables import format_generic
from repro.sweep.records import RunRecord
from repro.sweep.store import ResultStore


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean (``ddof=1``)."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def compare(baseline: list[RunRecord], extension: list[RunRecord]) -> tuple[bool, str]:
    """The rule's verdict on one problem, with the differences it read."""
    wins, losses, notes = [], [], []
    for name, read, lower_is_better, fmt in (
        ("sims", lambda r: r.n_simulations, True, "{:+,.0f} vs 2 SE {:,.0f}"),
        ("reference", lambda r: r.reference_yield, False, "{:+.4f} vs 2 SE {:.4f}"),
    ):
        base_mean, base_se = mean_se(np.array([read(r) for r in baseline], dtype=float))
        ext_mean, ext_se = mean_se(np.array([read(r) for r in extension], dtype=float))
        diff = ext_mean - base_mean
        bar = 2.0 * float(np.hypot(base_se, ext_se))
        gain = -diff if lower_is_better else diff
        wins.append(gain > bar)
        losses.append(gain < -bar)
        notes.append(f"{name} " + fmt.format(diff, bar))
    passed = any(wins) and not any(losses)
    return passed, ("passes" if passed else "fails") + ": " + "; ".join(notes)


def audit(store: ResultStore) -> str:
    spec = store.spec_dict
    methods = [m.get("label") or m["method"] for m in spec["methods"]]
    problems = [p.get("label") or p["problem"] for p in spec["problems"]]
    records = list(store.completed.values())
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    lines = [
        f"Methods audit: {len(records)} runs, {spec['runs']} per cell, base seed "
        f"{spec['base_seed']}, {spec['reference_n']}-sample reference MC",
        f"Host: {os.cpu_count()} CPUs, {platform.machine()}, Python "
        f"{platform.python_version()}, numpy {np.__version__}, "
        f"OPENBLAS_NUM_THREADS={threads}",
        "Rule: an extension passes on a problem if it beats "
        f"{methods[0]} by more than 2 SE (unpaired) on mean charged sims or",
        "mean reference yield and loses by more than 2 SE on neither; it passes "
        "the audit if it passes on every problem.",
    ]
    passes = {method: 0 for method in methods[1:]}
    for problem in problems:
        cell = {
            method: [r for r in records if r.problem == problem and r.method == method]
            for method in methods
        }
        rows = []
        for method in methods:
            runs = cell[method]
            reference = np.array([r.reference_yield for r in runs])
            sims = np.array([r.n_simulations for r in runs], dtype=float)
            wall = np.array([r.wall_seconds for r in runs])
            ref_mean, ref_se = mean_se(reference)
            sim_mean, sim_se = mean_se(sims)
            verdict = "baseline"
            if method != methods[0]:
                passed, verdict = compare(cell[methods[0]], runs)
                passes[method] += passed
            rows.append([
                method,
                str(len(runs)),
                f"{ref_mean:.4f} ({ref_se:.4f}); {reference.min():.4f}",
                f"{sim_mean:,.0f} ({sim_se:,.0f}); {sims.min():,.0f}-{sims.max():,.0f}",
                f"{wall.mean():.2f} s",
                verdict,
            ])
        lines += ["", format_generic(
            problem,
            ["method", "runs", "reference: mean (SE); worst",
             "charged sims: mean (SE); range", "wall-clock/run", "verdict"],
            rows,
        )]
    lines.append("")
    for method, count in passes.items():
        overall = "passes" if count == len(problems) else "fails"
        lines.append(
            f"{method}: passes on {count} of {len(problems)} problems; "
            f"{overall} the audit"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python benchmarks/methods_audit.py STORE.jsonl")
    print(audit(ResultStore.load(sys.argv[1])))
