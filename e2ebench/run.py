"""End-to-end benchmark of MOHECO at the paper's configuration.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper_circuits --seed 11 --seconds 30 --trace 0

One process, serial engine, closed loop: a workload iteration is one
``optimize()`` call after another (two for ``paper_circuits``, three for
``ota_tight``) at one sub-seed.  A run makes
``round(seconds / iteration_s)`` iterations at the sub-seeds
``1000 * seed + i``: one seed's optimizer trajectory does a seed-dependent
amount of OCBA work, and several short trajectories average it out.

``--trace 0`` reports the end-to-end metrics: the mean iteration
wall-clock at the reference host speed (``run_s``, see ``PROBE_REF_S``;
iterations run different sub-seeds, so the mean is what averages their
work), charged simulations per iteration, the mean
reference yield of the returned designs, set-up time and peak memory.
Their ratio, simulations per second, is printed, not reported: it adds no
information and compounds the spread of both.  ``--trace 1`` runs the
first half of those iterations untraced, then traced, and reports
per-layer metrics from spans around the library's public functions (see
``tracing.py``).

Every iteration is checked: the first call of iteration 0 is replayed and
must reproduce its result identity (sha256 of
``MOHECOResult.identity_dict()``), a traced iteration must reproduce the
untraced one's, the ledger's categories must sum to the charged total, no
call may return a design whose reference yield is 1, a ``memetic`` call
must promote to stage 2 and run the local search, and every other call
must not stop on 100 % yield.  Failed iterations count into ``failed``.

Human-readable lines go to standard output first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Results (with the
host record), the span dump and the per-layer table are also written under
``.e2ebench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench"

#: Plain-MC samples behind ``ref_yield`` (fixed stream, outside the timed region).
REF_SAMPLES = 5_000
REF_SEED = 2**32 - 1
#: ``run_s`` and ``setup_s`` are rescaled to a host on which :func:`probe`
#: takes this long.  On the shared reference host, the same work varies by
#: up to 1.5x in wall-clock between phases that last minutes, while it
#: stays steady within one run; the probe, timed around every measurement,
#: tracks the phase.  The raw wall-clock is printed.
PROBE_REF_S = 0.1
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Ledger categories every charged simulation must fall into.
CATEGORIES = ("feasibility", "stage1", "stage2", "local_search")

#: Child process timing ``import`` + problem construction for one workload.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
for call in workloads.WORKLOADS[{name!r}].runs:
    workloads.build(call.problem)
print(time.perf_counter() - start)
"""


def host_record() -> dict:
    """CPU count and model, library versions and load at the start of the run."""
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup(name: str) -> list[float]:
    """Seconds to import the library and build the problems, fresh, each time."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def probe() -> float:
    """Seconds of a fixed host-speed probe: the best of three passes.

    The probe is the benchmark's own code, so a faster library does not
    speed it up.  It mixes the two kinds of work an iteration does: an
    interpreted loop, and column-wise scipy inverse-CDF calls with small
    least-squares solves.
    """
    import numpy as np
    from scipy.stats import norm

    rng = np.random.default_rng(0)
    u = rng.random((400, 180))
    a, b = rng.normal(size=(120, 61)), rng.normal(size=(120, 4))
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(600_000):
            total += i * i % 7
        for column in u.T:
            norm.ppf(column)
        for _ in range(60):
            np.linalg.lstsq(a, b, rcond=None)
        passes.append(time.perf_counter() - start)
    return min(passes)


def at_reference_speed(seconds: float, probes) -> float:
    """``seconds`` measured while :func:`probe` took ``probes``, rescaled
    to a host on which it takes ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def identity_hash(results) -> str:
    payload = json.dumps([r.identity_dict() for r in results], sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def ledger_totals(results) -> dict:
    """Summed ledger columns of one iteration's results."""
    totals = {category: 0 for category in CATEGORIES}
    totals.update(charged=0, screened_out=0, pruned=0, other=0)
    for result in results:
        ledger = result.ledger
        for category, count in ledger.by_category().items():
            key = category if category in CATEGORIES else "other"
            totals[key] += count
        totals["charged"] += ledger.total
        totals["screened_out"] += ledger.screened_out
        totals["pruned"] += ledger.pruned
    return totals


def iteration_problems(results, calls) -> list[str]:
    """Correctness problems of one iteration that need no reference."""
    problems = []
    for call, result in zip(calls, results):
        by_category = result.ledger.by_category()
        if set(by_category) - set(CATEGORIES):
            problems.append(f"unexpected ledger categories {sorted(by_category)}")
        if sum(by_category.get(c, 0) for c in CATEGORIES) != result.ledger.total:
            problems.append("ledger categories do not sum to the charged total")
        if result.n_simulations != result.ledger.total:
            problems.append("n_simulations differs from ledger.total")
        if call.memetic:
            # The call exists to measure stage 2 and the local search; a
            # 100 % stop after the search (the last generation) cuts no work.
            if not any(record.stage2_count for record in result.history):
                problems.append(f"{call.problem}: no candidate reached stage 2")
            if not any(record.local_search_fired for record in result.history):
                problems.append(f"{call.problem}: the local search did not run")
        elif result.reason == "yield_100":
            problems.append(f"{call.problem}: stopped on yield_100 (degenerate target)")
    return problems


class Runner:
    """Iterations of one workload: iteration ``i`` runs at sub-seed ``1000 * seed + i``.

    The number of iterations is ``round(seconds / workload.iteration_s)``,
    fixed before anything is timed, so every count a run reports depends
    on the seed and ``--seconds`` alone.
    """

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.count = max(1, round(seconds / workload.iteration_s))

    def sub_seed(self, index: int) -> int:
        return 1000 * self.seed + index

    def iterate(self, optimize, index: int, wrap=None, calls=None):
        """Run iteration ``index``: ``(seconds, results)``; ``wrap`` times it instead."""
        from workloads import build

        calls = calls or self.workload.runs
        problems = [build(call.problem) for call in calls]
        seed = self.sub_seed(index)

        def body():
            return [
                optimize(problem, call.method, seed=seed, engine="serial", **call.overrides())
                for problem, call in zip(problems, calls)
            ]

        if wrap is not None:
            return None, wrap(body)
        start = time.perf_counter()
        results = body()
        return time.perf_counter() - start, results


def reference_yield(problem: str, best_x, n: int) -> float:
    """Plain-MC yield at ``best_x`` on a fixed sample stream."""
    import numpy as np
    from repro.yieldsim import reference_yield as plain_mc
    from workloads import build

    return plain_mc(build(problem), best_x, n=n, rng=np.random.default_rng(REF_SEED)).value


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, optimize, report) -> tuple[dict, int, int]:
    workload = runner.workload
    probes = [probe()]
    setups = measure_setup(workload.name)
    probes.append(probe())
    setup_s = at_reference_speed(statistics.median(setups), probes)
    times, scaled, charged, designs, reasons, failed = [], [], [], [], set(), set()
    for index in range(runner.count):
        gc.collect()
        try:
            elapsed, results = runner.iterate(optimize, index)
        except Exception as error:  # an iteration that raises ends the run
            report(f"iteration {index} raised {error!r}")
            return {}, index + 1, index + 1
        probes.append(probe())
        scaled.append(at_reference_speed(elapsed, probes[-2:]))
        for problem in iteration_problems(results, workload.runs):
            report(f"iteration {index}: {problem}")
            failed.add(index)
        if index == 0:
            first_hash = identity_hash(results[:1])
        times.append(elapsed)
        charged.append(ledger_totals(results)["charged"])
        reasons.update(r.reason for r in results)
        designs += [
            (index, call.problem, r.best_x, r.best_yield)
            for call, r in zip(workload.runs, results)
        ]

    # Determinism: the first call of iteration 0 again, untimed, must
    # reproduce its result identity.
    _, replay = runner.iterate(optimize, 0, calls=workload.runs[:1])
    if identity_hash(replay) != first_hash:
        report("iteration 0: replay identity hash differs from the first run")
        failed.add(0)

    n = max(REF_SAMPLES // len(designs), 500)
    refs = [reference_yield(problem, x, n) for _, problem, x, _ in designs]
    gaps = [best - ref for (_, _, _, best), ref in zip(designs, refs)]
    for (index, problem, *_), ref in zip(designs, refs):
        if ref >= 1.0:
            report(f"iteration {index}: {problem} reference yield 1.0 (degenerate target)")
            failed.add(index)
    report(f"iterations {runner.count}, sub-seeds {runner.sub_seed(0)}.., "
           f"wall-clock each {[round(t, 3) for t in times]}, "
           f"setup wall-clock each {[round(t, 3) for t in setups]}")
    report(f"probe each {[round(p, 4) for p in probes]} (reference {PROBE_REF_S})")
    report(f"identity of iteration 0 {first_hash[:16]}, charged each {charged}")
    report(f"reasons {sorted(reasons)}, ref_yield each {[round(r, 4) for r in refs]}, "
           f"yield_gap {statistics.fmean(gaps):+.4f} (mean best_yield - ref_yield)")
    report(f"wall-clock mean {statistics.fmean(times):.3f} s, "
           f"sims_per_s {sum(charged) / sum(times):.1f} (charged / wall-clock)")
    metrics = {
        "run_s": metric(statistics.fmean(scaled), "s"),
        "charged_sims": metric(statistics.fmean(charged), "count"),
        "ref_yield": metric(statistics.fmean(refs), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return metrics, runner.count, len(failed)


def per_layer(runner, optimize, report, run_id: str) -> tuple[dict, int, int]:
    from tracing import ROOT as ROOT_LAYER
    from tracing import Tracer, layer_table

    workload = runner.workload
    # Half the end-to-end iteration count, run twice: untraced, then traced.
    indices = range(max(1, runner.count // 2))
    untraced_s, results, traced, failed = 0.0, [], [], set()
    for index in indices:
        gc.collect()
        elapsed, outcome = runner.iterate(optimize, index)
        untraced_s += elapsed
        results.append(outcome)
    with Tracer(run_id) as tracer:
        for index in indices:
            gc.collect()
            _, outcome = runner.iterate(
                optimize, index, wrap=lambda body: tracer.span(ROOT_LAYER, body)
            )
            traced.append(outcome)
    for index, plain, outcome in zip(indices, results, traced):
        problems = (iteration_problems(plain, workload.runs)
                    + iteration_problems(outcome, workload.runs))
        if identity_hash(outcome) != identity_hash(plain):
            problems.append("traced identity differs from the untraced one")
        for problem in problems:
            report(f"iteration {index}: {problem}")
            failed.add(index)

    # Every layer call must happen inside a root span: a top-level span of
    # any other layer would be time the traced run_s does not cover.
    roots = [layer for layer, _, _, parent, _ in tracer.spans if parent == -1]
    if roots != [ROOT_LAYER] * len(indices):
        report(f"top-level spans {sorted(set(roots))} x {len(roots)}, "
               f"expected {ROOT_LAYER} x {len(indices)}")
        failed.update(indices)
    totals = tracer.layer_totals()
    traced_s = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == -1)

    table = layer_table(totals, traced_s)
    report(f"traced run_s {traced_s:.3f} (untraced {untraced_s:.3f}), {len(tracer.spans)} spans")
    for line in table.splitlines():
        report(line)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{runner.seed}"
    tracer.dump(f"{stem}-spans.jsonl.gz")
    Path(f"{stem}-layers.txt").write_text(table + "\n")

    def seconds(layer):
        return totals[layer]["self_s"]

    def per_row(layer):
        entry = totals[layer]
        return 1e6 * entry["self_s"] / entry["work"] if entry["work"] else 0.0

    ledger = ledger_totals([r for outcome in traced for r in outcome])
    mc_sims = ledger["stage1"] + ledger["stage2"] + ledger["local_search"]
    screened = ledger["screened_out"]
    screen_rows = totals["compose.screen"]["work"]
    refine_rounds = totals["engine.refine_round"]["calls"]
    metrics = {
        "problems.feasibility_s": metric(seconds("problems.feasibility"), "s"),
        "problems.feasibility_rows": metric(totals["problems.feasibility"]["work"], "count"),
        "problems.feasibility_us_per_row": metric(per_row("problems.feasibility"), "us"),
        "problems.simulate_s": metric(seconds("problems.simulate"), "s"),
        "problems.simulate_rows": metric(totals["problems.simulate"]["work"], "count"),
        "problems.simulate_us_per_row": metric(per_row("problems.simulate"), "us"),
        "sampling.draw_s": metric(seconds("sampling.draw"), "s"),
        "sampling.draw_rows": metric(totals["sampling.draw"]["work"], "count"),
        "sampling.draw_us_per_row": metric(per_row("sampling.draw"), "us"),
        "sampling.as_update_s": metric(seconds("sampling.as_update"), "s"),
        "sampling.as_classify_s": metric(seconds("sampling.as_classify"), "s"),
        "sampling.as_screened_frac": metric(
            screened / (screened + mc_sims) if screened + mc_sims else 0.0, "ratio"
        ),
        "engine.rounds": metric(refine_rounds, "count"),
        "engine.rows_per_round": metric(
            totals["problems.simulate"]["work"] / refine_rounds if refine_rounds else 0.0,
            "count",
        ),
        "engine.refine_round_s": metric(seconds("engine.refine_round"), "s"),
        "engine.scatter_s": metric(seconds("engine.scatter"), "s"),
        "ocba.calls": metric(totals["ocba"]["calls"], "count"),
        "ocba.rounds": metric(totals["ocba"]["work"], "count"),
        "ocba.alloc_s": metric(seconds("ocba"), "s"),
        "optim.propose_s": metric(seconds("optim.propose"), "s"),
        # The search's own self time is Nelder-Mead bookkeeping (milliseconds);
        # what it costs the run is its span time, the n_max-sample
        # evaluations it triggers included.
        "optim.local_search_s": metric(totals["optim.local_search"]["total_s"], "s"),
        "optim.local_search_evals": metric(
            tracer.children_of("optim.local_search").get("problems.feasibility", 0),
            "count",
        ),
        "mf.rungs": metric(
            sum(
                len(entry["rungs"])
                for outcome in traced
                for r in outcome
                for entry in (r.fidelity_trace or [])
            ),
            "count",
        ),
        "mf.rung_alloc_s": metric(seconds("mf.rung_alloc"), "s"),
        "compose.screen_s": metric(seconds("compose.screen"), "s"),
        "compose.pruned_frac": metric(
            ledger["pruned"] / screen_rows if screen_rows else 0.0, "ratio"
        ),
        "surrogate.fit_s": metric(seconds("surrogate.fit"), "s"),
        **{
            f"ledger.{column}": metric(ledger[column], "count")
            for column in (*CATEGORIES, "screened_out", "pruned")
        },
        "core.other_s": metric(seconds(ROOT_LAYER), "s"),
        "trace.run_s": metric(traced_s, "s"),
        "trace.overhead_frac": metric(traced_s / untraced_s - 1.0, "ratio"),
    }
    layer_sum = sum(entry["self_s"] for entry in totals.values())
    report(f"layer self times incl. {ROOT_LAYER}: {layer_sum:.6f} s "
           f"= trace.run_s {traced_s:.6f} s")
    return metrics, 2 * len(indices), 2 * len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; sets the iteration count, "
                        "round(seconds / iteration_s), at least 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread per process: the benchmark measures the serial engine.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    if not (SRC / "repro").is_dir():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from repro import optimize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    host = host_record()

    def report(line: str) -> None:
        print(f"[{workload.name} seed={seed}] {line}", flush=True)

    report(f"host {json.dumps(host)}")
    runner = Runner(workload, seed, args.seconds)
    if args.trace:
        run_id = f"{workload.name}-{seed}-{os.getpid()}"
        metrics, attempted, failed = per_layer(runner, optimize, report, run_id)
    else:
        metrics, attempted, failed = end_to_end(runner, optimize, report)
    for name, entry in metrics.items():
        report(f"{name} = {entry['value']:.6g} {entry['unit']}")
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "host": host, **summary}
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
