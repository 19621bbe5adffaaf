"""Execution-engine micro-benchmark: per-candidate loop vs fused vs process-pool.

Measures simulation throughput (sims/sec) of the OCBA hot path on the
synthetic sphere problem, three ways (the ``legacy`` arm is a bench-local
loop of one ``CandidateYieldState.refine`` per candidate, the path the
engines fuse):

* ``round``: one 20-candidate OCBA refinement round dispatched through
  each backend — the unit the engine layer fuses.  This is where the
  fused :class:`~repro.engine.serial.SerialEngine` must beat the
  per-candidate loop by >= 3x.
* ``ocba``: a full ``ocba_sequential`` run (pilot + allocation rounds),
  which dilutes the dispatch win with the shared per-candidate RNG-stream
  draws and the allocation maths that every backend pays identically.

The process pool is expected to *lose* on the synthetic problem — its IPC
overhead only pays off when each simulation is expensive — and is
reported so the trade-off stays visible.  The ``circuit`` section runs
the same fused round on the circuit-priced ``netlist_ota`` problem
(batched MNA/AC solves, the costliest rows of the built-in circuits),
where, on any host with 2 or more CPUs, the process pool must be at
least as fast as the serial dispatch.

Results land in ``BENCH_engine.json`` at the repo root (each test merges
its section) so successive PRs can track the trajectory.  Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job
does) to shrink the workload and skip the absolute speedup assertion,
which is only meaningful on an unloaded machine at full scale.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.engine import EvaluationEngine, ProcessPoolEngine, SerialEngine
from repro.ledger import SimulationLedger
from repro.ocba import ocba_sequential
from repro.problems import make_netlist_ota_problem, make_sphere_problem
from repro.sampling import make_sampler
from repro.yieldsim import CandidateYieldState

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_CANDIDATES = 20
ROUND_GAIN = 3  # samples per candidate per round: the OCBA-increment regime
ROUND_REPS = 40 if SMOKE else 400
OCBA_REPS = 3 if SMOKE else 20
# Circuit-priced section: bigger rounds (the pool needs rows to shard),
# fewer reps (each row is a stacked multi-frequency MNA solve).  On a
# single-CPU host the pool is benchmarked with 2 workers for the record,
# but it cannot beat serial there (no parallel hardware), so the
# supremacy assertion applies only on hosts with 2 or more CPUs.
CIRCUIT_ROUND_GAIN = 8
CIRCUIT_ROUND_REPS = 3 if SMOKE else 20
CPUS = os.cpu_count() or 1
CIRCUIT_WORKERS = max(2, min(CPUS, 4))
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_engine.json")


class _PerCandidateLoop(EvaluationEngine):
    """The unfused reference: one full draw-screen-simulate per candidate."""

    def refine_round(self, problem, states, gains, category=None):
        for state, gain in zip(states, gains):
            if gain > 0:
                state.refine(int(gain), category)


def _merge_bench(section: str, data) -> dict:
    """Read-modify-write one section of ``BENCH_engine.json``."""
    payload = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload[section] = data
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return payload


def _build_states(problem, sampler, seed):
    rng = np.random.default_rng(seed)
    ledger = SimulationLedger()
    xs = problem.space.sample(N_CANDIDATES, rng)
    return [
        CandidateYieldState(
            problem, x, sampler, np.random.default_rng(seed * 1000 + i), ledger, "stage1"
        )
        for i, x in enumerate(xs)
    ]


def _bench_round(problem, sampler, engine, gain=ROUND_GAIN, reps=ROUND_REPS):
    """Throughput of one fused 20-candidate refinement round."""
    states = _build_states(problem, sampler, seed=0)
    gains = [gain] * N_CANDIDATES
    engine.refine_round(problem, states, gains)  # warm-up (pools spin up here)
    started = time.perf_counter()
    for _ in range(reps):
        engine.refine_round(problem, states, gains)
    elapsed = time.perf_counter() - started
    sims = N_CANDIDATES * gain * reps
    return {"sims": sims, "elapsed_seconds": elapsed, "sims_per_sec": sims / elapsed}


def _bench_ocba(problem, sampler, engine):
    """Throughput of full OCBA stage-1 runs (paper settings)."""
    prebuilt = [_build_states(problem, sampler, seed=r) for r in range(OCBA_REPS)]
    total = 0
    started = time.perf_counter()
    for states in prebuilt:
        report = ocba_sequential(states, total_budget=700, n0=15, delta=50, engine=engine)
        total += report.total_samples
    elapsed = time.perf_counter() - started
    return {"sims": total, "elapsed_seconds": elapsed, "sims_per_sec": total / elapsed}


def test_engine_throughput():
    problem = make_sphere_problem()
    sampler = make_sampler("pmc", problem.variation)
    engines = {
        "legacy": _PerCandidateLoop(),
        "serial": SerialEngine(),
        "process": ProcessPoolEngine(workers=2),
    }
    payload = {
        "problem": problem.name,
        "cpus": CPUS,
        "candidates": N_CANDIDATES,
        "round_gain": ROUND_GAIN,
        "round_reps": ROUND_REPS,
        "ocba_reps": OCBA_REPS,
        "smoke": SMOKE,
        "round": {},
        "ocba": {},
    }
    try:
        for name, engine in engines.items():
            payload["round"][name] = _bench_round(problem, sampler, engine)
            payload["ocba"][name] = _bench_ocba(problem, sampler, engine)
    finally:
        for engine in engines.values():
            engine.close()

    round_speedup = (
        payload["round"]["serial"]["sims_per_sec"]
        / payload["round"]["legacy"]["sims_per_sec"]
    )
    ocba_speedup = (
        payload["ocba"]["serial"]["sims_per_sec"]
        / payload["ocba"]["legacy"]["sims_per_sec"]
    )
    payload["speedup_serial_vs_legacy"] = {
        "round": round_speedup,
        "ocba": ocba_speedup,
    }

    _merge_bench("sphere", payload)
    print(f"\n[saved to {os.path.abspath(OUT_PATH)}]")
    for kind in ("round", "ocba"):
        line = "  ".join(
            f"{name}: {payload[kind][name]['sims_per_sec']:,.0f}/s"
            for name in engines
        )
        print(f"{kind:5s} {line}")
    print(
        f"serial-vs-legacy speedup: round {round_speedup:.2f}x, "
        f"ocba {ocba_speedup:.2f}x"
    )

    # The fused engine must always win; the 3x bar applies to the fused
    # dispatch at full scale on a quiet machine (acceptance criterion).
    assert round_speedup > 1.0
    assert ocba_speedup > 1.0
    if not SMOKE:
        assert round_speedup >= 3.0, (
            f"fused round dispatch only {round_speedup:.2f}x over the "
            "per-candidate loop; expected >= 3x"
        )


@pytest.mark.benchmark(group="engine")
def test_serial_round_dispatch(benchmark):
    """pytest-benchmark guard on the fused round (for component tracking)."""
    problem = make_sphere_problem()
    sampler = make_sampler("pmc", problem.variation)
    states = _build_states(problem, sampler, seed=1)
    engine = SerialEngine()
    gains = [ROUND_GAIN] * N_CANDIDATES

    benchmark(engine.refine_round, problem, states, gains)
    assert all(state.n > 0 for state in states)


def test_circuit_priced_round():
    """Serial vs process on the netlist OTA's 160-row fused round.

    The workload is the fused refinement round on ``netlist_ota`` — every
    row a stacked multi-frequency MNA/AC solve.  The test records the
    serial per-row cost and, on any host with 2 or more CPUs (CI), requires
    the process pool to be at least as fast as the fused serial dispatch.
    """
    problem = make_netlist_ota_problem()
    sampler = make_sampler("pmc", problem.variation)
    rows_per_round = N_CANDIDATES * CIRCUIT_ROUND_GAIN
    engines = {
        "serial": SerialEngine(),
        "process": ProcessPoolEngine(workers=CIRCUIT_WORKERS),
    }
    results = {}
    try:
        for name, engine in engines.items():
            results[name] = _bench_round(
                problem,
                sampler,
                engine,
                gain=CIRCUIT_ROUND_GAIN,
                reps=CIRCUIT_ROUND_REPS,
            )
    finally:
        for engine in engines.values():
            engine.close()

    serial = results["serial"]
    row_cost = serial["elapsed_seconds"] / serial["sims"]
    payload = {
        "problem": problem.name,
        "candidates": N_CANDIDATES,
        "round_gain": CIRCUIT_ROUND_GAIN,
        "round_reps": CIRCUIT_ROUND_REPS,
        "cpus": CPUS,
        "workers": CIRCUIT_WORKERS,
        "smoke": SMOKE,
        "round": results,
        "serial_row_cost_seconds": row_cost,
        "speedup_process_vs_serial": results["process"]["sims_per_sec"]
        / serial["sims_per_sec"],
    }
    _merge_bench("circuit", payload)

    line = "  ".join(
        f"{name}: {results[name]['sims_per_sec']:,.0f}/s" for name in engines
    )
    print(f"\ncircuit round ({rows_per_round} rows) {line}")
    print(
        f"serial row cost {row_cost * 1e6:.0f}us; "
        f"process speedup {payload['speedup_process_vs_serial']:.2f}x"
    )

    # With real parallel hardware the process backend must not lose to
    # serial.  On a single-CPU host a pool loss is the expected outcome.
    if CPUS >= 2:
        assert results["process"]["sims_per_sec"] >= serial["sims_per_sec"], (
            "process pool slower than fused serial on the circuit-priced "
            f"round: {results['process']['sims_per_sec']:,.0f}/s vs "
            f"{serial['sims_per_sec']:,.0f}/s"
        )
