"""Execution-engine micro-benchmark: per-candidate loop vs fused serial.

Measures simulation throughput (sims/sec) of the OCBA hot path on the
synthetic sphere problem, two ways (the ``legacy`` arm is a bench-local
loop of one ``CandidateYieldState.refine`` per candidate, the path the
engine fuses):

* ``round``: one 20-candidate OCBA refinement round dispatched through
  each arm — the unit the engine fuses.  This is where the fused
  :class:`~repro.engine.serial.SerialEngine` must beat the per-candidate
  loop by >= 3x.
* ``ocba``: a full ``ocba_sequential`` run (pilot + allocation rounds),
  which dilutes the dispatch win with the shared per-candidate RNG-stream
  draws and the allocation maths that both arms pay identically.
  ``ocba_sequential`` runs every round on ``SerialEngine``, so each arm
  is swapped in as ``SerialEngine.refine_round`` for its runs and the
  fused template is restored afterwards.

Results land in ``BENCH_engine.json`` at the repo root (each test merges
its section) so successive PRs can track the trajectory.  Set
``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the workload
and skip the absolute 3x assertion, which is only meaningful on an
unloaded machine at full scale.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.engine import SerialEngine
from repro.ledger import SimulationLedger
from repro.ocba import ocba_sequential
from repro.problems import make_sphere_problem
from repro.sampling import make_sampler
from repro.yieldsim import CandidateYieldState

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_CANDIDATES = 20
ROUND_GAIN = 3  # samples per candidate per round: the OCBA-increment regime
ROUND_REPS = 40 if SMOKE else 400
OCBA_REPS = 3 if SMOKE else 20
CPUS = os.cpu_count() or 1
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_engine.json")


class _PerCandidateLoop:
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


def _bench_round(problem, sampler, engine):
    """Throughput of one fused 20-candidate refinement round."""
    states = _build_states(problem, sampler, seed=0)
    gains = [ROUND_GAIN] * N_CANDIDATES
    engine.refine_round(problem, states, gains)  # warm-up
    started = time.perf_counter()
    for _ in range(ROUND_REPS):
        engine.refine_round(problem, states, gains)
    elapsed = time.perf_counter() - started
    sims = N_CANDIDATES * ROUND_GAIN * ROUND_REPS
    return {"sims": sims, "elapsed_seconds": elapsed, "sims_per_sec": sims / elapsed}


def _bench_ocba(problem, sampler, engine):
    """Throughput of full OCBA stage-1 runs (paper settings), every round
    through ``engine``'s ``refine_round``."""
    prebuilt = [_build_states(problem, sampler, seed=r) for r in range(OCBA_REPS)]
    total = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SerialEngine, "refine_round", type(engine).refine_round)
        started = time.perf_counter()
        for states in prebuilt:
            report = ocba_sequential(states, total_budget=700, n0=15, delta=50)
            total += report.total_samples
        elapsed = time.perf_counter() - started
    return {"sims": total, "elapsed_seconds": elapsed, "sims_per_sec": total / elapsed}


def test_engine_throughput():
    problem = make_sphere_problem()
    sampler = make_sampler("pmc", problem.variation)
    engines = {"legacy": _PerCandidateLoop(), "serial": SerialEngine()}
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
    for name, engine in engines.items():
        payload["round"][name] = _bench_round(problem, sampler, engine)
        payload["ocba"][name] = _bench_ocba(problem, sampler, engine)

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
