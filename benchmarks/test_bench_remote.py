"""Remote streaming engine benchmark: serial vs HTTP worker fan-out.

Measures the fused refinement round two ways — local serial and remote
streaming dispatch — against real ``repro worker`` subprocesses, so the
numbers include genuine HTTP framing, JSON+base64 wire cost, and
process-level parallelism.

Two sections land in ``BENCH_remote.json`` at the repo root:

* ``sphere`` — a dispatch-dominated synthetic round.  Remote is expected
  to *lose* here; the measured per-row wire overhead calibrates the
  local-vs-remote crossover (the per-row simulation cost above which
  shipping rows to workers pays for itself).
* ``circuit`` — the same round on ``netlist_ota`` (stacked MNA/AC solves
  per row).  On multi-core hosts whose serial row cost sits above the
  calibrated crossover, streaming dispatch over 2+ workers must beat the
  fused serial path by >= 1.5x — the acceptance criterion.  Single-core
  hosts cannot parallelize anything, so (exactly like ``BENCH_engine``'s
  pool-supremacy guard) the assertion only applies where the crossover
  model says remote should win.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload and skip the absolute
speedup assertion.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.engine import RemoteEngine, SerialEngine
from repro.ledger import SimulationLedger
from repro.problems import make_netlist_ota_problem, make_sphere_problem
from repro.sampling import make_sampler
from repro.yieldsim import CandidateYieldState

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_CANDIDATES = 20
CPUS = os.cpu_count() or 1
N_WORKERS = max(2, min(CPUS, 4))
SPHERE_ROUND_GAIN = 8
SPHERE_ROUND_REPS = 5 if SMOKE else 40
CIRCUIT_ROUND_GAIN = 8
CIRCUIT_ROUND_REPS = 2 if SMOKE else 12
CHUNK_ROWS = 32
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_remote.json")


def _merge_bench(section: str, data) -> dict:
    """Read-modify-write one section of ``BENCH_remote.json``."""
    payload = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload[section] = data
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return payload


class _WorkerFleet:
    """Real ``repro worker`` subprocesses on ephemeral ports."""

    def __init__(self, n: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        self.procs = []
        self.urls = []
        for _ in range(n):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            self.procs.append(proc)
            banner = proc.stdout.readline()  # "repro worker listening on URL"
            self.urls.append(banner.strip().rsplit(" ", 1)[-1])

    def close(self):
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


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


def _bench_round(problem, sampler, engine, gain, reps):
    states = _build_states(problem, sampler, seed=0)
    gains = [gain] * N_CANDIDATES
    engine.refine_round(problem, states, gains)  # warm-up (ships the problem)
    started = time.perf_counter()
    for _ in range(reps):
        engine.refine_round(problem, states, gains)
    elapsed = time.perf_counter() - started
    sims = N_CANDIDATES * gain * reps
    return {"sims": sims, "elapsed_seconds": elapsed, "sims_per_sec": sims / elapsed}


def _bench_backends(problem, sampler, fleet, gain, reps):
    workers = ",".join(fleet.urls)
    engines = {
        "serial": SerialEngine(),
        "remote_streaming": RemoteEngine(workers=workers, chunk_rows=CHUNK_ROWS),
    }
    results = {}
    try:
        for name, engine in engines.items():
            results[name] = _bench_round(problem, sampler, engine, gain, reps)
    finally:
        for engine in engines.values():
            engine.close()
    return results


def _row_costs(results):
    return {
        name: stats["elapsed_seconds"] / stats["sims"]
        for name, stats in results.items()
    }


def test_remote_crossover_and_streaming_supremacy():
    fleet = _WorkerFleet(N_WORKERS)
    try:
        # -- sphere: dispatch-dominated, calibrates the wire overhead -----
        sphere = make_sphere_problem()
        sampler = make_sampler("pmc", sphere.variation)
        sphere_results = _bench_backends(
            sphere, sampler, fleet, SPHERE_ROUND_GAIN, SPHERE_ROUND_REPS
        )
        sphere_costs = _row_costs(sphere_results)
        # Per-row wire overhead: what remote pays on top of its share of
        # the (tiny) simulation work.
        wire_row_cost = max(
            sphere_costs["remote_streaming"] - sphere_costs["serial"] / N_WORKERS,
            1e-9,
        )
        # Remote wins once serial_row_cost > serial_row_cost/w + wire:
        crossover_row_cost = wire_row_cost / (1.0 - 1.0 / N_WORKERS)
        _merge_bench(
            "sphere",
            {
                "problem": sphere.name,
                "candidates": N_CANDIDATES,
                "round_gain": SPHERE_ROUND_GAIN,
                "round_reps": SPHERE_ROUND_REPS,
                "cpus": CPUS,
                "workers": N_WORKERS,
                "chunk_rows": CHUNK_ROWS,
                "smoke": SMOKE,
                "round": sphere_results,
                "wire_row_cost_seconds": wire_row_cost,
                "crossover_row_cost_seconds": crossover_row_cost,
            },
        )
        print(
            f"\nsphere round: serial {sphere_results['serial']['sims_per_sec']:,.0f}/s  "
            f"remote {sphere_results['remote_streaming']['sims_per_sec']:,.0f}/s  "
            f"wire {wire_row_cost * 1e6:.0f}us/row, "
            f"crossover {crossover_row_cost * 1e6:.0f}us/row"
        )

        # -- circuit: the regime remote dispatch targets -------------------
        circuit = make_netlist_ota_problem()
        sampler = make_sampler("pmc", circuit.variation)
        circuit_results = _bench_backends(
            circuit, sampler, fleet, CIRCUIT_ROUND_GAIN, CIRCUIT_ROUND_REPS
        )
        costs = _row_costs(circuit_results)
        streaming_speedup = (
            circuit_results["remote_streaming"]["sims_per_sec"]
            / circuit_results["serial"]["sims_per_sec"]
        )
        # Remote can only win with real parallel hardware (workers are
        # separate processes) and a row cost above the wire crossover.
        remote_should_win = (
            not SMOKE and CPUS >= 3 and costs["serial"] >= crossover_row_cost
        )
        _merge_bench(
            "circuit",
            {
                "problem": circuit.name,
                "candidates": N_CANDIDATES,
                "round_gain": CIRCUIT_ROUND_GAIN,
                "round_reps": CIRCUIT_ROUND_REPS,
                "cpus": CPUS,
                "workers": N_WORKERS,
                "chunk_rows": CHUNK_ROWS,
                "smoke": SMOKE,
                "round": circuit_results,
                "serial_row_cost_seconds": costs["serial"],
                "crossover_row_cost_seconds": crossover_row_cost,
                "row_cost_over_crossover": costs["serial"] / crossover_row_cost,
                "remote_should_win_here": remote_should_win,
                "speedup_streaming_vs_serial": streaming_speedup,
            },
        )
        print(
            f"circuit round: serial {circuit_results['serial']['sims_per_sec']:,.0f}/s  "
            f"streaming {circuit_results['remote_streaming']['sims_per_sec']:,.0f}/s"
        )
        print(
            f"row cost {costs['serial'] * 1e6:.0f}us vs crossover "
            f"{crossover_row_cost * 1e6:.0f}us; streaming "
            f"{streaming_speedup:.2f}x over serial"
        )
        print(f"[saved to {os.path.abspath(OUT_PATH)}]")

        if remote_should_win:
            assert streaming_speedup >= 1.5, (
                f"remote streaming only {streaming_speedup:.2f}x over serial "
                f"with {N_WORKERS} workers on a {CPUS}-core host; expected "
                ">= 1.5x on a circuit-priced round"
            )
        else:
            print(
                f"{CPUS}-core host / smoke={SMOKE}: remote cannot "
                "out-parallelize serial here; the >=1.5x streaming "
                "assertion applies on multi-core (CI) runners"
            )
    finally:
        fleet.close()
