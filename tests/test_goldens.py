"""Pinned result identities of every shipped MOHECO-family method.

``tests/goldens/identity.json`` holds the sha256 of
``MOHECOResult.identity_dict()`` for each method x circuit problem below
(every MOHECO-family method on all three circuits, except that
``fixed_budget_screened`` is pinned on the folded cascode only, plus
``moheco`` with acceptance sampling off on both paper circuits), produced
by this file run as a script.  A performance or refactoring change that
claims to change nothing must leave every hash as it is.

The runs are long enough to leave the infeasible phase: each paper circuit
has goldens with stage-1 and stage-2 simulations, and both have one whose
memetic local search fires.  (Short full-space runs never find a feasible
design, so every method would hash the same.)

Floating-point results depend on the numpy/scipy builds and on the CPU's
vector units, so the hashes are only checked on the platform that pinned
them; elsewhere the tests skip and name the stored fingerprint.

Regenerate (only for a change that is *meant* to alter results)::

    PYTHONPATH=src python tests/test_goldens.py
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.api import optimize

GOLDENS = Path(__file__).resolve().parent / "goldens" / "identity.json"

#: ``(problem, method, seed, overrides)`` of every pinned run.
RUNS = [
    ("folded_cascode", "moheco", 11, {"max_generations": 40, "ls_patience": 2}),
    ("folded_cascode", "oo_only", 11, {"max_generations": 40}),
    ("folded_cascode", "fixed_budget", 11, {"max_generations": 30}),
    ("folded_cascode", "moheco_mf", 11, {"max_generations": 40}),
    ("folded_cascode", "moheco_screened", 11, {"max_generations": 40}),
    ("folded_cascode", "fixed_budget_screened", 11, {"max_generations": 40}),
    ("telescopic", "moheco", 11, {"max_generations": 60}),
    ("telescopic", "oo_only", 11, {"max_generations": 14}),
    ("telescopic", "fixed_budget", 11, {"max_generations": 12}),
    ("telescopic", "moheco_mf", 11, {"max_generations": 14}),
    ("telescopic", "moheco_screened", 11, {"max_generations": 14}),
    (
        "folded_cascode",
        "moheco",
        11,
        {"max_generations": 40, "ls_patience": 2, "use_acceptance_sampling": False},
    ),
    (
        "telescopic",
        "moheco",
        11,
        {"max_generations": 60, "use_acceptance_sampling": False},
    ),
    ("netlist_ota", "moheco", 7, {"max_generations": 10}),
    ("netlist_ota", "oo_only", 7, {"max_generations": 10}),
    ("netlist_ota", "fixed_budget", 7, {"max_generations": 10}),
    ("netlist_ota", "moheco_mf", 7, {"max_generations": 10}),
    ("netlist_ota", "moheco_screened", 7, {"max_generations": 10}),
]


def fingerprint() -> dict:
    """The numerical platform: library builds, machine, vector extensions."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    except ImportError:
        simd = []
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "simd": simd,
    }


def run_key(
    problem: str, method: str, seed: int, overrides: dict | None = None
) -> str:
    """``problem/method/seedN``, plus ``/as_off`` when acceptance sampling is off."""
    key = f"{problem}/{method}/seed{seed}"
    if overrides and overrides.get("use_acceptance_sampling") is False:
        key += "/as_off"
    return key


def pinned_run(problem: str, method: str, seed: int, overrides: dict) -> dict:
    """Run once; return its identity hash and ledger counts."""
    result = optimize(problem, method, rng=seed, **overrides)
    identity = result.identity_dict()
    payload = json.dumps(identity, sort_keys=True, default=str)
    return {
        "overrides": overrides,
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "ledger": identity["ledger"]["by_category"],
    }


def _load() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module")
def goldens():
    stored = _load()
    here = fingerprint()
    if stored["fingerprint"] != here:
        pytest.skip(
            f"goldens pinned on {stored['fingerprint']}; this platform is {here}"
        )
    return stored["runs"]


@pytest.mark.slow
@pytest.mark.parametrize(
    "problem,method,seed,overrides", RUNS, ids=[run_key(*run) for run in RUNS]
)
def test_identity_matches_golden(goldens, problem, method, seed, overrides):
    golden = goldens[run_key(problem, method, seed, overrides)]
    assert golden["overrides"] == overrides
    actual = pinned_run(problem, method, seed, overrides)
    assert actual["ledger"] == golden["ledger"]
    assert actual["sha256"] == golden["sha256"]


def test_goldens_cover_every_run_and_leave_the_infeasible_phase():
    """Host-independent check that the pinned runs exercise each stage."""
    runs = _load()["runs"]
    assert set(runs) == {run_key(*run) for run in RUNS}
    for problem in ("folded_cascode", "telescopic"):
        ledgers = [g["ledger"] for key, g in runs.items() if key.startswith(problem)]
        assert any(lg.get("stage1") and lg.get("stage2") for lg in ledgers), problem
        assert any(lg.get("local_search") for lg in ledgers), problem
    for key, golden in runs.items():
        ledger = golden["ledger"]
        assert ledger.get("stage1", 0) + ledger.get("stage2", 0) > 0, key


if __name__ == "__main__":
    pinned = {
        run_key(problem, method, seed, overrides): pinned_run(
            problem, method, seed, overrides
        )
        for problem, method, seed, overrides in RUNS
    }
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(
        json.dumps({"fingerprint": fingerprint(), "runs": pinned}, indent=2) + "\n"
    )
    print(f"wrote {len(pinned)} goldens to {GOLDENS}")
