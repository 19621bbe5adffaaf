"""Micro-benchmarks of the performance-critical components.

These use pytest-benchmark's statistical timing (multiple rounds) since
they are cheap; they guard the substrate's throughput, on which every
experiment's wall-clock depends.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import optimize
from repro.circuit.tech import C035Technology, N90Technology
from repro.circuit.topologies import (
    FoldedCascodeAmplifier,
    NetlistTwoStageOTA,
    TwoStageTelescopicAmplifier,
)
from repro.circuit.topologies.base import DesignSpace
from repro.core.moheco import MOHECO, select_one_to_one
from repro.core.state import Individual
from repro.engine import SerialEngine
from repro.ledger import SimulationLedger
from repro.ocba import ocba_allocation
from repro.optim import DifferentialEvolution
from repro.problems import make_problem
from repro.sampling import make_sampler
from repro.surrogate import MLP, train_levenberg_marquardt
from repro.yieldsim import CandidateYieldState


@pytest.fixture(scope="module")
def fc_setup():
    amp = FoldedCascodeAmplifier(C035Technology())
    x = amp.design_space().sample(1, np.random.default_rng(0))[0]
    samples = amp.variation.sample(500, np.random.default_rng(1))
    return amp, x, samples


@pytest.fixture(scope="module")
def ts_setup():
    amp = TwoStageTelescopicAmplifier(N90Technology())
    x = amp.design_space().sample(1, np.random.default_rng(0))[0]
    samples = amp.variation.sample(500, np.random.default_rng(1))
    return amp, x, samples


@pytest.mark.benchmark(group="evaluator")
def test_folded_cascode_500_sample_evaluation(benchmark, fc_setup):
    amp, x, samples = fc_setup
    out = benchmark(amp.evaluate, x, samples)
    assert out.shape == (500, 6)


@pytest.mark.benchmark(group="evaluator")
def test_telescopic_500_sample_evaluation(benchmark, ts_setup):
    amp, x, samples = ts_setup
    out = benchmark(amp.evaluate, x, samples)
    assert out.shape == (500, 8)


def _gate_rows(amp, rows):
    """``rows`` random designs at the nominal process point: the shape of a
    feasibility gate (1 row under the local search, 11 for a small
    generation)."""
    X = amp.design_space().sample(rows, np.random.default_rng(5))
    nominal = np.broadcast_to(amp.variation.nominal(), (rows, amp.variation.dimension))
    return X, nominal


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("rows", [1, 11])
def test_folded_cascode_gate_evaluation(benchmark, fc_setup, rows):
    amp, _, _ = fc_setup
    out = benchmark(amp.evaluate_pairs, *_gate_rows(amp, rows))
    assert out.shape == (rows, 6)


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("rows", [1, 11])
def test_telescopic_gate_evaluation(benchmark, ts_setup, rows):
    amp, _, _ = ts_setup
    out = benchmark(amp.evaluate_pairs, *_gate_rows(amp, rows))
    assert out.shape == (rows, 8)


def _fused_round(amp, designs, rows, seed):
    """``rows`` pairs from ``designs`` designs, each repeated over its own
    samples: the row layout of one fused refinement round (or slab)."""
    rng = np.random.default_rng(seed)
    X = np.repeat(amp.design_space().sample(designs, rng), rows // designs, axis=0)
    return X, amp.variation.sample(len(X), rng)


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("designs, rows", [(14, 700), (16, 2048)])
def test_folded_cascode_fused_evaluation(benchmark, fc_setup, designs, rows):
    """A stage-1 round of ``paper_circuits`` (~700 rows from 14 designs) and
    a full 2048-row slab."""
    amp, _, _ = fc_setup
    out = benchmark(amp.evaluate_pairs, *_fused_round(amp, designs, rows, 7))
    assert out.shape == (rows, 6)


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("designs, rows", [(10, 500), (16, 2048)])
def test_telescopic_fused_evaluation(benchmark, ts_setup, designs, rows):
    """A 500-row round from several designs and a full 2048-row slab."""
    amp, _, _ = ts_setup
    out = benchmark(amp.evaluate_pairs, *_fused_round(amp, designs, rows, 8))
    assert out.shape == (rows, 8)


#: A stage-2 group of ``paper_circuits``: four telescopic candidates
#: promoted from their 15 pilot samples to ``n_max = 500``.
STAGE2_CANDIDATES, STAGE2_GAIN = 4, 485


@pytest.mark.benchmark(group="engine")
def test_telescopic_stage2_round(benchmark, monkeypatch):
    """One ``SerialEngine.refine_round`` over a stage-2 group: draw each
    candidate's samples into the round buffer, simulate the group in one
    evaluator call, scatter it.  The simulated rows must equal one
    ``refine`` per candidate, bit for bit."""
    problem = make_problem("telescopic")
    designs = problem.space.sample(STAGE2_CANDIDATES, np.random.default_rng(9))
    sampler = make_sampler("lhs", problem.variation)
    engine = SerialEngine()
    simulated, rounds = [], []
    evaluate = problem.evaluate_pairs

    def recorded(X, samples, *args):
        simulated.append(evaluate(X, samples, *args))
        return simulated[-1]

    def fresh_states():
        ledger = SimulationLedger()
        return [
            CandidateYieldState(
                problem, x, sampler, np.random.default_rng(i), ledger, "stage2"
            )
            for i, x in enumerate(designs)
        ]

    def fresh_round():
        rounds.append(fresh_states())
        return (problem, rounds[-1], [STAGE2_GAIN] * STAGE2_CANDIDATES), {}

    monkeypatch.setattr(problem, "evaluate_pairs", recorded)
    benchmark.pedantic(engine.refine_round, setup=fresh_round, rounds=20)
    fused = simulated[-1]
    assert fused.shape[0] == rounds[-1][0].ledger.total == STAGE2_CANDIDATES * STAGE2_GAIN
    for state in fresh_states():
        state.refine(STAGE2_GAIN)
    per_candidate = np.concatenate(simulated[-STAGE2_CANDIDATES:])
    assert np.array_equal(fused.view(np.int64), per_candidate.view(np.int64))


@pytest.fixture(scope="module")
def ota():
    return NetlistTwoStageOTA(C035Technology())


@pytest.mark.benchmark(group="evaluator")
def test_netlist_ota_gate_evaluation(benchmark, ota):
    out = benchmark(ota.evaluate_pairs, *_gate_rows(ota, 1))
    assert out.shape == (1, 4)


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("designs, rows", [(6, 480), (8, 2048)])
def test_netlist_ota_fused_evaluation(benchmark, ota, designs, rows):
    """A fused refinement round (~480 rows from several designs on
    ``ota_tight``) and a full 2048-row slab: each row one 301-point AC solve."""
    rng = np.random.default_rng(6)
    X = np.repeat(ota.design_space().sample(designs, rng), rows // designs, axis=0)
    samples = ota.variation.sample(len(X), rng)
    out = benchmark(ota.evaluate_pairs, X, samples)
    assert out.shape == (rows, 4)
    assert np.all(np.isfinite(out))


#: The design ``e2ebench/workloads.py`` boxes ``ota_tight`` around (the
#: ``best_x`` of a full paper-config run), and the box's half-width as a
#: share of each variable's range.
OTA_TIGHT_CENTER = [
    2.056875249165074e-05, 8.71624648715202e-05, 0.3438972763955166,
    0.10724679716759553, 5.136739714004364e-13,
]
BOX_HALF_WIDTH = 0.005


@pytest.mark.benchmark(group="evaluator")
@pytest.mark.parametrize("designs, rows", [(6, 480), (8, 2048)])
def test_netlist_ota_clustered_evaluation(benchmark, ota, designs, rows):
    """The rounds of ``test_netlist_ota_fused_evaluation`` with every design
    in ``ota_tight``'s box: a converging search's rows, whose unity-gain
    crossings bunch within a few grid points where full-space designs
    spread over dozens."""
    rng = np.random.default_rng(6)
    space = ota.design_space()
    half = BOX_HALF_WIDTH * (space.upper - space.lower)
    center = np.asarray(OTA_TIGHT_CENTER)
    box = DesignSpace(
        space.names,
        np.maximum(center - half, space.lower),
        np.minimum(center + half, space.upper),
    )
    X = np.repeat(box.sample(designs, rng), rows // designs, axis=0)
    samples = ota.variation.sample(len(X), rng)
    out = benchmark(ota.evaluate_pairs, X, samples)
    assert out.shape == (rows, 4)
    assert np.all(np.isfinite(out))


#: One 480-row netlist-OTA round (the inputs of the ``(6, 480)`` fused case)
#: in a fresh interpreter: its first call meets an allocator that has freed
#: nothing large yet, so glibc maps every temporary above its 128 KiB mmap
#: threshold afresh and faults its pages in.  The five calls that follow
#: are the warm in-process case.  Prints one JSON line.
FRESH_OTA_ROUND = """
import hashlib, json, resource, time
import numpy as np
from repro.circuit.tech import C035Technology
from repro.circuit.topologies import NetlistTwoStageOTA

ota = NetlistTwoStageOTA(C035Technology())
rng = np.random.default_rng(6)
X = np.repeat(ota.design_space().sample(6, rng), 80, axis=0)
samples = ota.variation.sample(len(X), rng)

def call():
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    out = ota.evaluate_pairs(X, samples)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out, seconds * 1e3, faults

out, fresh_ms, fresh_faults = call()
warm = [call()[1:] for _ in range(5)]
print(json.dumps({
    "sha256": hashlib.sha256(out.view(np.int64).tobytes()).hexdigest(),
    "fresh_ms": fresh_ms,
    "fresh_minflt": fresh_faults,
    "warm_ms": float(np.median([ms for ms, _ in warm])),
    "warm_minflt": float(np.median([faults for _, faults in warm])),
}))
"""


def test_netlist_ota_fresh_interpreter_evaluation(ota, capsys):
    """The 480-row round's first call in a fresh interpreter, next to the
    warm calls after it: ms and ``ru_minflt`` per call, printed even under
    output capture.  The fresh interpreter must compute the in-process
    rows."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", FRESH_OTA_ROUND],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    report = json.loads(child.stdout)
    rng = np.random.default_rng(6)
    X = np.repeat(ota.design_space().sample(6, rng), 80, axis=0)
    out = ota.evaluate_pairs(X, ota.variation.sample(len(X), rng))
    assert report["sha256"] == hashlib.sha256(out.view(np.int64).tobytes()).hexdigest()
    with capsys.disabled():
        print(
            f"\nnetlist_ota 480 rows: fresh interpreter {report['fresh_ms']:.1f} ms, "
            f"{report['fresh_minflt']} minflt; warm {report['warm_ms']:.1f} ms, "
            f"{report['warm_minflt']:.0f} minflt per call"
        )


@pytest.fixture(scope="module")
def fc_generation():
    """A 50-member ``folded_cascode`` population and its 50 trials.

    Both are shuffled together from 50 feasible designs of a seed-11
    ``moheco`` run, each with a 15-sample yield estimate, and 50 random
    designs, infeasible at the nominal point.
    """
    problem = make_problem("folded_cascode")
    history = optimize(problem, "moheco", rng=11, max_generations=40).history
    feasible_xs = np.concatenate([record.evaluated_x for record in history])[:50]
    rng = np.random.default_rng(7)
    xs = np.concatenate([feasible_xs, problem.space.sample(50, rng)])
    feasible, violation = problem.nominal_feasibility_batch(xs)
    assert feasible[:50].all() and not feasible[50:].any()
    sampler = make_sampler("lhs", problem.variation)
    members = []
    for x, ok, v in zip(xs, feasible, violation):
        state = None
        if ok:
            state = CandidateYieldState(problem, x, sampler, np.random.default_rng(8))
            state.refine(15)
        members.append(Individual(x, bool(ok), float(v), state))
    order = rng.permutation(100)
    population = [members[i] for i in order[:50]]
    trials = [members[i] for i in order[50:]]
    return DifferentialEvolution(problem.space), population, trials


@pytest.mark.benchmark(group="moheco")
def test_in_parent_generation_step(benchmark, fc_generation):
    """Steps 1-2 and 8 of one generation: the base vector, the DE trials and
    one-to-one selection, with the best-member reads the loop makes after
    selection (local search, history record, stopping rule)."""
    de, population, trials = fc_generation
    rng = np.random.default_rng(9)

    def generation():
        survivors = list(population)
        best_index = MOHECO._best_index(survivors)
        trial_xs = de.propose(np.array([ind.x for ind in survivors]), best_index, rng)
        select_one_to_one(survivors, trials)
        for _ in range(3):
            best_index = MOHECO._best_index(survivors)
        return trial_xs, survivors, best_index

    trial_xs, survivors, best_index = benchmark(generation)
    assert trial_xs.shape == (50, de.space.dimension)
    assert de.space.contains(trial_xs).all()
    assert survivors[best_index].feasible
    assert all(s is p or s is t for s, p, t in zip(survivors, population, trials))


@pytest.mark.benchmark(group="sampling")
@pytest.mark.parametrize("setup, dimension", [("fc_setup", 80), ("ts_setup", 123)])
def test_lhs_draw(benchmark, request, setup, dimension):
    amp, _, _ = request.getfixturevalue(setup)
    sampler = make_sampler("lhs", amp.variation)
    rng = np.random.default_rng(2)
    out = benchmark(sampler.draw, 500, rng)
    assert out.shape == (500, dimension)


@pytest.mark.benchmark(group="ocba")
def test_ocba_allocation_50_designs(benchmark):
    rng = np.random.default_rng(3)
    means = rng.uniform(0.1, 0.99, size=50)
    stds = np.sqrt(means * (1 - means))
    alloc = benchmark(ocba_allocation, means, stds, 1750)
    assert alloc.sum() == 1750


@pytest.mark.benchmark(group="surrogate")
def test_lm_training_step(benchmark):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(100, 8))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    model = MLP(8, 10)
    params0 = model.init_params(rng)
    result = benchmark.pedantic(
        train_levenberg_marquardt, args=(model, x, y, params0),
        kwargs={"max_iterations": 20}, rounds=3, iterations=1,
    )
    assert result.mse < 1.0
