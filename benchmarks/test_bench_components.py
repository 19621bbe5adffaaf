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

from repro.circuit.tech import C035Technology, N90Technology
from repro.circuit.topologies import (
    FoldedCascodeAmplifier,
    NetlistTwoStageOTA,
    TwoStageTelescopicAmplifier,
)
from repro.ocba import ocba_allocation
from repro.sampling import make_sampler
from repro.surrogate import MLP, train_levenberg_marquardt


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
