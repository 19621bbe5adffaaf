"""Cold start: ``scipy.stats`` and ``scipy.linalg`` stay off the import path.

Importing ``scipy.stats`` costs more start-up than numpy and
``scipy.special`` together, and no registered problem or method needs it.
The check runs in a fresh interpreter, because this test session has
already imported both modules (the test suite uses them as references).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys

import numpy as np

import repro
import repro.api.cli
from repro.api import RunSpec, optimize
from repro.api.registries import METHODS, PROBLEMS
from repro.problems import make_problem

for name in PROBLEMS.names():
    make_problem(name)
for name in METHODS.names():
    optimize(
        RunSpec(
            problem="sphere",
            method=name,
            seed=5,
            overrides={"pop_size": 8, "max_generations": 2},
        )
    )
for name in ("folded_cascode", "telescopic", "netlist_ota"):
    optimize(RunSpec(problem=name, seed=11, overrides={"max_generations": 2}))

loaded = sorted({"scipy.stats", "scipy.linalg"} & set(sys.modules))
assert not loaded, f"loaded on the import/run path: {loaded}"

# Each deferred import still works at its first use.
from repro.circuit.ac import ACAnalysis
from repro.circuit.mna import solve_dc
from repro.circuit.netlist import Circuit
from repro.sampling import SobolSampler

problem = make_problem("sphere")
u = SobolSampler(problem.variation).draw(8, np.random.default_rng(3))
assert u.shape == (8, problem.variation.dimension)
circuit = Circuit()
circuit.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
circuit.add_resistor("R1", "in", "out", 1e3)
circuit.add_capacitor("C1", "out", "0", 1e-9)
poles = ACAnalysis.from_circuit(circuit, [solve_dc(circuit).op]).poles()
assert abs(abs(poles[0]) * 2 * np.pi * 1e-6 - 1.0) < 1e-3, poles
print("ok")
"""


def test_import_and_runs_leave_scipy_stats_and_linalg_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.strip().endswith("ok")
