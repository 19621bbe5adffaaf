"""MOHECO — analog circuit yield optimization via computing budget
allocation and memetic search.

A self-contained reproduction of Liu, Fernández, Gielen, *"An Accurate and
Efficient Yield Optimization Method for Analog Circuits Based on Computing
Budget Allocation and Memetic Search Technique"*, DATE 2010.

Quickstart
----------
Everything routes through the :mod:`repro.api` facade — problems and
methods are registry names, runs are declarative specs:

>>> from repro import RunSpec, optimize
>>> result = optimize(RunSpec(problem="sphere", method="moheco", seed=7))
>>> result.best_yield  # doctest: +SKIP
1.0

or imperatively, with callbacks observing the generation loop:

>>> from repro.api import EarlyStopOnYield
>>> result = optimize("sphere", method="oo_only", seed=7,
...                   callbacks=[EarlyStopOnYield(0.99)])  # doctest: +SKIP

The same runs are scriptable from the shell::

    python -m repro run --problem folded_cascode --method moheco --seed 7 \
        --out result.json
    python -m repro list

Replicated evaluation — the paper's "10 runs with independent random
numbers" — is a first-class sweep: a declarative
:class:`~repro.sweep.SweepSpec` grid (methods × problems × seeds) whose
whole runs shard across a process pool, bit-identical to serial, with a
resumable JSONL result store:

>>> from repro import SweepSpec, MethodSpec, ProblemSpec, run_sweep
>>> sweep = run_sweep(SweepSpec(                       # doctest: +SKIP
...     methods=(MethodSpec("moheco"), MethodSpec("fixed_budget")),
...     problems=(ProblemSpec("folded_cascode"),), runs=10),
...     workers=4, store="store.jsonl")

or from the shell::

    python -m repro sweep --problem folded_cascode --method moheco \
        --method fixed_budget --runs 10 --workers 4 --out store.jsonl

The paper's Tables 1-4 are two such sweeps, checked in as JSON specs
(``benchmarks/specs/example1.json`` and ``example2.json``) and run with
``python -m repro sweep --spec <file>``.

Results serialize losslessly (``result.to_dict()`` /
``MOHECOResult.from_dict``), and third-party problems, methods and
samplers plug in by name via ``repro.api.register_*``.

Execution engine
----------------
The Monte-Carlo refinement work — OCBA stage-1 rounds, stage-2
promotions, the fixed-budget baseline, the fidelity ladder, memetic local
search — is expressed as *rounds* of ``(candidate, k_i samples)``
requests, and every round runs on
:class:`~repro.engine.serial.SerialEngine`, which fuses it into stacked
``(sum(k_i), ...)`` vectorized dispatches, streamed in slab-sized groups
so a large round's samples never all sit in memory at once.  Sample draws
stay in per-candidate RNG streams, so a fused round gives the same
estimates, bit for bit, as one ``state.refine`` per candidate.  There is
no engine to choose: ``optimize`` accepts ``engine="serial"`` and nothing
else.  The parallel path is the sweep above: ``repro sweep --workers N``
shards whole runs.

Package map
-----------
* :mod:`repro.api` — the public facade: registries, RunSpec, optimize, CLI.
* :mod:`repro.core` — the MOHECO loop, config, history, callbacks.
* :mod:`repro.engine` — the fused serial engine for the refinement
  rounds.
* :mod:`repro.problems` — the paper's two circuits + synthetic problems.
* :mod:`repro.circuit` — the analog evaluation substrate (devices, MNA,
  topologies, technologies).
* :mod:`repro.process` — statistical process-variation models.
* :mod:`repro.sampling` / :mod:`repro.yieldsim` — PMC/LHS/Sobol/AS and
  Monte-Carlo yield estimation.
* :mod:`repro.ocba` — ordinal optimization / budget allocation.
* :mod:`repro.optim` — DE, Nelder-Mead, constraint handling.
* :mod:`repro.baselines` / :mod:`repro.surrogate` — compared methods.
* :mod:`repro.experiments` — rendering of the paper's tables and figures,
  and the studies that are not sweeps.
"""

from repro.api import (
    MethodSpec,
    ProblemSpec,
    ResultStore,
    RunSpec,
    SweepSpec,
    optimize,
    register_method,
    register_problem,
    register_sampler,
    run_sweep,
)
from repro.core import (
    MOHECO,
    MOHECOConfig,
    MOHECOResult,
    Callback,
    EarlyStopOnYield,
    ProgressCallback,
)
from repro.ledger import SimulationLedger
from repro.problems import (
    YieldProblem,
    make_folded_cascode_problem,
    make_problem,
    make_quadratic_problem,
    make_sphere_problem,
    make_telescopic_problem,
)
from repro.specs import Spec, SpecSet
from repro.yieldsim import reference_yield

__version__ = "1.1.0"

__all__ = [
    # unified API
    "optimize",
    "RunSpec",
    "SweepSpec",
    "MethodSpec",
    "ProblemSpec",
    "ResultStore",
    "run_sweep",
    "register_method",
    "register_problem",
    "register_sampler",
    "Callback",
    "ProgressCallback",
    "EarlyStopOnYield",
    # engine + data types
    "MOHECO",
    "MOHECOConfig",
    "MOHECOResult",
    "SimulationLedger",
    "Spec",
    "SpecSet",
    "YieldProblem",
    # problem factories
    "make_problem",
    "make_folded_cascode_problem",
    "make_telescopic_problem",
    "make_sphere_problem",
    "make_quadratic_problem",
    "reference_yield",
    "__version__",
]
