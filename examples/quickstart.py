"""Quickstart: yield-optimize a small synthetic problem with MOHECO.

Run:
    python examples/quickstart.py

The synthetic "sphere" problem has a closed-form yield, so you can see the
whole MOHECO loop working — feasibility gating, OCBA stage-1 estimation,
stage-2 promotion, memetic refinement — in a couple of seconds, and compare
the result against ground truth.

Everything goes through the unified API: a declarative
:class:`~repro.api.RunSpec` (JSON-round-trippable, so runs are scriptable
and archivable) handed to :func:`~repro.api.optimize`.  The same run from
the shell::

    python -m repro run --problem sphere --seed 2010 \
        --problem-param dimension=4 --problem-param sigma=0.2 \
        --set pop_size=20 --set max_generations=40 --out result.json

Replicated evaluation — the paper's "runs with independent random
numbers" — is one :class:`~repro.sweep.SweepSpec` handed to
:func:`~repro.sweep.run_sweep`; the demo runs a tiny sweep twice (serial,
then sharded across two processes) and shows the records are
bit-identical.  Shell form::

    python -m repro sweep --problem sphere --method moheco \
        --method fixed_budget --runs 3 --workers 2 --out store.jsonl
"""

import numpy as np

from repro import (
    MethodSpec,
    ProblemSpec,
    RunSpec,
    SweepSpec,
    optimize,
    reference_yield,
    run_sweep,
)
from repro.problems import make_problem

def main() -> None:
    spec = RunSpec(
        problem="sphere",
        method="moheco",
        seed=2010,
        problem_params={"dimension": 4, "sigma": 0.2},
        overrides={"pop_size": 20, "max_generations": 40},
    )
    print("run spec (JSON):")
    print(spec.to_json())
    assert RunSpec.from_json(spec.to_json()) == spec  # lossless round trip

    result = optimize(spec)

    print(f"\nbest design: {np.round(result.best_x, 4)}")
    print(f"reported yield: {result.best_yield:.2%} "
          f"({result.best_estimate.n} samples)")
    print(f"stopping reason: {result.reason} after {result.generations} generations")
    print(f"simulations charged: {result.n_simulations}")
    print(f"  by category: {result.ledger.by_category()}")
    print(f"  avoided by acceptance sampling: {result.ledger.screened_out}")

    problem = make_problem(spec.problem, **spec.problem_params)
    truth = problem.evaluator.analytic_yield(result.best_x, problem.specs)
    reference = reference_yield(problem, result.best_x, n=20_000,
                                rng=np.random.default_rng(0))
    print(f"\nanalytic yield at the returned design: {truth:.2%}")
    print(f"50k-style reference MC yield:          {reference.value:.2%}")
    print(f"reported-vs-reference deviation:       "
          f"{abs(result.best_yield - reference.value):.2%}")

    # The imperative form (a problem object, the method name and overrides
    # as keywords) reproduces the exact same run for the same seed.
    imperative = optimize(problem, method="moheco", rng=2010,
                          pop_size=20, max_generations=40)
    assert imperative.identity_dict() == result.identity_dict()
    print("\nimperative optimize(problem, method=...) reproduces the run "
          f"exactly ({imperative.n_simulations} simulations)")

    # Replicated evaluation is a declarative sweep: the same grid executed
    # serially and sharded across two worker processes yields bit-identical
    # records — whole runs are the sharding unit, and each run's streams
    # derive from (base_seed, run_index) alone.
    sweep_spec = SweepSpec(
        methods=(
            MethodSpec("moheco", label="MOHECO",
                       overrides={"pop_size": 10, "n_max": 100}),
            MethodSpec("fixed_budget", label="AS+LHS 100",
                       overrides={"pop_size": 10, "n_fixed": 100}),
        ),
        problems=(ProblemSpec("sphere", problem_params={"sigma": 0.2}),),
        runs=3,
        base_seed=2010,
        reference_n=2_000,
        max_generations=10,
    )
    serial_sweep = run_sweep(sweep_spec, workers=1)
    sharded_sweep = run_sweep(sweep_spec, workers=2)
    assert serial_sweep.tables() == sharded_sweep.tables()
    print(f"\nsweep of {sweep_spec.total_runs} runs: serial "
          f"{serial_sweep.elapsed_seconds:.2f}s vs 2-worker "
          f"{sharded_sweep.elapsed_seconds:.2f}s — identical tables:\n")
    print(sharded_sweep.tables())


if __name__ == "__main__":
    main()
