"""Paper example 1: yield-optimize the folded-cascode amplifier (C035).

Run:
    python examples/folded_cascode_yield.py

This is the workload behind Tables 1-2 and Fig. 6.  The script runs MOHECO
once through :func:`repro.api.optimize` with a progress callback streaming
the generation loop, then reports the sized design, the nominal performance
against every spec, the per-spec pass rates under process variations, and
the simulation budget breakdown.  The equivalent CLI invocation::

    python -m repro run --problem folded_cascode --method moheco --seed 42 \
        --set max_generations=120 --progress --out result.json

The tables themselves come from the replicated sweep in
``benchmarks/specs/example1.json`` (``repro sweep --spec ...``).
"""

import numpy as np

from repro import ProgressCallback, make_folded_cascode_problem, optimize, \
    reference_yield


def main() -> None:
    problem = make_folded_cascode_problem()
    print(f"problem: {problem.name}")
    print(f"design variables ({problem.design_dimension}): {problem.space.names}")
    print(f"process variables: {problem.process_dimension} "
          "(20 inter-die + 15 transistors x 4 mismatch)")

    result = optimize(
        problem,
        method="moheco",
        seed=42,
        max_generations=120,
        callbacks=[ProgressCallback(every=10)],
    )

    print(f"\nreported yield: {result.best_yield:.2%} "
          f"after {result.generations} generations ({result.reason})")
    print(f"simulations: {result.n_simulations} "
          f"(paper MOHECO average: ~26 000)")
    print(f"  breakdown: {result.ledger.by_category()}")
    print(f"  screened by AS: {result.ledger.screened_out}")

    print("\nsized design:")
    for name, value in problem.space.as_dict(result.best_x).items():
        unit = "m" if name.startswith(("w", "l")) else ("A" if name.startswith("i") else "V")
        print(f"  {name:10s} {value:.4g} {unit}")

    print("\nnominal performance vs specs:")
    nominal = problem.evaluator.evaluate_nominal(result.best_x)
    for spec, value in zip(problem.specs, nominal):
        print(f"  {spec!s:28s} nominal = {value:.5g} {spec.unit}")

    n_mc = 4_000
    samples = problem.variation.sample(n_mc, np.random.default_rng(7))
    performance = problem.evaluator.evaluate(result.best_x, samples)
    print(f"\nper-spec pass rates over {n_mc} Monte-Carlo samples:")
    for j, spec in enumerate(problem.specs):
        rate = float(np.mean(spec.passes(performance[:, j])))
        print(f"  {spec!s:28s} {rate:8.2%}")

    reference = reference_yield(problem, result.best_x,
                                n=10_000,
                                rng=np.random.default_rng(11))
    print(f"\nreference MC yield: {reference.value:.2%} "
          f"(deviation {abs(result.best_yield - reference.value):.2%})")


if __name__ == "__main__":
    main()
