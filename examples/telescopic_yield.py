"""Paper example 2: the two-stage telescopic amplifier in N90 (90 nm).

Run:
    python examples/telescopic_yield.py

The paper uses this circuit to stress MOHECO under "extremely severe
performance constraints": at 1.2 V supply, the 1.8 V differential swing,
180 um^2 area and 0.05 mV offset specs are mutually antagonistic.  The
script compares MOHECO against the fixed-budget AS+LHS baseline on one seed
— both are just method-registry names handed to the same
:func:`repro.api.optimize` driver — and shows where the simulation budget
went.
"""

import numpy as np

from repro import make_telescopic_problem, optimize, reference_yield


def main() -> None:
    problem = make_telescopic_problem()
    print(f"problem: {problem.name}")
    print(f"design variables ({problem.design_dimension}): {problem.space.names}")
    print(f"process variables: {problem.process_dimension} "
          "(47 inter-die + 19 transistors x 4 mismatch)")
    print("specs:")
    print(problem.specs.describe())

    print("\n-- MOHECO ------------------------------------------------------")
    moheco = optimize(problem, method="moheco", seed=3, max_generations=120)
    print(f"reported yield {moheco.best_yield:.2%} in {moheco.n_simulations} "
          f"simulations ({moheco.generations} generations, {moheco.reason})")

    print("\n-- AS+LHS, 500 sims per feasible candidate ----------------------")
    fixed = optimize(problem, method="fixed_budget", seed=3, n_fixed=500,
                     max_generations=120)
    print(f"reported yield {fixed.best_yield:.2%} in {fixed.n_simulations} "
          f"simulations ({fixed.generations} generations, {fixed.reason})")

    ratio = fixed.n_simulations / max(moheco.n_simulations, 1)
    print(f"\nMOHECO used {moheco.n_simulations / max(fixed.n_simulations, 1):.1%} "
          f"of the fixed-budget method's simulations ({ratio:.1f}x cheaper; "
          "paper reports ~14% on this circuit)")

    reference = reference_yield(problem, moheco.best_x, n=10_000,
                                rng=np.random.default_rng(5))
    print(f"MOHECO reference-MC yield: {reference.value:.2%} "
          f"(deviation {abs(moheco.best_yield - reference.value):.2%})")

    nominal = problem.evaluator.evaluate_nominal(moheco.best_x)
    print("\nMOHECO design, nominal performance vs specs:")
    for spec, value in zip(problem.specs, nominal):
        print(f"  {spec!s:30s} nominal = {value:.5g} {spec.unit}")


if __name__ == "__main__":
    main()
