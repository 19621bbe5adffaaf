"""Differential evolution (Price & Storn).

Two views are provided:

* **Stepwise operators** (:meth:`DifferentialEvolution.propose`) — MOHECO
  drives the generation loop itself because each trial's fitness is an
  expensive, budget-managed yield estimate.  The operators implement the
  paper's configuration: base-vector selection around the population best
  ("Select Base Vector" in Fig. 4), differential mutation, binomial
  crossover with CR = 0.8, F = 0.8.
* **A standalone loop** (:meth:`DifferentialEvolution.optimize`) for
  deterministic objectives — used by the PSWCD baseline's inner worst-case
  searches, nominal-sizing utilities and the test suite.

Bound handling: trial components outside the box are resampled by
midpoint-reflection toward the base vector (standard DE practice; keeps
diversity better than clipping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuit.topologies.base import DesignSpace

__all__ = ["DifferentialEvolution", "DEResult"]


@dataclass
class DEResult:
    """Outcome of a standalone DE run."""

    x: np.ndarray
    objective: float
    generations: int
    evaluations: int


class DifferentialEvolution:
    """DE operators over a box design space.

    Parameters
    ----------
    space:
        Box bounds.
    f:
        Differential weight (paper: 0.8).
    cr:
        Crossover rate (paper: 0.8).

    Mutation is DE/best/1, the paper's base-vector choice: every donor is
    the population best plus ``F`` times a difference of two other members.
    """

    def __init__(
        self,
        space: DesignSpace,
        f: float = 0.8,
        cr: float = 0.8,
    ) -> None:
        if not 0.0 < f <= 2.0:
            raise ValueError(f"F must be in (0, 2], got {f}")
        if not 0.0 <= cr <= 1.0:
            raise ValueError(f"CR must be in [0, 1], got {cr}")
        self.space = space
        self.f = float(f)
        self.cr = float(cr)

    # -- population initialisation ------------------------------------------
    def init_population(self, pop_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random population, shape ``(pop_size, d)``."""
        if pop_size < 4:
            raise ValueError(f"DE needs a population of at least 4, got {pop_size}")
        return self.space.sample(pop_size, rng)

    # -- operators ---------------------------------------------------------------
    def mutate(
        self, population: np.ndarray, best_index: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Donor vectors for every population member (DE/best/1)."""
        population = np.asarray(population, dtype=float)
        n = len(population)
        # Member i draws three positions among the n - 1 others; moving the
        # positions at or past i up by one skips i itself.  Three are drawn
        # although best/1 uses two: the draw size is part of every seeded
        # run's random stream.
        picks = np.array([rng.choice(n - 1, size=3, replace=False) for _ in range(n)])
        picks += picks >= np.arange(n)[:, None]
        r1, r2 = picks[:, 0], picks[:, 1]
        return population[best_index] + self.f * (population[r1] - population[r2])

    def crossover(
        self, population: np.ndarray, donors: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Binomial crossover; at least one donor component always survives."""
        population = np.asarray(population, dtype=float)
        n, d = population.shape
        mask = rng.uniform(size=(n, d)) < self.cr
        forced = rng.integers(0, d, size=n)
        mask[np.arange(n), forced] = True
        return np.where(mask, donors, population)

    def repair(self, trials: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Reflect out-of-bounds components back inside the box."""
        lower, upper = self.space.lower, self.space.upper
        trials = np.asarray(trials, dtype=float).copy()
        below = trials < lower
        above = trials > upper
        # Midpoint reflection: x' = bound + u * (other_bound - bound) with a
        # shrinking uniform factor keeps points strictly inside.
        if np.any(below):
            u = rng.uniform(0.0, 1.0, size=trials.shape)
            trials = np.where(below, lower + 0.5 * u * (upper - lower) * 0.1, trials)
        if np.any(above):
            u = rng.uniform(0.0, 1.0, size=trials.shape)
            trials = np.where(above, upper - 0.5 * u * (upper - lower) * 0.1, trials)
        return trials

    def propose(
        self,
        population: np.ndarray,
        best_index: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One full mutation + crossover + repair step (MOHECO's step 2)."""
        donors = self.mutate(population, best_index, rng)
        trials = self.crossover(population, donors, rng)
        return self.repair(trials, rng)

    # -- standalone loop -------------------------------------------------------------
    def optimize(
        self,
        objective: Callable[[np.ndarray], float],
        pop_size: int = 30,
        max_generations: int = 100,
        rng: np.random.Generator | None = None,
        tolerance: float = 0.0,
        patience: int | None = None,
    ) -> DEResult:
        """Maximise a deterministic objective.

        ``patience`` (generations without improvement) enables early
        stopping; ``None`` runs all generations.
        """
        rng = rng or np.random.default_rng()
        population = self.init_population(pop_size, rng)
        fitness = np.array([objective(x) for x in population])
        evaluations = pop_size
        stall = 0
        generations = 0

        for generations in range(1, max_generations + 1):
            best_index = int(np.argmax(fitness))
            trials = self.propose(population, best_index, rng)
            improved_best = False
            for i, trial in enumerate(trials):
                value = objective(trial)
                evaluations += 1
                if value >= fitness[i]:
                    if value > fitness[best_index] + tolerance:
                        improved_best = True
                    population[i] = trial
                    fitness[i] = value
            stall = 0 if improved_best else stall + 1
            if patience is not None and stall >= patience:
                break

        best_index = int(np.argmax(fitness))
        return DEResult(
            x=population[best_index].copy(),
            objective=float(fitness[best_index]),
            generations=generations,
            evaluations=evaluations,
        )
