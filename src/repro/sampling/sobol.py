"""Scrambled Sobol sampling.

A low-discrepancy alternative to LHS; not used by the paper's headline
experiments but provided for ablations (the sampler ablation in
``benchmarks/test_bench_ablations.py``) and available through
:func:`repro.sampling.make_sampler`.
``scipy.stats.qmc`` is imported at the first :meth:`SobolSampler.draw`, so
registering the sampler does not load ``scipy.stats``.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.sampling.base import Sampler

__all__ = ["SobolSampler"]


class SobolSampler(Sampler):
    """Owen-scrambled Sobol points mapped through the marginal inverse CDFs.

    Each :meth:`draw` uses a freshly-scrambled sequence seeded from the
    caller's generator, so repeated batches are independent randomisations
    (randomised QMC keeps estimates unbiased).
    """

    name = "sobol"

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check(n)
        if n == 0:
            return np.empty((0, self.variation.dimension))
        from scipy.stats import qmc

        seed = int(rng.integers(0, 2**31 - 1))
        engine = qmc.Sobol(self.variation.dimension, scramble=True, seed=seed)
        with warnings.catch_warnings():
            # scipy warns when n is not a power of two; unbiasedness is
            # preserved by the scrambling, which is all we rely on.
            warnings.simplefilter("ignore", UserWarning)
            u = engine.random(n)
        # Guard the open interval for the inverse CDFs.
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return self.variation.from_uniform(u)
