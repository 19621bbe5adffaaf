"""Statistical process-variation modelling.

This package models how fabrication varies device parameters.  Every
statistical variable is Gaussian:

* :mod:`repro.process.parameters` — named Gaussian parameters and ordered
  groups of them, which draw Monte-Carlo samples and map uniform strata
  (LHS, Sobol) through the Gaussian inverse CDF.
* :mod:`repro.process.variation` — the inter-die / intra-die decomposition:
  inter-die variables shift all devices of a type together, intra-die
  (mismatch) variables perturb each device independently with Pelgrom area
  scaling.
* :mod:`repro.process.technology` — a `Technology` bundles nominal device
  model cards with its statistical variation model.
"""

from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.variation import ProcessVariationModel
from repro.process.technology import Technology

__all__ = [
    "StatisticalParameter",
    "ParameterGroup",
    "ProcessVariationModel",
    "Technology",
]
