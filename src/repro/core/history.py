"""Per-generation optimization history.

Feeds three consumers:

* the paper's Fig. 3 (an OCBA allocation snapshot of a typical population),
* the RSB study of section 3.4 (per-iteration (x, yield) training data for
  the neural-network response surface), and
* convergence diagnostics (best yield and simulations per generation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GenerationRecord", "OptimizationHistory"]


@dataclass
class GenerationRecord:
    """Snapshot of one generation."""

    generation: int
    best_yield: float
    best_violation: float
    feasible_count: int
    stage2_count: int
    simulations_total: int
    local_search_fired: bool = False
    #: Per-candidate OCBA sample counts of this generation's feasible
    #: trials (empty when OCBA is off or nothing was feasible).
    ocba_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    #: Matching yield estimates.
    ocba_estimates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Evaluated designs of this generation (trials + LS probes) and their
    #: estimated yields — the RSB study's training data.
    evaluated_x: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    evaluated_yield: np.ndarray = field(default_factory=lambda: np.zeros(0))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (arrays become nested lists)."""
        return {
            "generation": int(self.generation),
            "best_yield": float(self.best_yield),
            "best_violation": float(self.best_violation),
            "feasible_count": int(self.feasible_count),
            "stage2_count": int(self.stage2_count),
            "simulations_total": int(self.simulations_total),
            "local_search_fired": bool(self.local_search_fired),
            "ocba_counts": np.asarray(self.ocba_counts).tolist(),
            "ocba_estimates": np.asarray(self.ocba_estimates).tolist(),
            "evaluated_x": np.asarray(self.evaluated_x).tolist(),
            "evaluated_yield": np.asarray(self.evaluated_yield).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationRecord":
        """Inverse of :meth:`to_dict`."""
        evaluated_x = np.asarray(data.get("evaluated_x", []), dtype=float)
        if evaluated_x.size == 0:
            evaluated_x = evaluated_x.reshape((0, 0))
        return cls(
            generation=int(data["generation"]),
            best_yield=float(data["best_yield"]),
            best_violation=float(data["best_violation"]),
            feasible_count=int(data["feasible_count"]),
            stage2_count=int(data["stage2_count"]),
            simulations_total=int(data["simulations_total"]),
            local_search_fired=bool(data.get("local_search_fired", False)),
            ocba_counts=np.asarray(data.get("ocba_counts", []), dtype=int),
            ocba_estimates=np.asarray(data.get("ocba_estimates", []), dtype=float),
            evaluated_x=evaluated_x,
            evaluated_yield=np.asarray(data.get("evaluated_yield", []), dtype=float),
        )


class OptimizationHistory:
    """Ordered collection of generation records."""

    def __init__(self) -> None:
        self.records: list[GenerationRecord] = []

    def append(self, record: GenerationRecord) -> None:
        """Add one generation's record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> GenerationRecord:
        return self.records[index]

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation of all records."""
        return {"records": [record.to_dict() for record in self.records]}

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizationHistory":
        """Inverse of :meth:`to_dict`."""
        history = cls()
        for record in data.get("records", []):
            history.append(GenerationRecord.from_dict(record))
        return history

    # -- series ------------------------------------------------------------
    def best_yield_series(self) -> np.ndarray:
        """Best estimated yield per generation."""
        return np.array([r.best_yield for r in self.records])

    def simulations_series(self) -> np.ndarray:
        """Cumulative charged simulations per generation."""
        return np.array([r.simulations_total for r in self.records])

    def training_data(self, upto_generation: int) -> tuple[np.ndarray, np.ndarray]:
        """All (design, yield) pairs evaluated up to a generation (inclusive).

        This is the RSB protocol: "we use the data from all previous
        iterations to train the NN and use this to predict the yield values
        of the current iteration".
        """
        xs, ys = [], []
        for record in self.records:
            if record.generation > upto_generation:
                break
            if record.evaluated_x.size:
                xs.append(record.evaluated_x)
                ys.append(record.evaluated_yield)
        if not xs:
            return np.zeros((0, 0)), np.zeros(0)
        return np.vstack(xs), np.concatenate(ys)

    def generation_data(self, generation: int) -> tuple[np.ndarray, np.ndarray]:
        """The (design, yield) pairs evaluated in one generation."""
        for record in self.records:
            if record.generation == generation:
                return record.evaluated_x, record.evaluated_yield
        return np.zeros((0, 0)), np.zeros(0)
