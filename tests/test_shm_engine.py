"""Process engine and auto engine on circuit-priced rounds.

The process pool ships each chunk of a round to its workers as three
plain arrays, ``(designs, sizes, samples)``.  These tests pin the engine
contract that matters: results are bit-identical to
:class:`~repro.engine.serial.SerialEngine` for any worker count, with and
without a warm-start cache — on the circuit-priced ``netlist_ota``
problem whose per-row cost is what the pool exists for — and the auto
engine records why it committed to serial or process.  (The ``shm`` in
some test names is historical: the pool used to stage rounds in shared
memory.)
"""

import pytest

from repro.api import optimize
from repro.engine.cache import make_cache


@pytest.mark.slow
class TestCircuitPricedBitIdentity:
    """Serial vs process{1,2,4} on the netlist OTA."""

    CONFIG = dict(
        problem="netlist_ota",
        seed=3,
        max_generations=3,
        pop_size=8,
        n0=20,
        n_max=120,
    )

    @pytest.fixture(scope="class")
    def serial_identity(self):
        return optimize(engine="serial", **self.CONFIG).identity_dict()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shm_transfer_matches_serial(self, serial_identity, workers):
        result = optimize(
            engine="process",
            engine_params={"workers": workers},
            **self.CONFIG,
        )
        assert result.identity_dict() == serial_identity

    @pytest.mark.parametrize("workers", [2, 4])
    def test_shm_with_cache_matches_serial(self, serial_identity, workers):
        # Cold cache run first, then a warm re-run replaying hits: both
        # must land on the serial identity (ledger-faithful accounting).
        cache = make_cache("lru")
        cold = optimize(
            engine="process",
            engine_params={"workers": workers},
            cache=cache,
            **self.CONFIG,
        )
        assert cold.identity_dict() == serial_identity
        warm = optimize(
            engine="process",
            engine_params={"workers": workers},
            cache=cache,
            **self.CONFIG,
        )
        assert warm.identity_dict() == serial_identity
        assert warm.cache_stats["hits"] > 0  # the re-run actually replayed


class TestAutoEngineDecision:
    def test_cheap_problem_commits_serial_with_record(self):
        result = optimize(
            problem="sphere",
            seed=5,
            engine="auto",
            engine_params={"workers": 4},
            max_generations=3,
            pop_size=10,
        )
        decision = result.engine_decision
        assert decision is not None
        assert decision["chosen"] == "serial"
        assert decision["pilot_cost_seconds"] < decision["crossover_cost_seconds"]
        assert decision["workers"] == 4

    @pytest.mark.slow
    def test_circuit_priced_problem_commits_process(self):
        result = optimize(
            problem="netlist_ota",
            seed=3,
            engine="auto",
            engine_params={"workers": 4, "pilot_rows": 16},
            max_generations=3,
            pop_size=8,
            n0=20,
            n_max=120,
        )
        decision = result.engine_decision
        assert decision is not None
        assert decision["chosen"] == "process"
        assert decision["pilot_cost_seconds"] >= decision["crossover_cost_seconds"]

    def test_decision_outside_result_identity(self):
        result = optimize(
            problem="sphere",
            seed=5,
            engine="auto",
            engine_params={"workers": 2},
            max_generations=2,
            pop_size=8,
        )
        assert result.engine_decision is not None
        assert "engine_decision" in result.to_dict()
        assert "engine_decision" not in result.identity_dict()

    def test_fixed_threshold_override_still_forces_process(self):
        # Zero IPC constants fix the crossover threshold at 0 s/row for any
        # round shape, so every measured workload commits to a 2+ worker
        # pool.
        result = optimize(
            problem="sphere",
            seed=5,
            engine="auto",
            engine_params={
                "workers": 2,
                "ipc_row_cost_seconds": 0.0,
                "round_overhead_seconds": 0.0,
                "pilot_rows": 1,
            },
            max_generations=2,
            pop_size=8,
        )
        assert result.engine_decision["chosen"] == "process"
        assert result.engine_decision["crossover_cost_seconds"] == 0.0
