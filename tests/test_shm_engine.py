"""Process engine on circuit-priced rounds.

The process pool ships each chunk of a round to its workers as three
plain arrays, ``(designs, sizes, samples)``.  These tests pin the engine
contract that matters: results are bit-identical to
:class:`~repro.engine.serial.SerialEngine` for any worker count, with and
without a warm-start cache, on ``netlist_ota``, the costliest built-in
circuit per row.  (The ``shm`` in some test names is historical: the pool
used to stage rounds in shared memory.)
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

