"""Pinned outputs of the two analytic circuit evaluators.

``tests/goldens/evaluators.json`` holds the sha256 of
``evaluate_pairs(X, samples).view(np.int64)`` for the folded-cascode and
telescopic amplifiers at 1, 50, 700 and 2048 rows, in three shapes:

* ``pairs``: one random design per row, each at its own process sample;
* ``shared``: one design row shared by every sample;
* ``nominal``: one random design per row, all at the nominal process
  point (the feasibility gate's shape).

A change to the evaluators' arithmetic that claims to change nothing must
leave every hash as it is.  Like ``test_goldens.py``, the hashes are only
checked on the platform that pinned them.

Regenerate (only for a change that is *meant* to alter results)::

    PYTHONPATH=src python tests/test_evaluator_goldens.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from test_goldens import fingerprint

from repro.circuit.tech import C035Technology, N90Technology
from repro.circuit.topologies import FoldedCascodeAmplifier, TwoStageTelescopicAmplifier

GOLDENS = Path(__file__).resolve().parent / "goldens" / "evaluators.json"

CIRCUITS = {
    "folded_cascode": lambda: FoldedCascodeAmplifier(C035Technology()),
    "telescopic": lambda: TwoStageTelescopicAmplifier(N90Technology()),
}
SHAPES = ("pairs", "shared", "nominal")
ROWS = (1, 50, 700, 2048)
CASES = [(c, s, r) for c in CIRCUITS for s in SHAPES for r in ROWS]


def case_key(circuit: str, shape: str, rows: int) -> str:
    return f"{circuit}/{shape}/{rows}"


def case_inputs(amp, shape: str, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(X, samples)`` of one case; seeded by its row count."""
    rng = np.random.default_rng(rows)
    designs = amp.design_space().sample(rows, rng)
    samples = amp.variation.sample(rows, rng)
    if shape == "shared":
        return designs[:1], samples
    if shape == "nominal":
        nominal = amp.variation.nominal()
        return designs, np.broadcast_to(nominal, (rows, nominal.size))
    return designs, samples


def output_hash(amp, shape: str, rows: int) -> str:
    out = amp.evaluate_pairs(*case_inputs(amp, shape, rows))
    assert out.shape == (rows, len(amp.metric_names()))
    bits = np.ascontiguousarray(out).view(np.int64)
    return hashlib.sha256(bits.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    stored = json.loads(GOLDENS.read_text())
    here = fingerprint()
    if stored["fingerprint"] != here:
        pytest.skip(
            f"evaluator goldens pinned on {stored['fingerprint']}; "
            f"this platform is {here}"
        )
    return stored["cases"]


@pytest.fixture(scope="module", params=list(CIRCUITS))
def amp(request):
    return request.param, CIRCUITS[request.param]()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("shape", SHAPES)
def test_output_matches_golden(goldens, amp, shape, rows):
    circuit, evaluator = amp
    expected = goldens[case_key(circuit, shape, rows)]
    assert output_hash(evaluator, shape, rows) == expected


def test_goldens_cover_every_case():
    stored = json.loads(GOLDENS.read_text())["cases"]
    assert set(stored) == {case_key(*case) for case in CASES}


if __name__ == "__main__":
    amps = {name: build() for name, build in CIRCUITS.items()}
    cases = {
        case_key(c, s, r): output_hash(amps[c], s, r) for c, s, r in CASES
    }
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(
        json.dumps({"fingerprint": fingerprint(), "cases": cases}, indent=2) + "\n"
    )
    print(f"wrote {len(cases)} evaluator goldens to {GOLDENS}")
