"""Chunk format of the process and remote engines (stdlib + NumPy only).

One refinement round's miss blocks leave the parent as *chunks* —
contiguous runs of pending blocks packed into one :class:`ChunkRequest`.
:class:`~repro.engine.process.ProcessPoolEngine` pickles the request to
its pool; :class:`~repro.engine.remote.RemoteEngine` serializes it as JSON
so it can cross a host boundary over plain HTTP.

Bit-exactness is the whole contract: array payloads travel as base64 of
their raw little-endian ``float64`` bytes (never a decimal rendering), so
a row simulated on a remote worker is byte-for-byte the row the parent
would have produced locally, and :class:`~repro.engine.remote.RemoteEngine`
results stay identical to :class:`~repro.engine.serial.SerialEngine` for
any worker set, chunk size, or failure/re-dispatch history.

The problem itself crosses the wire *once*, not per chunk: a
:func:`encode_problem` payload (pickle, addressed by a content token)
installs it on the worker, and every subsequent chunk references the
token — mirroring the process pool's ``_init_worker`` pattern.  Pickle
implies the same trust model as ``multiprocessing``: only run ``repro
worker`` for parents you trust.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import dataclass

import numpy as np

from repro.yieldsim.estimator import PendingRefinement

__all__ = [
    "encode_array",
    "decode_array",
    "encode_problem",
    "decode_problem",
    "ChunkRequest",
]

#: Canonical on-wire dtype: every design vector and sample matrix in the
#: engine layer is float64 already; pinning it (little-endian) keeps the
#: format byte-stable across hosts.
_WIRE_DTYPE = np.dtype("<f8")


def encode_array(array: np.ndarray) -> dict:
    """A float64 array as a JSON-safe ``{shape, data}`` payload.

    The bytes are the array's own IEEE-754 representation — decoding
    reproduces it exactly, which is what the engine's bit-identity
    guarantee rests on.
    """
    array = np.ascontiguousarray(np.asarray(array, dtype=_WIRE_DTYPE))
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`; raises ``ValueError`` on bad shape."""
    shape = tuple(int(n) for n in payload["shape"])
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=_WIRE_DTYPE)
    expected = int(np.prod(shape)) if shape else 1
    if array.size != expected:
        raise ValueError(
            f"array payload holds {array.size} values, shape {shape} "
            f"needs {expected}"
        )
    # frombuffer views are read-only; copy so callers own mutable data.
    return array.reshape(shape).astype(np.float64, copy=True)


def encode_problem(problem) -> dict:
    """The one-time problem-install payload: pickle + content token.

    The token is a hash of the pickle bytes, so two parents shipping the
    identical problem configuration share one warm worker-side instance,
    and any change to the problem re-installs under a fresh token.
    """
    blob = pickle.dumps(problem)
    token = hashlib.blake2b(blob, digest_size=16).hexdigest()
    return {"token": token, "pickle": base64.b64encode(blob).decode("ascii")}


def decode_problem(payload: dict):
    """Inverse of :func:`encode_problem`; returns ``(token, problem)``."""
    blob = base64.b64decode(payload["pickle"])
    token = hashlib.blake2b(blob, digest_size=16).hexdigest()
    declared = payload.get("token")
    if declared is not None and declared != token:
        raise ValueError(
            f"problem payload token mismatch: declared {declared}, "
            f"content hashes to {token}"
        )
    return token, pickle.loads(blob)


class _DesignShell:
    """Worker-side stand-in for a candidate state: just the design vector."""

    __slots__ = ("x",)

    def __init__(self, x: np.ndarray) -> None:
        self.x = x


@dataclass
class ChunkRequest:
    """One evaluate-this request: a contiguous run of pending blocks.

    ``designs`` holds one row per block, ``samples`` the stacked sample
    rows, and ``blocks`` the ``(design_row, start_row, stop_row)`` extents
    tying them together.  ``problem_token`` references a problem
    previously installed on a remote worker via :func:`encode_problem`;
    the process pool leaves it empty, because its workers receive the
    problem at start-up.
    """

    problem_token: str
    designs: np.ndarray
    samples: np.ndarray
    blocks: list[tuple[int, int, int]]

    @classmethod
    def from_pending(cls, problem_token: str, pending) -> "ChunkRequest":
        """Build the request for a chunk of pending refinement blocks."""
        designs = np.stack(
            [np.asarray(block.state.x, dtype=np.float64) for block in pending]
        )
        samples = np.concatenate(
            [
                np.atleast_2d(np.asarray(block.samples, dtype=np.float64))
                for block in pending
            ]
        )
        blocks, start = [], 0
        for row, block in enumerate(pending):
            stop = start + block.n_samples
            blocks.append((row, start, stop))
            start = stop
        return cls(problem_token, designs, samples, blocks)

    @property
    def n_rows(self) -> int:
        """Sample rows awaiting simulation."""
        return int(self.samples.shape[0])

    def to_pending(self) -> list[PendingRefinement]:
        """Rebuild the worker-side pending blocks (design shells only)."""
        return [
            PendingRefinement(
                _DesignShell(self.designs[row]),
                self.samples[start:stop],
                "remote",
            )
            for row, start, stop in self.blocks
        ]

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "problem_token": self.problem_token,
            "designs": encode_array(self.designs),
            "samples": encode_array(self.samples),
            "blocks": [list(extent) for extent in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkRequest":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad extents."""
        designs = decode_array(data["designs"])
        samples = decode_array(data["samples"])
        blocks = []
        for extent in data["blocks"]:
            row, start, stop = (int(v) for v in extent)
            if not (0 <= row < designs.shape[0]):
                raise ValueError(f"design row {row} outside {designs.shape}")
            if not (0 <= start < stop <= samples.shape[0]):
                raise ValueError(
                    f"block extent [{start}, {stop}) outside the "
                    f"{samples.shape[0]}-row sample matrix"
                )
            blocks.append((row, start, stop))
        return cls(str(data["problem_token"]), designs, samples, blocks)
