"""Content-addressed warm-start cache for fused evaluation rounds.

The paper's whole economy is the *number of circuit simulations*: OCBA
exists to spend as few as possible.  Yet a deployment happily re-simulates
work it has already paid for — re-running a study after a crash or
replaying a sweep cell under a new aggregation both recompute sample
blocks whose performance rows are already known.  An
:class:`EvaluationCache` memoizes those rows, keyed on the *content* of the
request — a hash over the design vector bytes and the sample-block bytes —
so any evaluation that is bit-for-bit a repeat is served from memory (or
from a JSONL spill file shared across processes) instead of the simulator.

Ledger faithfulness
-------------------
A cache hit is **not** free in paper accounting.  The tables count every
Monte-Carlo sample the method *needed*, not every sample the machine
*computed*; a warm-started run needed exactly as many as a cold one.  Hits
are therefore still charged to the candidate's ledger category, and
additionally recorded under the ledger's separate ``cached`` column
(:meth:`repro.ledger.SimulationLedger.record_cached`) — mirroring how
acceptance-sampling screening is reported without distorting the totals.

Keys and correctness
--------------------
Keys cover the cache's ``namespace``, a cheap problem token (type + report
name), and the bytes/shapes of the design vector and the whole sample
block, so a lookup hits only when a block is bit-for-bit a repeat — size
included.  The API driver sets the namespace of the caches it creates to
the resolved problem name + factory parameters: two problems that share a
registry name but were built with different factory parameters hash apart
when resolved through :func:`repro.api.optimize`.  Hand-constructed
caches keep an empty namespace and fall back to the token alone, so share
one (or one spill file) only across runs of the same problem
configuration.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.registry import Registry, check_count

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "LRUEvaluationCache",
    "CachedRound",
    "CACHES",
    "make_cache",
    "block_key",
]


def block_key(namespace: str, problem, x: np.ndarray, samples: np.ndarray) -> str:
    """Content hash of one evaluation request: ``H(namespace, problem, x, samples)``."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(namespace.encode("utf-8"))
    digest.update(b"\x00")
    token = f"{type(problem).__qualname__}:{getattr(problem, 'name', '')}"
    digest.update(token.encode("utf-8"))
    digest.update(b"\x00")
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    samples = np.ascontiguousarray(np.asarray(samples, dtype=float))
    digest.update(repr(x.shape).encode("ascii"))
    digest.update(x.tobytes())
    digest.update(repr(samples.shape).encode("ascii"))
    digest.update(samples.tobytes())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Running counters (hits/misses/evictions) plus residency gauges."""

    #: Blocks served from the cache / sent to the simulator.
    hits: int = 0
    misses: int = 0
    #: Simulation rows replayed from the cache / actually simulated.
    hit_rows: int = 0
    miss_rows: int = 0
    #: Entries dropped to stay within the byte budget.
    evictions: int = 0
    #: Entries replayed from a spill file when the cache opened.  Reported
    #: absolute (like the gauges): loading happens at construction, before
    #: any per-run delta window opens.
    spill_loaded: int = 0
    #: Current residency (maintained by the cache, absolute not cumulative).
    entries: int = 0
    bytes: int = 0

    _COUNTERS = ("hits", "misses", "hit_rows", "miss_rows", "evictions")

    def to_dict(self) -> dict:
        """JSON-compatible snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rows": self.hit_rows,
            "miss_rows": self.miss_rows,
            "evictions": self.evictions,
            "spill_loaded": self.spill_loaded,
            "entries": self.entries,
            "bytes": self.bytes,
        }

    def delta(self, earlier: dict | None) -> dict:
        """Counters as differences since ``earlier``; gauges stay absolute.

        This is what one run reports when the cache is shared across runs:
        *its* hits and misses, but the cache's current size.
        """
        out = self.to_dict()
        for key in self._COUNTERS:
            out[key] -= (earlier or {}).get(key, 0)
        return out


class EvaluationCache:
    """Base class: key derivation and stats accounting.

    Subclasses implement ``_get(key)`` / ``_put(key, rows)``.  Caches are
    resolved by name through :data:`CACHES` (``RunSpec.cache``,
    ``optimize(cache=...)``, ``repro run --cache``) and attached to the
    execution engine for the duration of a run; one cache instance may
    serve many runs (that is the warm-start point).
    """

    name = "base"

    def __init__(self) -> None:
        #: Folded into every key; the API driver sets it on the caches it
        #: creates (see the module docstring).
        self.namespace = ""
        self.stats = CacheStats()

    # -- keying ------------------------------------------------------------
    def key(self, problem, x: np.ndarray, samples: np.ndarray) -> str:
        """The content key of one ``(design, sample-block)`` request."""
        return block_key(self.namespace, problem, x, samples)

    # -- lookup ------------------------------------------------------------
    def lookup(self, key: str, n_rows: int) -> np.ndarray | None:
        """The memoized performance rows for ``key``, or ``None`` (counted)."""
        rows = self._get(key)
        if rows is None:
            self.stats.misses += 1
            self.stats.miss_rows += n_rows
            return None
        self.stats.hits += 1
        self.stats.hit_rows += n_rows
        return rows

    def store(self, key: str, rows: np.ndarray) -> None:
        """Memoize freshly simulated performance rows under ``key``."""
        self._put(key, rows)

    # -- storage protocol --------------------------------------------------
    def _get(self, key: str) -> np.ndarray | None:
        raise NotImplementedError

    def _put(self, key: str, rows: np.ndarray) -> None:
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release resources (spill file handles); idempotent."""

    def __enter__(self) -> "EvaluationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats
        return (
            f"{type(self).__name__}(entries={stats.entries}, "
            f"bytes={stats.bytes}, hits={stats.hits}, misses={stats.misses})"
        )


class LRUEvaluationCache(EvaluationCache):
    """In-memory LRU cache with a byte budget and an optional JSONL spill.

    Parameters
    ----------
    max_bytes:
        Byte budget for the memoized performance rows; least-recently-used
        entries are evicted when a put exceeds it.  ``None`` disables the
        budget (unbounded).
    spill_path:
        Optional JSONL file the cache persists entries to.  Existing
        entries are loaded when the cache opens (this is what lets two
        ``repro run`` invocations — or the runs of a long sweep — share
        one warm cache); fresh entries append one flushed line each, so a
        killed process leaves at most one torn line behind, which the next
        load drops with a warning.  Concurrent appenders are tolerated on
        the same best-effort basis.

    Storage operations take an internal lock, so one instance may be
    shared across threads.  (The stats counters remain plain ints: racing
    increments can at worst under-count, never corrupt the store.)
    """

    name = "lru"

    def __init__(
        self,
        max_bytes: int | None = 256 * 2**20,
        spill_path=None,
    ) -> None:
        super().__init__()
        self.max_bytes, self.spill_path = self.validate_params(max_bytes, spill_path)
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self._spill_handle = None
        self._spill_needs_newline = False
        if self.spill_path is not None:
            self._load_spill()

    @staticmethod
    def validate_params(max_bytes: int | None = None, spill_path=None):
        """``(max_bytes, spill_path)`` checked and normalized, opening no file.

        The constructor passes both; spec validation passes what the spec
        sets.
        """
        if max_bytes is not None:
            max_bytes = check_count("max_bytes", max_bytes, 0)
        if spill_path is None:
            return max_bytes, None
        if not isinstance(spill_path, (str, bytes, os.PathLike)):
            raise TypeError(f"spill_path must be a file path, got {spill_path!r}")
        return max_bytes, os.fspath(spill_path)

    # -- storage -----------------------------------------------------------
    def _get(self, key: str) -> np.ndarray | None:
        with self._lock:
            rows = self._entries.get(key)
            if rows is not None:
                self._entries.move_to_end(key)
            return rows

    def _put(self, key: str, rows: np.ndarray) -> None:
        with self._lock:
            if key in self._entries:
                # Duplicate put (e.g. an identical block simulated before
                # the first one's rows landed): refresh recency, keep one
                # copy.
                self._entries.move_to_end(key)
                return
            # Detach from the caller's stacked round matrix: holding a
            # slice view would pin the whole round in memory.
            rows = np.array(rows, dtype=float)
            self._entries[key] = rows
            self._bytes += rows.nbytes
            if self.spill_path is not None:
                self._append_spill(key, rows)
            self._evict()
            self._update_gauges()

    def _evict(self) -> None:
        if self.max_bytes is None:
            return
        while self._bytes > self.max_bytes and self._entries:
            _, rows = self._entries.popitem(last=False)
            self._bytes -= rows.nbytes
            self.stats.evictions += 1

    def _update_gauges(self) -> None:
        self.stats.entries = len(self._entries)
        self.stats.bytes = self._bytes

    # -- spill file --------------------------------------------------------
    def _load_spill(self) -> None:
        """Stream the spill file in, evicting as the budget fills.

        The file is read line by line and eviction interleaves with
        insertion, so peak memory tracks ``max_bytes`` — not the file size,
        which an append-only spill (evicted entries are never compacted
        away; delete the file to reset it) can exceed by a lot on long
        sweeps.
        """
        path = self.spill_path
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return
        loaded = 0
        text = ""
        with open(path, encoding="utf-8") as handle:
            for line_no, text in enumerate(handle, start=1):
                if not text.strip():
                    continue
                entry = self._parse_spill_line(text, line_no)
                if entry is None:
                    continue
                key, rows = entry
                if key in self._entries:
                    continue
                self._entries[key] = rows
                self._bytes += rows.nbytes
                loaded += 1
                self._evict()
        # A process killed mid-append leaves an unterminated tail; appends
        # must not concatenate onto it, so the first fresh line starts with
        # a newline of its own.
        self._spill_needs_newline = bool(text) and not text.endswith("\n")
        self.stats.spill_loaded += loaded
        self._update_gauges()

    def _parse_spill_line(self, text: str, line_no: int):
        try:
            entry = json.loads(text)
            rows = np.frombuffer(
                base64.b64decode(entry["data"]), dtype=np.dtype(entry["dtype"])
            )
            rows = rows.reshape(entry["shape"]).astype(float)
            return str(entry["key"]), rows
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            warnings.warn(
                f"{self.spill_path}:{line_no}: dropping unreadable cache "
                f"spill line ({error}); that block will re-simulate",
                RuntimeWarning,
                stacklevel=4,
            )
            return None

    def _append_spill(self, key: str, rows: np.ndarray) -> None:
        if self._spill_handle is None:
            self._spill_handle = open(self.spill_path, "a", encoding="utf-8")
        line = json.dumps(
            {
                "key": key,
                "shape": list(rows.shape),
                "dtype": rows.dtype.str,
                "data": base64.b64encode(rows.tobytes()).decode("ascii"),
            }
        )
        prefix = "\n" if self._spill_needs_newline else ""
        self._spill_needs_newline = False
        # One write call per line keeps concurrent appenders from
        # interleaving mid-entry in practice; a torn tail is dropped (with
        # a warning) by the next load either way.
        self._spill_handle.write(prefix + line + "\n")
        self._spill_handle.flush()

    def close(self) -> None:
        if self._spill_handle is not None:
            self._spill_handle.close()
            self._spill_handle = None


class CachedRound:
    """One group of a refinement round partitioned into cache hits and
    misses.

    The engine builds this from the group's pending blocks, evaluates only
    :attr:`misses` (one stacked dispatch), then calls :meth:`assemble` to
    splice the simulated rows back into full block order and memoize them.
    The partition is computed before any dispatch, from the blocks'
    content alone, so it is deterministic.  Each block either hits or
    misses whole; :attr:`hit_rows` reports, per pending block, how many of
    its rows were replayed, which :func:`~repro.engine.base.scatter_round`
    turns into ledger accounting.
    """

    def __init__(self, cache: EvaluationCache, problem, pending) -> None:
        self.cache = cache
        self.pending = pending
        self.keys = [cache.key(problem, b.state.x, b.samples) for b in pending]
        self.rows = [cache.lookup(k, b.n_samples) for k, b in zip(self.keys, pending)]
        #: Blocks that genuinely need the simulator, in round order.
        self.misses = [b for b, rows in zip(pending, self.rows) if rows is None]
        #: Per-block replayed-row counts, aligned with the pending order.
        self.hit_rows = [
            b.n_samples if rows is not None else 0
            for b, rows in zip(pending, self.rows)
        ]

    def assemble(self, miss_performance: np.ndarray | None) -> np.ndarray:
        """Full-group performance matrix: cached rows + simulated rows.

        ``miss_performance`` is the stacked result of evaluating
        :attr:`misses` (``None`` when everything hit).  Simulated rows are
        memoized here, under the keys computed at partition time.
        """
        parts = []
        offset = 0
        for key, block, rows in zip(self.keys, self.pending, self.rows):
            if rows is None:
                stop = offset + block.n_samples
                rows = miss_performance[offset:stop]
                offset = stop
                self.cache.store(key, rows)
            parts.append(rows)
        return np.concatenate(parts)


#: Name -> evaluation-cache class; the API layer resolves through it.
CACHES: Registry = Registry("cache")
CACHES.register("lru", LRUEvaluationCache)


def make_cache(kind, **kwargs) -> EvaluationCache | None:
    """Coerce ``kind`` into a cache instance, or ``None`` (caching off).

    Accepts an existing :class:`EvaluationCache` (returned unchanged;
    ``kwargs`` are rejected), a registry name (instantiated with
    ``kwargs``), or ``None`` (no caching — unlike the engine there is no
    default instance, because reuse across runs is an explicit opt-in).
    """
    if kind is None:
        if kwargs:
            raise TypeError("cache parameters require a cache name (e.g. 'lru')")
        return None
    if isinstance(kind, EvaluationCache):
        if kwargs:
            raise TypeError(
                "cache parameters only apply when the cache is resolved "
                "by name; configure the instance directly instead"
            )
        return kind
    return CACHES.create(kind, **kwargs)
