"""Pluggable compact counter stores — per-flow state off the dense arrays.

DISCO's whole pitch is memory-efficient per-flow statistics, yet the
kernel stack carries every per-flow column as a dense ``int64``/
``float64`` NumPy array: 8 bytes per lane no matter that a DISCO counter
for a megabyte flow at ``b = 1.02`` fits in 9 bits.  At laptop scale
nobody notices; at the ROADMAP's "millions of concurrent flows" the
dense carry-state — not the engines — is what caps flow count.

A :class:`CounterStore` holds named *columns* (the same per-lane arrays
a :class:`~repro.core.kernels.KernelState` carries) in a compact
representation, with three backends:

``dense``
    The existing arrays, verbatim — the default, zero regression.
``pools``
    Counter-Pools-style packing: lanes are grouped into fixed-size
    pools, and each pool stores its counters at the narrowest width
    (1/2/4/8 bytes) that holds the pool's value range — a shared
    bit budget per pool rather than a global worst-case width.  A value
    outgrowing its pool's width *promotes* the whole pool to the next
    width on re-encode (counted in :attr:`PoolStore.promotions`).
    Lossless: decode returns the exact integers.  Because the columnar
    driver sorts flows by descending packet budget, elephants cluster
    into a few wide pools and the mouse majority packs at one byte per
    counter.
``morris``
    Morris-style probabilistic floating-point counters: an 8–16 bit
    level ``c`` decodes to the geometric value ``(a^c - 1)/(a - 1)``
    with ``a`` solved so the top level reaches ``cap``.  Encoding a
    value ``n`` between levels ``v_c`` and ``v_{c+1}`` stores ``c + 1``
    with probability ``(n - v_c)/(v_{c+1} - v_c)``, so the decode is
    *unbiased*: ``E[decode(encode(n))] = n`` exactly (up to the final
    integer rounding).  Lossy — each encode adds bounded relative
    variance ``~ (a - 1)/2`` per round-trip.

Stores compact at the **state boundary**, not in the hot loop: kernels
export their carry-state through a store
(:meth:`~repro.core.kernels.SchemeKernel.export_state` with
``store=``), and a later :meth:`~repro.core.kernels.SchemeKernel
.load_state` decodes the columns back into the fresh kernel's dense
arrays — the *dense scratch view*.  Vector and native engines therefore
run unmodified over dense columns; only what survives between chunks
(or into a checkpoint) pays the compact representation.

Randomised (Morris) encodes are seeded from the column *content*, so
the same dense input always encodes to the same levels — the property
that keeps checkpoint/resume bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import abc
import functools
import math
import zlib
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "CounterStore",
    "DenseStore",
    "PoolStore",
    "MorrisStore",
    "DEFAULT_STORE",
    "make_store",
    "resolve_store",
    "store_from_state",
    "store_names",
]

#: The zero-regression default: live dense arrays, no store object at all.
DEFAULT_STORE = "dense"

#: Signed / unsigned width ladders a pool may pack at (1, 2, 4, 8 bytes).
_SIGNED_WIDTHS = (np.int8, np.int16, np.int32, np.int64)
_UNSIGNED_WIDTHS = (np.uint8, np.uint16, np.uint32, np.int64)


class CounterStore(abc.ABC):
    """Named compact columns with a dense read/write/add surface.

    A store is a bag of columns keyed by name — one column per
    :class:`~repro.core.kernels.KernelState` lane array.  ``write``
    encodes a dense column into the backend representation, ``read``
    decodes it back (a fresh array the caller owns), ``add`` is the
    read-modify-write convenience for scatter accumulation.  The
    encoded representation round-trips bit-exactly through
    :meth:`export_state` / :meth:`load_state` — what you checkpoint is
    what you restore, for lossless and lossy backends alike (Morris
    randomness happens at *encode*; the stored levels are plain data).
    """

    #: Registry name, set per subclass.
    name: str = "?"
    #: Whether ``read(write(x))`` returns ``x`` exactly.
    lossless: bool = True

    def __init__(self) -> None:
        self._columns: Dict[str, dict] = {}

    # -- column surface ------------------------------------------------------

    def columns(self) -> List[str]:
        """Names of the columns currently held (insertion order)."""
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def _col(self, name: str) -> dict:
        try:
            return self._columns[name]
        except KeyError:
            raise ParameterError(
                f"store {self.name!r} holds no column {name!r}; "
                f"columns: {self.columns()!r}") from None

    @abc.abstractmethod
    def write(self, name: str, values: np.ndarray,
              order: Optional[np.ndarray] = None) -> None:
        """Encode a dense column into the store (replacing any previous).

        ``order`` (a permutation of the rows) fixes the sequence a
        randomised encoder visits rows in: it encodes as if
        ``values[order]`` were written, yet stores rows in natural
        order.  Deterministic backends ignore it.
        """

    @abc.abstractmethod
    def read(self, name: str) -> np.ndarray:
        """Decode a column back to a dense array (caller-owned)."""

    def read_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Decode only ``rows`` of a column: equals ``read(name)[rows]``.

        The random-access read a point query needs.  This default
        decodes the whole column; backends override it to touch only
        what holds ``rows``.
        """
        return self.read(name)[np.asarray(rows)]

    def add(self, name: str, rows: np.ndarray, deltas: np.ndarray) -> None:
        """Accumulate ``deltas`` into ``rows`` of a column (read-modify-write).

        The chunked-accumulation primitive: decode to the dense scratch
        view, scatter-add, re-encode.  Repeated rows accumulate
        (``np.add.at`` semantics).
        """
        dense = self.read(name)
        np.add.at(dense, np.asarray(rows), deltas)
        self.write(name, dense)

    # -- accounting ----------------------------------------------------------

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Payload bytes of the encoded columns (the honest footprint)."""

    # -- round-trip ----------------------------------------------------------

    def _params(self) -> Dict[str, object]:
        """Constructor parameters needed to rebuild an equivalent store."""
        return {}

    def export_state(self) -> Dict[str, object]:
        """The store as a plain picklable payload (arrays copied out)."""
        return {
            "store": self.name,
            "params": self._params(),
            "columns": {
                name: {key: (np.array(value, copy=True)
                             if isinstance(value, np.ndarray) else value)
                       for key, value in column.items()}
                for name, column in self._columns.items()
            },
        }

    def load_state(self, payload: Dict[str, object]) -> None:
        """Restore what :meth:`export_state` captured (bit-exact)."""
        if not isinstance(payload, dict) or payload.get("store") != self.name:
            raise ParameterError(
                f"payload is not a {self.name!r} store export: "
                f"{payload.get('store') if isinstance(payload, dict) else payload!r}")
        self._columns = {
            name: dict(column)
            for name, column in payload.get("columns", {}).items()
        }


class DenseStore(CounterStore):
    """The identity backend: columns stay verbatim dense arrays.

    Exists so every store-parameterised code path (metrics comparisons,
    round-trip tests) can treat "no compaction" uniformly; the kernel
    stack itself represents dense as *no store at all* (live arrays on
    the :class:`~repro.core.kernels.KernelState`), which is why
    :func:`resolve_store` maps ``"dense"`` to ``None``.
    """

    name = "dense"
    lossless = True

    def write(self, name: str, values: np.ndarray,
              order: Optional[np.ndarray] = None) -> None:
        self._columns[name] = {"data": np.array(values, copy=True)}

    def read(self, name: str) -> np.ndarray:
        return np.array(self._col(name)["data"], copy=True)

    def read_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        return self._col(name)["data"][np.asarray(rows)]

    def nbytes(self) -> int:
        return sum(int(col["data"].nbytes) for col in self._columns.values())


class PoolStore(CounterStore):
    """Counter-Pools packing: per-pool variable-width integer counters.

    Lanes are grouped into pools of ``pool_lanes`` consecutive counters;
    each pool is stored at the narrowest ladder width (1/2/4/8 bytes)
    that covers its value range, recorded in a per-pool width table.
    Encoding is a vectorised bucket-by-width gather; decoding scatters
    the width classes back into one dense array.  Exact for every
    integer column.  Non-integer columns (float side-state such as
    SAC's mantissa scale) stay dense — pools compact *counters*.

    ``promotions`` counts pools whose width class grew between two
    writes of the same column — the overflow-promotion events of the
    Counter Pools design (there they trigger a live repack; here the
    repack is the re-encode itself).
    """

    name = "pools"
    lossless = True

    def __init__(self, pool_lanes: int = 64) -> None:
        if pool_lanes < 1:
            raise ParameterError(
                f"pool_lanes must be >= 1, got {pool_lanes!r}")
        super().__init__()
        self.pool_lanes = int(pool_lanes)
        self.promotions = 0

    def _params(self) -> Dict[str, object]:
        return {"pool_lanes": self.pool_lanes}

    def write(self, name: str, values: np.ndarray,
              order: Optional[np.ndarray] = None) -> None:
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            self._columns[name] = {"kind": "dense",
                                   "data": np.array(values, copy=True)}
            return
        v = values.astype(np.int64, copy=False)
        n = int(v.size)
        P = self.pool_lanes
        pools = -(-n // P)
        padded = np.zeros(pools * P, dtype=np.int64)
        padded[:n] = v
        vm = padded.reshape(pools, P) if pools else padded.reshape(0, P)
        lo = vm.min(axis=1, initial=0)
        hi = vm.max(axis=1, initial=0)
        ladder_key = "u" if (n == 0 or int(lo.min(initial=0)) >= 0) else "i"
        ladder = _UNSIGNED_WIDTHS if ladder_key == "u" else _SIGNED_WIDTHS
        widths = np.full(pools, 3, dtype=np.uint8)
        for k in (2, 1, 0):
            info = np.iinfo(ladder[k])
            widths[(lo >= info.min) & (hi <= info.max)] = k
        previous = self._columns.get(name)
        if previous is not None and previous.get("kind") == "pools":
            old = previous["widths"]
            m = min(old.size, widths.size)
            if m:
                self.promotions += int(np.count_nonzero(
                    widths[:m] > old[:m]))
        segments = {}
        for k in range(len(ladder)):
            ids = np.flatnonzero(widths == k)
            if ids.size:
                segments[k] = (ids.astype(np.uint32),
                               np.ascontiguousarray(vm[ids]).astype(
                                   ladder[k]).ravel())
        self._columns[name] = {
            "kind": "pools", "n": n, "dtype": values.dtype.str,
            "ladder": ladder_key, "widths": widths, "segments": segments,
        }

    def read(self, name: str) -> np.ndarray:
        col = self._col(name)
        if col["kind"] == "dense":
            return np.array(col["data"], copy=True)
        n = col["n"]
        P = self.pool_lanes
        out = np.zeros(int(col["widths"].size) * P, dtype=np.int64)
        om = out.reshape(-1, P)
        for ids, data in col["segments"].values():
            om[ids.astype(np.int64)] = data.reshape(
                ids.size, P).astype(np.int64)
        return out[:n].astype(np.dtype(col["dtype"]), copy=True)

    def read_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Decode only the pools that hold ``rows``.

        A row's pool gives its width class; the pool's slot in that
        class's segment is one binary search over the segment's sorted
        pool ids.  Counter Pools' random access to one lane.
        """
        col = self._col(name)
        rows = np.asarray(rows)
        if col["kind"] == "dense":
            return col["data"][rows]
        n = col["n"]
        flat = rows.astype(np.int64).ravel()
        if flat.size and (flat.min() < -n or flat.max() >= n):
            raise IndexError(f"rows out of bounds for column {name!r} "
                             f"of size {n}")
        flat = np.where(flat < 0, flat + n, flat)
        P = self.pool_lanes
        pools = flat // P
        widths = col["widths"][pools]
        out = np.zeros(flat.size, dtype=np.int64)
        for k, (ids, data) in col["segments"].items():
            sel = np.flatnonzero(widths == k)
            if sel.size:
                slots = np.searchsorted(ids, pools[sel])
                out[sel] = data[slots * P + flat[sel] % P]
        return out.astype(np.dtype(col["dtype"])).reshape(rows.shape)

    def nbytes(self) -> int:
        total = 0
        for col in self._columns.values():
            if col["kind"] == "dense":
                total += int(col["data"].nbytes)
                continue
            total += int(col["widths"].nbytes)
            for ids, data in col["segments"].values():
                total += int(ids.nbytes) + int(data.nbytes)
        return total


@functools.lru_cache(maxsize=8)
def _morris_base(bits: int, cap: int) -> float:
    """Growth base ``a`` with ``(a^(L-1) - 1)/(a - 1) == cap`` levels."""
    levels = 1 << bits
    top = levels - 1

    def excess(a: float) -> float:
        # log form of "(a^top - 1)/(a - 1) - cap": a^top vs cap*(a-1)+1,
        # compared in log domain so the bisection never overflows.
        return top * math.log(a) - math.log1p(cap * (a - 1.0))

    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@functools.lru_cache(maxsize=8)
def _morris_table(bits: int, cap: int) -> np.ndarray:
    """Decode table ``v_c = (a^c - 1)/(a - 1)`` for every level (read-only)."""
    a = _morris_base(bits, cap)
    table = np.expm1(np.arange(1 << bits, dtype=np.float64)
                     * math.log(a)) / (a - 1.0)
    table.setflags(write=False)
    return table


class MorrisStore(CounterStore):
    """Morris / floating-point counters: 8–16 bit unbiased levels.

    Each counter is one ``bits``-wide level into the geometric decode
    table; encode randomises between the two bracketing levels with the
    exact probability that makes the decode unbiased.  The per-encode
    relative standard deviation is ``~ sqrt((a - 1)/2)`` (``a`` is the
    table base — about 0.6 % at 16 bits, 18 % at 8 bits for the default
    ``cap``), and it *accumulates* across round-trips: every chunk
    boundary of a streaming run re-encodes, so long streams trade
    accuracy for the 4–8x footprint cut.  Lossless columns it cannot
    represent (floats, negatives) stay dense.

    Encoding randomness is seeded from the column content (CRC of the
    dense bytes), so equal inputs encode equally — the determinism that
    keeps interrupted-and-resumed streams bit-identical.
    """

    name = "morris"
    lossless = False

    def __init__(self, bits: int = 16, cap: int = 1 << 62) -> None:
        if not 8 <= int(bits) <= 16:
            raise ParameterError(
                f"morris bits must be in [8, 16], got {bits!r}")
        if cap < 2:
            raise ParameterError(f"morris cap must be >= 2, got {cap!r}")
        super().__init__()
        self.bits = int(bits)
        self.cap = int(cap)

    def _params(self) -> Dict[str, object]:
        return {"bits": self.bits, "cap": self.cap}

    @property
    def table(self) -> np.ndarray:
        """The decode table (module-cached; never pickled per store)."""
        return _morris_table(self.bits, self.cap)

    @property
    def _level_dtype(self):
        return np.uint8 if self.bits <= 8 else np.uint16

    def write(self, name: str, values: np.ndarray,
              order: Optional[np.ndarray] = None) -> None:
        values = np.asarray(values)
        if values.dtype.kind not in "iu" or (
                values.size and int(values.min()) < 0):
            self._columns[name] = {"kind": "dense",
                                   "data": np.array(values, copy=True)}
            return
        if order is not None:
            values = values[order]
        table = self.table
        top = table.size - 1
        v = values.astype(np.float64)
        np.minimum(v, float(table[top]), out=v)
        c = np.searchsorted(table, v, side="right") - 1
        c = np.minimum(c, top - 1)
        lo = table[c]
        span = table[c + 1] - lo
        frac = (v - lo) / span
        seed = (zlib.crc32(np.ascontiguousarray(values).tobytes())
                ^ zlib.crc32(name.encode("utf-8")))
        u = np.random.default_rng(seed).random(v.size)
        levels = (c + (u < frac)).astype(self._level_dtype)
        if order is not None:
            levels[order] = levels.copy()
        self._columns[name] = {"kind": "morris", "dtype": values.dtype.str,
                               "levels": levels}

    def read(self, name: str) -> np.ndarray:
        col = self._col(name)
        if col["kind"] == "dense":
            return np.array(col["data"], copy=True)
        decoded = np.rint(self.table[col["levels"].astype(np.int64)])
        return decoded.astype(np.dtype(col["dtype"]), copy=False)

    def read_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Decode only ``levels[rows]``."""
        col = self._col(name)
        rows = np.asarray(rows)
        if col["kind"] == "dense":
            return col["data"][rows]
        decoded = np.rint(self.table[col["levels"][rows].astype(np.int64)])
        return decoded.astype(np.dtype(col["dtype"]), copy=False)

    def nbytes(self) -> int:
        total = 0
        for col in self._columns.values():
            if col["kind"] == "dense":
                total += int(col["data"].nbytes)
            else:
                total += int(col["levels"].nbytes)
        return total


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_STORES: Dict[str, type] = {
    "dense": DenseStore,
    "pools": PoolStore,
    "morris": MorrisStore,
}


def store_names() -> List[str]:
    """Registered counter-store backend names (sorted)."""
    return sorted(_STORES)


def make_store(name: str, **params) -> CounterStore:
    """Build a fresh, empty store by registry name."""
    cls = _STORES.get(name)
    if cls is None:
        raise ParameterError(
            f"unknown counter store {name!r}; one of: "
            f"{', '.join(store_names())}")
    return cls(**params)


def resolve_store(store: Union[None, str]) -> Optional[str]:
    """Validate a ``store=`` argument to its canonical compact name.

    ``None`` and ``"dense"`` both mean *live dense arrays* — no store
    object anywhere in the pipeline — and resolve to ``None``; compact
    backends resolve to their registry name.  Anything else raises
    :class:`~repro.errors.ParameterError` eagerly, before any replay
    work, matching the repo's validation style.
    """
    if store is None:
        return None
    if isinstance(store, str):
        if store not in _STORES:
            raise ParameterError(
                f"unknown counter store {store!r}; one of: "
                f"{', '.join(store_names())}")
        return None if store == DEFAULT_STORE else store
    raise ParameterError(
        f"store must be a backend name ({', '.join(store_names())}) or "
        f"None, got {store!r}")


def store_from_state(payload: Dict[str, object]) -> CounterStore:
    """Rebuild a store from an :meth:`CounterStore.export_state` payload."""
    if not isinstance(payload, dict) or "store" not in payload:
        raise ParameterError(f"not a store export payload: {payload!r}")
    store = make_store(payload["store"], **payload.get("params", {}))
    store.load_state(payload)
    return store
