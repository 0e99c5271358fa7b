"""Vectorised columnar kernels: one per counting-scheme family.

PR 1 made DISCO replay array-natively; every *comparative* figure still
replayed the same trace through SAC, ANLS-I/II and SD with the per-packet
``observe()`` loop, so comparator time dominated the whole evaluation.
This module generalises the batch engine into a **scheme-kernel
interface**: a scheme exposes a :class:`SchemeKernel` — columnar update /
estimate callables over NumPy columns — and the driver in
:mod:`repro.core.batchreplay` replays any kernel over a
:class:`~repro.traces.compiled.CompiledTrace`, including an optional
**replica axis** (R independent seeded replicas of one (scheme, trace)
pair advanced in a single columnar pass).

Kernel contract
---------------
A kernel owns one lane of state per (flow, replica); lanes are laid out
flow-major (``lane = flow_index * replicas + replica``) so that with
flows sorted by descending packet budget the still-active lanes at any
column are a contiguous prefix.  The driver calls

* :meth:`SchemeKernel.step_column` once per packet column over the active
  prefix — the vector hot path;
* :meth:`SchemeKernel.tail_flow` per surviving lane once the prefix
  narrows below the kernel's preferred width — a scalar finish that
  avoids paying NumPy's fixed per-call cost on one- or two-lane columns.

Kernels replay the *same update law* as the scheme's reference
``observe()`` loop — the same sampling probabilities, renormalisation
rules and saturation handling — but consume a ``numpy`` random stream
column-major instead of a ``random.Random`` stream packet-major, so
randomised kernels are **distributionally equivalent**, not
bit-identical.  The one exception is :class:`ExactKernel` (and any other
kernel whose update is a deterministic, order-independent integer sum):
its final estimates are bit-identical to the reference loop, and
``engine="auto"`` will pick the kernel path for those schemes only.

Discovery
---------
Schemes advertise a kernel through a ``kernel()`` method returning a
:class:`KernelSpec` (or ``None`` when their current configuration is
scalar-only); :func:`kernel_spec` is the harness-facing probe that also
rejects pre-observed schemes.  The module-level registry maps scheme
names to a short eligibility note, so error messages can list exactly
which schemes *do* have kernels.
"""

from __future__ import annotations

import abc
import math
import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "SchemeKernel",
    "KernelSpec",
    "KernelState",
    "kernel_spec",
    "kernel_scheme_names",
    "DiscoKernel",
    "SacKernel",
    "AnlsKernel",
    "AnlsPerUnitKernel",
    "SdKernel",
    "ExactKernel",
    "AeeKernel",
    "IceKernel",
]


# ---------------------------------------------------------------------------
# interface + registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A scheme's offer to be replayed columnar.

    ``factory(lanes, gen, replicas)`` builds a fresh kernel holding
    ``lanes`` lanes of state (``flows * replicas``, flow-major) driven by
    the shared ``numpy.random.Generator``.  ``bit_identical`` is True
    only when the kernel's final *estimates* provably equal the reference
    per-packet loop's for every trace and seed (deterministic,
    order-independent updates); ``engine="auto"`` uses it to decide
    whether the kernel path may replace the reference loop silently.
    """

    scheme: str
    mode: str
    factory: Callable[[int, np.random.Generator, int], "SchemeKernel"]
    bit_identical: bool = False


@dataclass
class KernelState:
    """Portable carry-state of a kernel replay (the streaming carry-in/out).

    The state is positional and holds no flow keys: row ``i`` is the
    ``i``-th flow of the replay that exported it, and whoever exported
    it keeps the keys if it needs them.  ``flows`` counts the rows;
    ``arrays`` holds the flow-major lane arrays (``lane = row *
    replicas + replica``), copied out so the snapshot is independent of
    the kernel that produced it; ``scalars`` carries per-kernel extras
    that are not per-lane (SAC's per-replica ``r``, SD's DRAM-slot
    carry).  A state loads into a *fresh* kernel by position, so a
    caller that reorders or extends the flow set gathers the rows into
    the new order first — every kernel's lanes start at zero, so a
    zero row is a flow with no carried state.

    When exported through a compact counter store
    (:meth:`SchemeKernel.export_state` with ``store=``), the lane
    columns live encoded in ``store`` (a
    :class:`repro.core.stores.CounterStore`) and ``arrays`` is empty;
    :meth:`dense_arrays` is the uniform dense read — the *dense scratch
    view* every consumer (``load_state``, read-outs) decodes through,
    so hot loops never see the compact representation.
    """

    flows: int
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]
    replicas: int = 1
    #: Optional compact backend holding the columns instead of
    #: ``arrays`` (default ``None`` = dense).
    store: Optional[object] = None

    @property
    def store_name(self) -> str:
        """Backend name the columns are held in (``"dense"`` = live arrays)."""
        return "dense" if self.store is None else self.store.name

    def dense_arrays(self) -> Dict[str, np.ndarray]:
        """The lane columns as dense arrays, whatever backend holds them.

        Dense states return the live ``arrays`` dict (no copy); compact
        states decode every column — the staging step that keeps the
        columnar engines dense-only.
        """
        if self.store is None:
            return self.arrays
        return {name: self.store.read(name) for name in self.store.columns()}

    def nbytes(self) -> int:
        """Payload size of the lane columns as actually represented.

        Dense states sum the array bytes; compact states report the
        encoded footprint — the number checkpoint accounting and
        :mod:`repro.metrics.memory` treat as the honest per-flow cost.
        """
        if self.store is not None:
            return int(self.store.nbytes())
        return sum(int(arr.nbytes) for arr in self.arrays.values())


class SchemeKernel(abc.ABC):
    """Columnar state for one scheme over ``lanes`` (flow, replica) lanes."""

    #: Whether :meth:`tail_flow` is implemented; if not, the driver runs
    #: column steps all the way down to single-lane columns.
    supports_tail: bool = False
    #: Whether the kernel can export/import :class:`KernelState` — the
    #: hook the streaming subsystem needs to carry per-flow state across
    #: chunk replays.  Kernels with state the snapshot cannot capture
    #: (none in-tree) leave this False and are rejected by ``stream()``.
    resumable: bool = False
    #: Whether a lane's update law reads and writes that lane only, with
    #: no per-replica global state (SAC's scale ``r``, SD's CMA flush,
    #: ICE's position-based buckets all couple lanes).  A property of
    #: the law, not an option: streaming replays only a chunk's touched
    #: lanes for such kernels, which is bit-identical because rows
    #: without packets sort past the active prefix and draw nothing.
    lane_local: bool = False
    #: Active-prefix width (in lanes) below which the scalar tail beats a
    #: NumPy column step.  DISCO's 128 is tuned for its dwell-regime tail;
    #: plain arithmetic kernels break even far narrower.
    preferred_min_lanes: int = 16

    def __init__(self, lanes: int, gen: np.random.Generator,
                 replicas: int = 1) -> None:
        self.lanes = int(lanes)
        self.gen = gen
        self.replicas = max(1, int(replicas))
        self.saturation_events = 0
        self._tail_rand: Optional[Callable[[], float]] = None

    def _draw(self) -> Callable[[], float]:
        """Shared scalar uniform source for tail phases.

        A Mersenne scalar draw is ~10x cheaper than a NumPy Generator
        scalar call; seeding it from the shared stream keeps the replay a
        deterministic function of one seed.  Created lazily so kernels
        that never enter the tail consume nothing.
        """
        if self._tail_rand is None:
            self._tail_rand = random.Random(
                int(self.gen.integers(1 << 63))).random
        return self._tail_rand

    @abc.abstractmethod
    def step_column(self, column, active: int) -> None:
        """Advance lanes ``0..active`` by one packet each.

        ``column`` is a ``float64`` array of per-lane amounts (volume
        mode) or the scalar ``1.0`` (size mode).
        """

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        """Finish one lane scalar-side: ``count`` remaining packets.

        ``lengths`` holds the remaining packet lengths (volume mode) or
        is ``None`` (size mode, every amount is 1).
        """
        raise NotImplementedError(f"{type(self).__name__} has no scalar tail")

    def native_step(self):
        """Compiled whole-replay hook for ``engine="native"``.

        Kernels with a native lowering (:mod:`repro.core.native`) return
        ``run(compiled, mode, min_lanes) -> NativeStats`` operating in
        place on their state arrays; ``None`` (the default) makes the
        driver fall back to the columnar step/tail loop — the same
        update law, just without the compiled fast path.
        """
        return None

    @abc.abstractmethod
    def counters(self) -> np.ndarray:
        """Per-lane raw counter image (``int64``): what the hardware
        counter array would hold — DISCO/ANLS counter values, SAC's
        packed ``(mode, A)`` words, SD's full DRAM+SRAM totals."""

    @abc.abstractmethod
    def estimates(self) -> np.ndarray:
        """Per-lane estimator read-out (``float64``)."""

    @abc.abstractmethod
    def writeback(self, scheme, keys: List, packets: int) -> None:
        """Restore replica 0's final state into ``scheme`` so its read-out
        surface (``estimate`` / ``flows`` / ``max_counter_bits`` / event
        counters) reflects the replay, as after a per-packet run."""

    def telemetry_events(self) -> Dict[str, int]:
        """Scheme-specific event counters, harvested after a replay.

        Kernels maintain these as plain integer attributes during the
        run (they always have — the attributes feed ``writeback``), so
        harvesting is free: the driver reads the totals once per replay
        and folds them into the run's :class:`repro.obs.Telemetry`
        snapshot.  Names follow ``kernel.<scheme>.<event>``; the
        catalogue lives in ``docs/telemetry.md``.
        """
        if self.saturation_events:
            return {"kernel.saturation_events": self.saturation_events}
        return {}

    # -- resumable state (carry-in / carry-out) ------------------------------

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        """Live views of the per-lane state arrays, by name.

        Resumable kernels override this (and optionally the scalar
        hooks below); :meth:`export_state` / :meth:`load_state` do the
        copying generically.
        """
        raise NotImplementedError(f"{type(self).__name__} is not resumable")

    def _state_scalars(self) -> Dict[str, object]:
        """Copies of non-lane state (per-replica globals etc.)."""
        return {}

    def _load_state_scalars(self, scalars: Dict[str, object]) -> None:
        """Restore what :meth:`_state_scalars` captured."""

    def export_state(self, keys: List, store=None) -> KernelState:
        """Snapshot the per-lane state of this replay's flows (carry-out).

        ``keys`` is the replay's flow ordering; only its length is read
        — row ``i`` of the returned arrays is flow ``i``'s lanes.

        ``store`` selects the counter-store backend holding the
        exported columns (:mod:`repro.core.stores`): ``None``/
        ``"dense"`` copies the live arrays as before; a compact name
        (``"pools"``, ``"morris"``) encodes each column and the state
        carries the store instead of dense arrays.  Loading decodes
        transparently, so callers downstream never branch on the
        backend.
        """
        from repro.core import stores as _stores

        width = len(keys) * self.replicas
        arrays = {name: np.array(arr[:width], copy=True)
                  for name, arr in self._state_arrays().items()}
        store_name = _stores.resolve_store(store)
        compact = None
        if store_name is not None:
            compact = _stores.make_store(store_name)
            for name, arr in arrays.items():
                compact.write(name, arr)
            arrays = {}
        return KernelState(flows=len(keys), arrays=arrays,
                           scalars=self._state_scalars(),
                           replicas=self.replicas, store=compact)

    def load_state(self, keys: List, state: KernelState) -> None:
        """Load carried state into this (fresh) kernel (carry-in).

        ``keys`` is this replay's flow ordering; rows match by
        position, so row ``i`` of ``state`` fills flow ``i``'s lanes and
        flows past ``state.flows`` keep their zeroed lanes.  A state
        with more rows than the replay has flows is an error.
        """
        if state.flows > len(keys):
            raise ParameterError(
                f"carried state has {state.flows} flows, "
                f"the replay has {len(keys)}")
        self.load_rows(state)

    def load_rows(self, state: KernelState) -> None:
        """Load carried state by position: row ``i`` fills flow ``i``'s lanes.

        :meth:`load_state` without its checks and without any
        kernel-specific re-layout — what read-outs load through.
        """
        live, carried = self._carried_arrays(state)
        for name, arr in carried.items():
            live[name][:arr.size] = arr
        self._load_state_scalars(dict(state.scalars))

    def _carried_arrays(self, state: KernelState):
        """This kernel's live arrays and ``state``'s dense columns, checked."""
        if state.replicas != self.replicas:
            raise ParameterError(
                f"carried state has {state.replicas} replicas, "
                f"kernel has {self.replicas}")
        live = self._state_arrays()
        carried = state.dense_arrays()
        for name in carried:
            if name not in live:
                raise ParameterError(
                    f"carried state array {name!r} unknown to "
                    f"{type(self).__name__}")
        return live, carried

    # -- shared helpers ------------------------------------------------------

    def _replica0(self, array: np.ndarray) -> np.ndarray:
        """Replica-0 lanes of a flow-major lane array (one row per flow)."""
        return array[:: self.replicas]


#: scheme name -> one-line eligibility note, populated at class definition.
_REGISTRY: Dict[str, str] = {}


def _register(name: str, note: str) -> None:
    _REGISTRY[name] = note


def kernel_scheme_names() -> List[str]:
    """Names of schemes that can expose a columnar kernel (sorted)."""
    return sorted(_REGISTRY)


def kernel_spec(scheme) -> Optional[KernelSpec]:
    """The scheme's :class:`KernelSpec`, or ``None`` if scalar-only.

    Central gate for every engine decision: a kernel replays a *fresh*
    sketch, so pre-observed schemes are rejected here regardless of what
    their ``kernel()`` hook would say.
    """
    try:
        if len(scheme) != 0:
            return None
    except TypeError:
        return None
    hook = getattr(scheme, "kernel", None)
    if not callable(hook):
        return None
    return hook()


# ---------------------------------------------------------------------------
# DISCO
# ---------------------------------------------------------------------------

#: Process-wide Algorithm-1 decision memos, one per ``b``.  The memo is
#: an exact pure-function table (``(c, l) -> (delta, p)``), so sharing
#: it across kernel instances is bit-identical to a private cache — and
#: chunked stream replays, which build a fresh kernel per shard-chunk,
#: keep a warm table instead of re-deriving the same decisions every
#: chunk.
_UPDATE_CACHES: Dict[float, object] = {}
_UPDATE_CACHES_LOCK = threading.Lock()


def _shared_update_cache(b: float):
    # Double-checked under a lock: the native backend and daemon paths
    # probe this memo from worker threads, and two racing creators would
    # otherwise hand out distinct caches (breaking the shared-warmth
    # contract) or interleave dict writes.
    cache = _UPDATE_CACHES.get(b)
    if cache is None:
        with _UPDATE_CACHES_LOCK:
            cache = _UPDATE_CACHES.get(b)
            if cache is None:
                from repro.core.fastpath import UpdateCache
                from repro.core.functions import GeometricCountingFunction

                cache = UpdateCache(GeometricCountingFunction(b))
                _UPDATE_CACHES[b] = cache
    return cache


class DiscoKernel(SchemeKernel):
    """Array-native DISCO (Algorithm 1), ported from the PR-1 engine.

    Columns go through :meth:`VectorDisco.step_active`; the tail has two
    scalar regimes — memoized full decisions while ``b^c`` can still be
    jumped by one packet, then the log-threshold dwell phase where every
    decision collapses to one float comparison (see
    :mod:`repro.core.batchreplay` for the derivation).  Under
    ``engine="native"`` :func:`repro.core.native.disco_runner` runs both
    phases in C instead.
    """

    supports_tail = True
    preferred_min_lanes = 128
    resumable = True
    lane_local = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 b: float, capacity_bits: Optional[int] = None) -> None:
        super().__init__(lanes, gen, replicas)
        from repro.core.vectorized import VectorDisco

        self.state = VectorDisco(b, max(lanes, 1), rng=gen)  # validates b
        self.b = float(b)
        self._ln_b = math.log(self.b)
        self.max_value = (1 << capacity_bits) - 1 if capacity_bits else None
        self._cache = None
        #: Native steps that found their counter past the runner's exact
        #: power tables and called libm instead (same result, slower).
        self.table_fallbacks = 0

    def native_step(self):
        from repro.core import native

        return native.disco_runner(self)

    def telemetry_events(self) -> Dict[str, int]:
        events = super().telemetry_events()
        events["kernel.disco.table_fallbacks"] = self.table_fallbacks
        return events

    def step_column(self, column, active: int) -> None:
        self.state.step_active(column, slice(0, active))
        if self.max_value is not None:
            counters = self.state.counters
            over = counters[:active] > self.max_value
            self.saturation_events += int(np.count_nonzero(over))
            np.minimum(counters[:active], self.max_value,
                       out=counters[:active])

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        if self._cache is None:
            self._cache = _shared_update_cache(self.b)
        decision = self._cache.decision
        draw = self._draw()
        gen = self.gen
        b, ln_b = self.b, self._ln_b
        max_value = self.max_value
        counters = self.state.counters

        c = int(counters[lane])
        n = count
        if lengths is not None:
            maxlen = float(lengths.max())
        else:
            maxlen = 1.0
        # Smallest counter value whose gap b^c exceeds every remaining
        # packet: past it, Algorithm 1 degenerates to delta = 0 with
        # p = l / b^c (the dwell regime).
        c_star = max(1, int(math.ceil(math.log(maxlen) / ln_b)))
        while b ** c_star <= maxlen:
            c_star += 1
        idx = 0
        if c < c_star:
            # General phase: memoized full decisions.  Bulk-convert to
            # Python floats once; per-element NumPy scalar unboxing
            # would dominate the loop.
            py_lens = lengths.tolist() if lengths is not None else None
            while idx < n and c < c_star:
                l = py_lens[idx] if py_lens is not None else 1.0
                delta, p = decision(c, l)
                c += delta + (1 if draw() < p else 0)
                if max_value is not None and c > max_value:
                    self.saturation_events += 1
                    c = max_value
                idx += 1
        k = n - idx
        if k:
            # Dwell phase: u < l / b^c  <=>  c < (ln l - ln u) / ln b.
            # One vectorised log per flow; the loop is a bare compare.
            # (u = 0.0 gives T = +inf = guaranteed advance, matching
            # u < p for any p > 0.)
            u = gen.random(k)
            with np.errstate(divide="ignore"):
                if lengths is not None:
                    thresholds = (np.log(lengths[idx:]) - np.log(u)) / ln_b
                else:
                    thresholds = -np.log(u) / ln_b
            cc = float(c)
            if max_value is None:
                for t_i in thresholds.tolist():
                    if t_i > cc:
                        cc += 1.0
            else:
                cap = float(max_value)
                for t_i in thresholds.tolist():
                    if t_i > cc:
                        if cc >= cap:
                            self.saturation_events += 1
                        else:
                            cc += 1.0
            c = int(cc)
        counters[lane] = c

    def counters(self) -> np.ndarray:
        return self.state.counters[: self.lanes].copy()

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"counters": self.state.counters}

    def estimates(self) -> np.ndarray:
        final = self.state.counters[: self.lanes]
        return np.expm1(final * self._ln_b) / (self.b - 1.0)

    def writeback(self, scheme, keys: List, packets: int) -> None:
        from repro.core.disco import DiscoSketch

        final = self._replica0(self.state.counters[: self.lanes])
        scheme._counters = dict(zip(keys, final.tolist()))
        if isinstance(scheme, DiscoSketch):
            scheme.packets_observed += packets
            scheme.saturation_events += self.saturation_events


def disco_kernel_spec(scheme) -> Optional[KernelSpec]:
    """Spec for a plain fresh DISCO sketch, or ``None`` if ineligible.

    The kernel reproduces exactly the plain per-flow DISCO law: a
    geometric counting function on an exact :class:`DiscoSketch` (not a
    subclass, which may hook the update path), no burst aggregation, no
    variance tracking, and a fresh sketch (pre-existing counters would be
    ignored).  Capacity clamping *is* supported — the kernel saturates
    lanes the same way the sketch does.
    """
    from repro.core.disco import DiscoSketch
    from repro.core.functions import GeometricCountingFunction

    if type(scheme) is not DiscoSketch or len(scheme) != 0:
        return None
    function = scheme.function
    if (not isinstance(function, GeometricCountingFunction)
            or scheme.burst_capacity is not None or scheme.track_variance):
        return None
    b, capacity_bits = function.b, scheme.capacity_bits
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: DiscoKernel(
            lanes, gen, replicas, b=b, capacity_bits=capacity_bits),
    )


_register("disco", "plain fresh sketch, geometric function")


# ---------------------------------------------------------------------------
# SAC — Small Active Counters
# ---------------------------------------------------------------------------

class SacKernel(SchemeKernel):
    """Columnar SAC: per-lane ``(A, mode)`` words, per-replica global ``r``.

    The update law mirrors :class:`~repro.counters.sac.SmallActiveCounters`
    exactly: probabilistic rounding of the scaled increment, per-counter
    renormalisation on mantissa overflow, and the *global* renormalisation
    (grow ``r``, re-encode every counter) when the exponent part
    saturates.  ``r`` is global per **replica** — replicas are independent
    SAC arrays, so each carries its own scale.
    """

    supports_tail = True
    preferred_min_lanes = 16
    resumable = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 total_bits: int, mode_bits: int, initial_r: int) -> None:
        super().__init__(lanes, gen, replicas)
        self.total_bits = total_bits
        self.mode_bits = mode_bits
        self.estimation_bits = total_bits - mode_bits
        self.a_limit = 1 << self.estimation_bits
        self.mode_limit = 1 << self.mode_bits
        n = max(lanes, 1)
        self.a = np.zeros(n, dtype=np.int64)
        self.m = np.zeros(n, dtype=np.int64)
        self.r = np.full(self.replicas, int(initial_r), dtype=np.int64)
        # lane -> replica index (lanes are flow-major).
        self._rep = np.arange(n, dtype=np.int64) % self.replicas
        self.global_renormalizations = 0
        self.counter_renormalizations = 0

    def native_step(self):
        from repro.core import native

        return native.sac_runner(self)

    # -- vector internals ---------------------------------------------------

    def _prob_round(self, x: np.ndarray) -> np.ndarray:
        """Unbiased rounding: floor(x) + Bernoulli(frac(x)), elementwise."""
        base = np.floor(x)
        frac = x - base
        return base.astype(np.int64) + (self.gen.random(x.shape) < frac)

    def _scale(self, m: np.ndarray, rep: np.ndarray) -> np.ndarray:
        """``2^(r * mode)`` as float64 for the given lanes."""
        return np.exp2((self.r[rep] * m).astype(np.float64))

    def step_column(self, column, active: int) -> None:
        rep = self._rep[:active]
        # column / scale broadcasts to (active,) for scalar columns too.
        x = np.asarray(column, dtype=np.float64) / self._scale(self.m[:active],
                                                               rep)
        self.a[:active] += self._prob_round(x)
        self._renormalize(active)

    def _renormalize(self, active: int) -> None:
        """Drain mantissa overflows, escalating to global renorms."""
        while True:
            view = self.a[:active]
            if view.max(initial=0) < self.a_limit:
                return
            over = np.flatnonzero(view >= self.a_limit)
            can = self.m[over] + 1 < self.mode_limit
            bump = over[can]
            if bump.size:
                self.m[bump] += 1
                self.counter_renormalizations += int(bump.size)
                step = np.exp2(self.r[self._rep[bump]].astype(np.float64))
                self.a[bump] = self._prob_round(self.a[bump] / step)
            stuck = over[~can]
            if stuck.size:
                for rep in np.unique(self._rep[stuck]).tolist():
                    self._increase_r(int(rep))

    def _increase_r(self, rep: int) -> None:
        """Global renormalisation of one replica: grow ``r``, re-encode all.

        Decodes every lane of the replica under the old ``r`` (lanes that
        just overflowed their exponent decode to their raw, unclamped
        value — matching the reference, which re-fits the triggering
        counter from its unclamped total) and re-fits under the new.
        """
        sl = slice(rep, self.a.size, self.replicas)
        values = self.a[sl].astype(np.float64) * np.exp2(
            (int(self.r[rep]) * self.m[sl]).astype(np.float64))
        self.r[rep] += 1
        self.global_renormalizations += 1
        a, m = self._fit(values, rep)
        self.a[sl] = a
        self.m[sl] = m

    def _fit(self, values: np.ndarray, rep: int):
        """Vectorised ``SmallActiveCounters._fit`` under replica ``rep``'s r."""
        r = int(self.r[rep])
        m = np.zeros(values.shape, dtype=np.int64)
        for _ in range(self.mode_limit):
            need = (values / np.exp2((r * m).astype(np.float64))
                    >= self.a_limit) & (m < self.mode_limit - 1)
            if not need.any():
                break
            m[need] += 1
        a = self._prob_round(values / np.exp2((r * m).astype(np.float64)))
        over = (a >= self.a_limit) & (m < self.mode_limit - 1)
        if over.any():
            m[over] += 1
            a[over] = self._prob_round(
                values[over] / np.exp2((r * m[over]).astype(np.float64)))
        np.minimum(a, self.a_limit - 1, out=a)
        return a, m

    # -- scalar tail --------------------------------------------------------

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        draw = self._draw()
        rep = lane % self.replicas
        a_limit, mode_limit = self.a_limit, self.mode_limit
        a = int(self.a[lane])
        m = int(self.m[lane])
        py_lens = lengths.tolist() if lengths is not None else None
        for i in range(count):
            amount = py_lens[i] if py_lens is not None else 1.0
            r = int(self.r[rep])
            x = amount / float(1 << (r * m))
            base = math.floor(x)
            frac = x - base
            a += int(base) + (1 if frac > 0.0 and draw() < frac else 0)
            while a >= a_limit:
                r = int(self.r[rep])
                if m + 1 >= mode_limit:
                    value = a * float(1 << (r * m))
                    # Park the clamped word, renorm the whole replica
                    # (re-encodes this lane too), then re-fit this lane
                    # from its unclamped value — the reference's order.
                    self.a[lane] = min(a, a_limit - 1)
                    self.m[lane] = m
                    self._increase_r(rep)
                    a, m = self._fit_scalar(value, rep, draw)
                else:
                    m += 1
                    self.counter_renormalizations += 1
                    x2 = a / float(1 << r)
                    b2 = math.floor(x2)
                    f2 = x2 - b2
                    a = int(b2) + (1 if f2 > 0.0 and draw() < f2 else 0)
        self.a[lane] = a
        self.m[lane] = m

    def _fit_scalar(self, value: float, rep: int, draw):
        r = int(self.r[rep])
        m = 0
        while m < self.mode_limit - 1 and value / (1 << (r * m)) >= self.a_limit:
            m += 1
        x = value / (1 << (r * m))
        base = math.floor(x)
        frac = x - base
        a = int(base) + (1 if frac > 0.0 and draw() < frac else 0)
        if a >= self.a_limit:
            if m < self.mode_limit - 1:
                m += 1
                x = value / (1 << (r * m))
                base = math.floor(x)
                frac = x - base
                a = int(base) + (1 if frac > 0.0 and draw() < frac else 0)
            a = min(a, self.a_limit - 1)
        return a, m

    # -- resumable state ----------------------------------------------------

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"a": self.a, "m": self.m}

    def _state_scalars(self) -> Dict[str, object]:
        return {"r": self.r.copy()}

    def _load_state_scalars(self, scalars: Dict[str, object]) -> None:
        # The (a, m) words just loaded were encoded under the carried r;
        # adopting it *after* the lane load keeps encode and scale
        # consistent from the first post-resume packet.
        r = np.asarray(scalars.get("r", self.r), dtype=np.int64)
        if r.shape != self.r.shape:
            raise ParameterError(
                f"carried SAC state has {r.size} replica scales, "
                f"kernel has {self.r.size}")
        self.r[:] = r

    # -- read-out -----------------------------------------------------------

    def counters(self) -> np.ndarray:
        """The q-bit hardware words: exponent part above the mantissa."""
        return ((self.m[: self.lanes] << self.estimation_bits)
                | self.a[: self.lanes])

    def estimates(self) -> np.ndarray:
        lanes = self.lanes
        rep = self._rep[:lanes]
        return self.a[:lanes].astype(np.float64) * self._scale(self.m[:lanes],
                                                               rep)

    def telemetry_events(self) -> Dict[str, int]:
        events = super().telemetry_events()
        events["kernel.sac.counter_renormalizations"] = \
            self.counter_renormalizations
        events["kernel.sac.global_renormalizations"] = \
            self.global_renormalizations
        return events

    def writeback(self, scheme, keys: List, packets: int) -> None:
        a = self._replica0(self.a[: self.lanes])
        m = self._replica0(self.m[: self.lanes])
        scheme._state = dict(zip(keys, zip(a.tolist(), m.tolist())))
        scheme.r = int(self.r[0])
        scheme.global_renormalizations += self.global_renormalizations
        scheme.counter_renormalizations += self.counter_renormalizations
        scheme.packets_observed += packets


def sac_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.sac import SmallActiveCounters

    if type(scheme) is not SmallActiveCounters:
        return None
    total_bits, mode_bits, r0 = scheme.total_bits, scheme.mode_bits, scheme.r
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: SacKernel(
            lanes, gen, replicas, total_bits=total_bits,
            mode_bits=mode_bits, initial_r=r0),
    )


_register("sac", "any fresh SAC array")


# ---------------------------------------------------------------------------
# ANLS family
# ---------------------------------------------------------------------------

class AnlsKernel(SchemeKernel):
    """ANLS (unit increments) and ANLS-I (increment by packet length).

    One Bernoulli(``b^-c``) trial per packet; on success the counter
    advances by the sampled amount.  The tail uses the log-threshold
    form ``u < b^-c  <=>  c < -ln u / ln b`` — one vectorised log per
    flow, then a bare float comparison per packet.
    """

    supports_tail = True
    preferred_min_lanes = 8
    resumable = True
    lane_local = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 b: float) -> None:
        super().__init__(lanes, gen, replicas)
        self.b = float(b)
        self._ln_b = math.log(self.b)
        self.c = np.zeros(max(lanes, 1), dtype=np.int64)

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"c": self.c}

    def native_step(self):
        from repro.core import native

        return native.anls_runner(self)

    def step_column(self, column, active: int) -> None:
        c = self.c[:active]
        sampled = self.gen.random(active) < np.exp(-c * self._ln_b)
        if isinstance(column, np.ndarray):
            c += np.where(sampled, column.astype(np.int64), 0)
        else:
            c += sampled.astype(np.int64) * int(column)

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        # u < b^-c  <=>  c < -ln u / ln b (u = 0 -> +inf = certain sample,
        # matching u < p for any p > 0).
        with np.errstate(divide="ignore"):
            thresholds = -np.log(self.gen.random(count)) / self._ln_b
        c = float(self.c[lane])
        if lengths is None:
            for t in thresholds.tolist():
                if c < t:
                    c += 1.0
        else:
            for t, l in zip(thresholds.tolist(), lengths.tolist()):
                if c < t:
                    c += int(l)
        self.c[lane] = int(c)

    def counters(self) -> np.ndarray:
        return self.c[: self.lanes].copy()

    def estimates(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.expm1(self.c[: self.lanes] * self._ln_b) / (self.b - 1.0)

    def writeback(self, scheme, keys: List, packets: int) -> None:
        final = self._replica0(self.c[: self.lanes])
        scheme._state = dict(zip(keys, final.tolist()))
        scheme.packets_observed += packets


class AnlsPerUnitKernel(AnlsKernel):
    """ANLS-II: the per-*byte* trial sequence, sampled by geometric jumps.

    Running ``l`` unit trials at success probability ``b^-c`` (which
    drops to ``b^-(c+1)`` after each success) is a sequence of geometric
    waiting times, so instead of ``l`` Bernoulli draws the kernel draws
    ``G ~ Geometric(b^-c)`` and jumps: if ``G`` fits in the packet's
    remaining byte budget the counter advances and the budget shrinks by
    ``G``, else the packet is spent.  Identical in law to the reference
    per-unit loop, but per-packet work is O(increments) instead of
    O(bytes) — the exact cost asymmetry Table IV measures for the scalar
    engines is *not* reproduced here, which is why Table IV keeps the
    per-packet path.
    """

    preferred_min_lanes = 16

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 b: float) -> None:
        super().__init__(lanes, gen, replicas, b=b)
        self.geometric_jumps = 0

    def native_step(self):
        from repro.core import native

        return native.anls2_runner(self)

    def step_column(self, column, active: int) -> None:
        c = self.c
        if isinstance(column, np.ndarray):
            rem = column.astype(np.int64)
        else:
            rem = np.full(active, int(column), dtype=np.int64)
        idx = np.flatnonzero(rem > 0)
        ln_b = self._ln_b
        while idx.size:
            p = np.exp(-c[idx] * ln_b)
            u = self.gen.random(idx.size)
            # Inverse-transform geometric: G = ceil(ln u / ln(1 - p)),
            # with p = 1 (c = 0) meaning certain success on the next unit
            # and u = 0 a measure-zero "never succeeds" (G = +inf).
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.ceil(np.log(u) / np.log1p(-p))
            g = np.where(p >= 1.0, 1.0, np.maximum(g, 1.0))
            hit = g <= rem[idx]
            jumped = idx[hit]
            c[jumped] += 1
            self.geometric_jumps += int(jumped.size)
            rem[jumped] -= g[hit].astype(np.int64)
            idx = jumped[rem[jumped] > 0]

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        draw = self._draw()
        ln_b = self._ln_b
        c = int(self.c[lane])
        jumps = 0
        py_lens = lengths.tolist() if lengths is not None else None
        for i in range(count):
            rem = int(py_lens[i]) if py_lens is not None else 1
            while rem > 0:
                # One uniform per jump attempt, even at c == 0 (p = 1,
                # certain success): step_column draws for every active
                # lane before masking, so the scalar tail must advance
                # the stream identically or the two paths disagree from
                # the first post-boundary packet on.
                u = draw()
                if c == 0:
                    g = 1
                elif u <= 0.0:
                    break
                else:
                    p = math.exp(-c * ln_b)
                    g = max(1, math.ceil(math.log(u) / math.log1p(-p)))
                if g <= rem:
                    c += 1
                    jumps += 1
                    rem -= g
                else:
                    break
        self.c[lane] = c
        self.geometric_jumps += jumps

    def telemetry_events(self) -> Dict[str, int]:
        events = super().telemetry_events()
        events["kernel.anls2.geometric_jumps"] = self.geometric_jumps
        return events


def anls_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.anls import Anls, AnlsBytesNaive, AnlsPerUnit

    cls = type(scheme)
    if cls not in (Anls, AnlsBytesNaive, AnlsPerUnit):
        return None
    kernel_cls = AnlsPerUnitKernel if cls is AnlsPerUnit else AnlsKernel
    b = scheme.b
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: kernel_cls(
            lanes, gen, replicas, b=b),
    )


_register("anls", "any fresh ANLS array (flow-size counting)")
_register("anls-1", "any fresh ANLS-I array")
_register("anls-2", "any fresh ANLS-II array (geometric-jump sampling)")


# ---------------------------------------------------------------------------
# SD — hybrid SRAM/DRAM with a CMA
# ---------------------------------------------------------------------------

class SdKernel(SchemeKernel):
    """Columnar SD: SRAM/DRAM lane arrays with batched CMA flush slots.

    A column of ``k`` packet updates earns ``(carry + k) // ratio`` DRAM
    write slots per replica; the CMA's batch chooser
    (:meth:`~repro.counters.cma.CounterManagementAlgorithm.vector_policy`)
    picks which SRAM counters those slots evict.  Flushing the top-``m``
    at once equals ``m`` sequential largest-first flushes when no updates
    intervene — exactly the within-column situation.  Estimates
    (``DRAM + SRAM``) are exact integer totals and order-independent
    unless SRAM saturates; the overflow/bus statistics are
    order-sensitive diagnostics under *any* replay order, so the kernel's
    counts are comparable to, not bitwise equal to, a shuffled per-packet
    run's.
    """

    supports_tail = True
    preferred_min_lanes = 16
    resumable = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 sram_bits: int, dram_access_ratio: int,
                 policy_factory: Callable[[], object]) -> None:
        super().__init__(lanes, gen, replicas)
        n = max(lanes, 1)
        self.sram = np.zeros(n, dtype=np.int64)
        self.dram = np.zeros(n, dtype=np.int64)
        self.sram_bits = sram_bits
        self._sram_max = (1 << sram_bits) - 1
        self.ratio = dram_access_ratio
        self._carry = np.zeros(self.replicas, dtype=np.int64)
        self._policies = [policy_factory() for _ in range(self.replicas)]
        flows = max(1, n // self.replicas)
        # The reference charges the table's address width per flush; the
        # columnar array is fully allocated up front, so use its width.
        self._addr_bits = max(1, flows.bit_length())
        self.flushes = 0
        self.flush_batches = 0
        self.bus_bits_transferred = 0
        self.overflow_events = 0
        self.lost_traffic = 0

    def native_step(self):
        from repro.core import native

        return native.sd_runner(self)

    def step_column(self, column, active: int) -> None:
        if isinstance(column, np.ndarray):
            add = column.astype(np.int64)
        else:
            add = int(column)
        new = self.sram[:active] + add
        over = new > self._sram_max
        n_over = int(np.count_nonzero(over))
        if n_over:
            self.overflow_events += n_over
            self.lost_traffic += int((new[over] - self._sram_max).sum())
            np.minimum(new, self._sram_max, out=new)
        self.sram[:active] = new
        per_replica = active // self.replicas
        for rep in range(self.replicas):
            total = int(self._carry[rep]) + per_replica
            slots = total // self.ratio
            self._carry[rep] = total % self.ratio
            if slots:
                self._flush(rep, slots)

    def _flush(self, rep: int, slots: int) -> None:
        sl = slice(rep, self.sram.size, self.replicas)
        view = self.sram[sl]
        idx = self._policies[rep].choose_batch(view, slots)
        if idx.size == 0:
            return
        self.dram[sl][idx] += view[idx]
        view[idx] = 0
        self.flushes += int(idx.size)
        self.flush_batches += 1
        self.bus_bits_transferred += int(idx.size) * (self.sram_bits
                                                      + self._addr_bits)

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        rep = lane % self.replicas
        sram = self.sram
        smax = self._sram_max
        ratio = self.ratio
        py_lens = lengths.tolist() if lengths is not None else None
        carry = int(self._carry[rep])
        for i in range(count):
            amount = int(py_lens[i]) if py_lens is not None else 1
            new = int(sram[lane]) + amount
            if new > smax:
                self.overflow_events += 1
                self.lost_traffic += new - smax
                new = smax
            sram[lane] = new
            carry += 1
            if carry >= ratio:
                carry = 0
                self._carry[rep] = 0
                self._flush(rep, 1)
        self._carry[rep] = carry

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"sram": self.sram, "dram": self.dram}

    def _state_scalars(self) -> Dict[str, object]:
        # CMA cursors (round-robin position etc.) restart fresh per
        # resumed segment — consistent for both sides of a resume
        # comparison, since each chunk replay builds a fresh kernel.
        return {"carry": self._carry.copy()}

    def _load_state_scalars(self, scalars: Dict[str, object]) -> None:
        carry = np.asarray(scalars.get("carry", self._carry), dtype=np.int64)
        if carry.shape != self._carry.shape:
            raise ParameterError(
                f"carried SD state has {carry.size} replica carries, "
                f"kernel has {self._carry.size}")
        self._carry[:] = carry

    def counters(self) -> np.ndarray:
        """Full per-flow totals — what the DRAM holds after a drain."""
        return self.dram[: self.lanes] + self.sram[: self.lanes]

    def estimates(self) -> np.ndarray:
        return (self.dram[: self.lanes]
                + self.sram[: self.lanes]).astype(np.float64)

    def telemetry_events(self) -> Dict[str, int]:
        events = super().telemetry_events()
        events["kernel.sd.flushes"] = self.flushes
        events["kernel.sd.flush_batches"] = self.flush_batches
        events["kernel.sd.overflow_events"] = self.overflow_events
        return events

    def writeback(self, scheme, keys: List, packets: int) -> None:
        sram = self._replica0(self.sram[: self.lanes])
        dram = self._replica0(self.dram[: self.lanes])
        scheme._state = dict(zip(keys, sram.tolist()))
        scheme._dram = dict(zip(keys, dram.tolist()))
        scheme._updates_since_flush = int(self._carry[0])
        scheme.flushes += self.flushes
        scheme.bus_bits_transferred += self.bus_bits_transferred
        scheme.overflow_events += self.overflow_events
        scheme.lost_traffic += self.lost_traffic
        scheme.packets_observed += packets


def sd_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.sd import SdCounters

    if type(scheme) is not SdCounters:
        return None
    policy_factory = scheme.cma.vector_policy()
    if policy_factory is None:
        return None  # custom CMA without a batch chooser: scalar-only
    sram_bits, ratio = scheme.sram_bits, scheme.dram_access_ratio
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: SdKernel(
            lanes, gen, replicas, sram_bits=sram_bits,
            dram_access_ratio=ratio, policy_factory=policy_factory),
    )


_register("sd", "fresh SD array with an lcf / threshold-lcf / round-robin CMA")


# ---------------------------------------------------------------------------
# Exact counters
# ---------------------------------------------------------------------------

class ExactKernel(SchemeKernel):
    """Exact integer totals — the one provably bit-identical kernel.

    Integer addition is associative and the scheme draws no randomness,
    so the columnar sums equal the reference loop's for every replay
    order; ``engine="auto"`` may therefore pick this kernel silently.
    """

    supports_tail = True
    preferred_min_lanes = 4
    resumable = True
    lane_local = True

    def __init__(self, lanes: int, gen: np.random.Generator,
                 replicas: int) -> None:
        super().__init__(lanes, gen, replicas)
        self.totals = np.zeros(max(lanes, 1), dtype=np.int64)

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"totals": self.totals}

    def native_step(self):
        from repro.core import native

        return native.exact_runner(self)

    def step_column(self, column, active: int) -> None:
        if isinstance(column, np.ndarray):
            self.totals[:active] += column.astype(np.int64)
        else:
            self.totals[:active] += int(column)

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        if lengths is None:
            self.totals[lane] += count
        else:
            self.totals[lane] += int(lengths.astype(np.int64).sum())

    def counters(self) -> np.ndarray:
        return self.totals[: self.lanes].copy()

    def estimates(self) -> np.ndarray:
        return self.totals[: self.lanes].astype(np.float64)

    def writeback(self, scheme, keys: List, packets: int) -> None:
        final = self._replica0(self.totals[: self.lanes])
        scheme._state = dict(zip(keys, final.tolist()))
        scheme.packets_observed += packets


def exact_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.exact import ExactCounters

    if type(scheme) is not ExactCounters:
        return None
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: ExactKernel(lanes, gen, replicas),
        bit_identical=True,
    )


_register("exact", "always (bit-identical: deterministic integer sums)")


# ---------------------------------------------------------------------------
# AEE — additive error estimation
# ---------------------------------------------------------------------------

class AeeKernel(SchemeKernel):
    """Columnar AEE: one Bernoulli(``p``) trial per packet, constant ``p``.

    The sampling probability never depends on the counter value, so the
    update law is a bare compare-add — the cheapest law in the kernel
    zoo, and the reason AEE's native lowering
    (:func:`repro.core.native.aee_runner`) is *bit-identical* to this
    vector path where the multiplicative schemes (SAC, DISCO) only
    manage distributional equivalence: the whole replay's uniform
    stream can be pre-drawn because nothing about its consumption is
    data-dependent.
    """

    supports_tail = True
    preferred_min_lanes = 8
    resumable = True
    lane_local = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 p: float, total_bits: int) -> None:
        super().__init__(lanes, gen, replicas)
        self.p = float(p)
        self.total_bits = int(total_bits)
        self.max_value = (1 << self.total_bits) - 1
        self.c = np.zeros(max(lanes, 1), dtype=np.int64)

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"c": self.c}

    def native_step(self):
        from repro.core import native

        return native.aee_runner(self)

    def step_column(self, column, active: int) -> None:
        c = self.c[:active]
        sampled = self.gen.random(active) < self.p
        if isinstance(column, np.ndarray):
            c += np.where(sampled, column.astype(np.int64), 0)
        else:
            c += sampled.astype(np.int64) * int(column)
        over = c > self.max_value
        n_over = int(np.count_nonzero(over))
        if n_over:
            self.saturation_events += n_over
            np.minimum(c, self.max_value, out=c)

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        # Constant p: the whole tail is one Bernoulli mask and a masked
        # sum — no per-packet loop, and nothing reads the running
        # counter, so the native runner reuses this method verbatim
        # (clamp-at-end equals clamp-per-packet for non-negative adds).
        hit = self.gen.random(count) < self.p
        c = int(self.c[lane])
        if lengths is None:
            c += int(np.count_nonzero(hit))
        else:
            c += int(lengths[hit].astype(np.int64).sum())
        if c > self.max_value:
            self.saturation_events += 1
            c = self.max_value
        self.c[lane] = c

    def counters(self) -> np.ndarray:
        return self.c[: self.lanes].copy()

    def estimates(self) -> np.ndarray:
        return self.c[: self.lanes].astype(np.float64) / self.p

    def writeback(self, scheme, keys: List, packets: int) -> None:
        final = self._replica0(self.c[: self.lanes])
        scheme._state = dict(zip(keys, final.tolist()))
        scheme.saturation_events += self.saturation_events
        scheme.packets_observed += packets


def aee_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.aee import AeeCounters

    if type(scheme) is not AeeCounters:
        return None
    p, total_bits = scheme.p, scheme.total_bits
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: AeeKernel(
            lanes, gen, replicas, p=p, total_bits=total_bits),
    )


_register("aee", "any fresh AEE array (constant-p compare-add)")


# ---------------------------------------------------------------------------
# ICE Buckets — per-bucket independent estimation scale
# ---------------------------------------------------------------------------

class IceKernel(SchemeKernel):
    """Columnar ICE Buckets: per-lane counters, per-bucket scale level.

    Lanes are flow-major, so a bucket's lanes for one replica are the
    strided slice ``fb * bucket_flows * R + rep :: R`` — replicas are
    independent arrays and carry independent bucket scales.  The scale
    is *stored per lane* (mirroring the bucket's shared level into every
    member) so exported :class:`KernelState` rows are self-describing:
    a caller that regathers carried rows into a new flow order can land
    them in different buckets, and :meth:`_rebucket` restores the
    shared-scale invariant afterwards.
    """

    supports_tail = True
    preferred_min_lanes = 16
    resumable = True

    def __init__(self, lanes: int, gen: np.random.Generator, replicas: int,
                 total_bits: int, bucket_flows: int) -> None:
        super().__init__(lanes, gen, replicas)
        self.total_bits = int(total_bits)
        self.bucket_flows = int(bucket_flows)
        self.limit = 1 << self.total_bits
        n = max(lanes, 1)
        self.c = np.zeros(n, dtype=np.int64)
        self.s = np.zeros(n, dtype=np.int64)
        # Per-lane 2^-s, maintained alongside ``s`` on the (rare) scale
        # changes so the per-column hot path is a multiply, not an exp2.
        self._inv = np.ones(n, dtype=np.float64)
        lane_idx = np.arange(n, dtype=np.int64)
        self._rep = lane_idx % self.replicas
        self._fb = lane_idx // self.replicas // self.bucket_flows
        # Lane -> bucket id ((fb, rep) flattened) for the batched drain.
        self._bid = self._fb * self.replicas + self._rep
        self._nb = int(self._bid.max()) + 1
        self.bucket_upscales = 0

    def native_step(self):
        from repro.core import native

        return native.ice_runner(self)

    # -- vector internals ---------------------------------------------------

    def _prob_round(self, x: np.ndarray) -> np.ndarray:
        """Unbiased rounding: floor(x) + Bernoulli(frac(x)), elementwise."""
        base = np.floor(x)
        frac = x - base
        return base.astype(np.int64) + (self.gen.random(x.shape) < frac)

    def _bucket_slice(self, lane: int) -> slice:
        rep = int(lane) % self.replicas
        fb = int(lane) // self.replicas // self.bucket_flows
        start = fb * self.bucket_flows * self.replicas + rep
        stop = min((fb + 1) * self.bucket_flows * self.replicas, self.c.size)
        return slice(start, stop, self.replicas)

    def _upscale(self, lane: int) -> None:
        """Grow ``lane``'s bucket scale: halve every member, prob-rounded.

        Local O(bucket_flows) work — the whole point of ICE versus SAC's
        global renormalisation sweep.
        """
        sl = self._bucket_slice(lane)
        self.s[sl] += 1
        self._inv[sl] *= 0.5
        self.c[sl] = self._prob_round(self.c[sl] * 0.5)
        self.bucket_upscales += 1

    def step_column(self, column, active: int) -> None:
        # One fused unbiased round: floor(x + u) with u ~ U[0,1) adds
        # ceil(x) with probability frac(x) — same law as
        # :meth:`_prob_round` in half the array passes.
        if isinstance(column, np.ndarray):
            x = column * self._inv[:active]
        else:
            x = float(column) * self._inv[:active]
        x += self.gen.random(active)
        self.c[:active] += np.floor(x).astype(np.int64)
        self._drain(active)

    def _drain(self, active: int) -> None:
        """Up-scale buckets until every counter fits its word again.

        Batched: every over-limit bucket is halved in one gather —
        including members past ``active`` (shorter flows already
        finished still share the bucket's scale), exactly as the
        per-lane :meth:`_upscale` slices do.
        """
        while True:
            view = self.c[:active]
            if view.max(initial=0) < self.limit:
                return
            over_bids = np.unique(self._bid[:active][view >= self.limit])
            btab = np.zeros(self._nb, dtype=bool)
            btab[over_bids] = True
            mask = btab[self._bid]
            self.s[mask] += 1
            self._inv[mask] *= 0.5
            self.c[mask] = self._prob_round(self.c[mask] * 0.5)
            self.bucket_upscales += int(over_bids.size)

    # -- scalar tail --------------------------------------------------------

    def tail_flow(self, lane: int, lengths: Optional[np.ndarray],
                  count: int) -> None:
        draw = self._draw()
        limit = self.limit
        c_arr, s_arr = self.c, self.s
        py_lens = lengths.tolist() if lengths is not None else None
        for i in range(count):
            amount = py_lens[i] if py_lens is not None else 1.0
            x = amount / float(1 << int(s_arr[lane]))
            base = math.floor(x)
            frac = x - base
            c_arr[lane] += int(base) + (1 if frac > 0.0 and draw() < frac
                                        else 0)
            while c_arr[lane] >= limit:
                # Rare: upscale the whole bucket vectorised (gen-driven),
                # same law as the column phase's drain.
                self._upscale(lane)

    # -- resumable state ----------------------------------------------------

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"c": self.c, "s": self.s}

    def load_state(self, keys: List, state: KernelState) -> None:
        super().load_state(keys, state)
        np.exp2(-self.s.astype(np.float64), out=self._inv)
        self._rebucket()

    def _rebucket(self) -> None:
        """Restore the shared-scale invariant after a load.

        Carried rows land wherever this replay's flow order puts them, so
        one bucket can receive lanes exported under different scales.
        Bring every lagging lane up to its bucket's deepest scale with
        one unbiased probabilistic re-encode (``c / 2^(smax - s)``,
        prob-rounded).  Draws come from the kernel's seeded generator,
        so a resumed replay stays a deterministic function of its seed.
        """
        n = self.c.size
        R = self.replicas
        width = self.bucket_flows * R
        for base in range(0, n, width):
            for rep in range(R):
                sl = slice(base + rep, min(base + width, n), R)
                s = self.s[sl]
                smax = int(s.max(initial=0))
                if smax == 0 or not (s < smax).any():
                    continue
                shift = np.exp2((smax - s).astype(np.float64))
                self.c[sl] = self._prob_round(self.c[sl] / shift)
                self.s[sl] = smax
                self._inv[sl] = np.exp2(-float(smax))

    # -- read-out -----------------------------------------------------------

    def counters(self) -> np.ndarray:
        return self.c[: self.lanes].copy()

    def estimates(self) -> np.ndarray:
        lanes = self.lanes
        return self.c[:lanes].astype(np.float64) * np.exp2(
            self.s[:lanes].astype(np.float64))

    def telemetry_events(self) -> Dict[str, int]:
        events = super().telemetry_events()
        events["kernel.ice.bucket_upscales"] = self.bucket_upscales
        return events

    def writeback(self, scheme, keys: List, packets: int) -> None:
        final_c = self._replica0(self.c[: self.lanes])
        final_s = self._replica0(self.s[: self.lanes])
        bf = self.bucket_flows
        scheme._state = dict(zip(keys, final_c.tolist()))
        scheme._bucket_of = {k: i // bf for i, k in enumerate(keys)}
        members: Dict[int, List] = {}
        for i, k in enumerate(keys):
            members.setdefault(i // bf, []).append(k)
        scheme._members = members
        scheme._scale = dict(enumerate(final_s[::bf].tolist()))
        scheme.bucket_upscales += self.bucket_upscales
        scheme.packets_observed += packets


def ice_kernel_spec(scheme) -> Optional[KernelSpec]:
    from repro.counters.ice import IceBuckets

    if type(scheme) is not IceBuckets:
        return None
    total_bits, bucket_flows = scheme.total_bits, scheme.bucket_flows
    return KernelSpec(
        scheme=scheme.name,
        mode=scheme.mode,
        factory=lambda lanes, gen, replicas: IceKernel(
            lanes, gen, replicas, total_bits=total_bits,
            bucket_flows=bucket_flows),
    )


_register("ice", "any fresh ICE bucket array")
