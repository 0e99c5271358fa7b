"""Memory accounting: measured per-flow state bytes plus Figure 9 theory.

Two complementary views:

**Measured** (:func:`measured_state_bytes` /
:func:`measured_bytes_per_flow` / :func:`measure_store_bytes`) — bytes
of the *actual* exported kernel state, per counter-store backend
(:mod:`repro.core.stores`).  A replay's carried
:class:`~repro.core.kernels.KernelState` knows exactly what it holds —
dense arrays sum their buffer bytes, compact stores report the encoded
footprint — so dense vs. ``pools`` vs. ``morris`` comparisons use real
numbers, not formulas.  ``benchmarks/perf_gate.py`` gates the compact
backends' bytes-per-flow against the dense baseline with these.

**Analytic** (the Figure 9 helpers below) — the paper's single-counter
bit model: for one flow of volume ``n``,

* **SD / full-size**: the counter stores ``n`` itself — ``ceil(log2(n+1))``
  bits (linear counter *value*, slope one).
* **SAC**: a fixed ``k``-bit mantissa plus however many exponent bits reach
  ``n`` at scale ``r`` — sub-linear counter value.
* **DISCO**: the counter value is ``~f^{-1}(n)``, a logarithm of ``n``; its
  bit cost is a log of a log.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from repro.core.analysis import expected_counter_upper_bound
from repro.errors import ParameterError

__all__ = [
    "full_counter_bits",
    "sac_counter_bits",
    "disco_counter_bits",
    "disco_counter_value",
    "sac_counter_value",
    "measured_state_bytes",
    "measured_bytes_per_flow",
    "measure_store_bytes",
]


def full_counter_bits(n: float) -> int:
    """Bits of a full-size (SD-style) counter holding ``n``."""
    if n < 0:
        raise ParameterError(f"flow length must be >= 0, got {n!r}")
    return max(1, int(n).bit_length())


def sac_counter_value(n: float, estimation_bits: int = 5, r: int = 1) -> float:
    """SAC's stored 'value' proxy for Figure 9: mantissa plus exponent reach.

    SAC stores ``(A, mode)`` with ``n ~= A * 2^(r*mode)``; the quantity that
    grows with ``n`` is ``mode``.  Returns the minimal ``mode`` needed.
    """
    if n < 0:
        raise ParameterError(f"flow length must be >= 0, got {n!r}")
    a_max = (1 << estimation_bits) - 1
    if n <= a_max:
        return 0.0
    return math.ceil(math.log2(n / a_max) / r)


def sac_counter_bits(n: float, estimation_bits: int = 5, r: int = 1) -> int:
    """Bits a SAC counter needs for value ``n`` (mantissa + exponent bits)."""
    mode = int(sac_counter_value(n, estimation_bits, r))
    mode_bits = max(1, mode.bit_length())
    return estimation_bits + mode_bits


def disco_counter_value(n: float, b: float) -> float:
    """Expected DISCO counter value for a flow of length ``n`` (Theorem 3)."""
    return expected_counter_upper_bound(b, n)


def disco_counter_bits(n: float, b: float) -> int:
    """Bits a DISCO counter needs for a flow of length ``n``."""
    value = int(math.ceil(disco_counter_value(n, b)))
    return max(1, value.bit_length())


# ---------------------------------------------------------------------------
# measured accounting (export_state sizes, not formulas)
# ---------------------------------------------------------------------------

def measured_state_bytes(state) -> int:
    """Bytes of an exported kernel state, as actually represented.

    ``state`` is a :class:`~repro.core.kernels.KernelState` (from
    :meth:`~repro.core.kernels.SchemeKernel.export_state`); dense
    states sum their lane-array buffers, compact states report the
    counter store's encoded footprint.  This is the column payload
    only: a ``KernelState`` is positional and holds no flow keys (the
    caller's key table is deployment-dependent), so backends compare
    like for like.
    """
    nbytes = getattr(state, "nbytes", None)
    if not callable(nbytes):
        raise ParameterError(
            f"measured_state_bytes needs a KernelState, got "
            f"{type(state).__name__}")
    return int(state.nbytes())


def measured_bytes_per_flow(state) -> float:
    """Measured state bytes divided by the flows the state spans.

    Replica lanes count toward their flow (a flow's cost is everything
    kept for it); an empty state measures 0.
    """
    flows = getattr(state, "flows", 0)
    if not flows:
        return 0.0
    return measured_state_bytes(state) / float(flows)


def measure_store_bytes(
    trace,
    scheme: str = "disco",
    stores: Optional[Iterable[str]] = None,
    rng=0,
    **scheme_params,
) -> Dict[str, Dict[str, float]]:
    """Replay ``trace`` once, export per store, report measured bytes.

    One columnar replay of ``scheme`` (built through the public
    registry with ``scheme_params``), then the *same* final kernel
    state is exported through every requested backend — so the
    comparison isolates representation cost from replay randomness.
    Returns ``{store: {"bytes": ..., "bytes_per_flow": ...,
    "flows": ...}}``.
    """
    from repro.core.batchreplay import run_kernel
    from repro.core.kernels import kernel_spec
    from repro.core.stores import store_names
    from repro.schemes import make_scheme

    names = list(stores) if stores is not None else store_names()
    built = make_scheme(scheme, **scheme_params)
    spec = kernel_spec(built)
    if spec is None:
        raise ParameterError(
            f"scheme {scheme!r} has no columnar kernel; measured store "
            f"accounting needs one")
    result = run_kernel(trace, spec.factory, mode=spec.mode, rng=rng)
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        state = result.kernel.export_state(result.compiled.keys, store=name)
        out[name] = {
            "bytes": measured_state_bytes(state),
            "bytes_per_flow": measured_bytes_per_flow(state),
            "flows": float(state.flows),
        }
    return out
