"""Compiled native hot-path engine (``engine="native"``).

The vector engine's throughput ceiling is NumPy dispatch: every packet
column pays a fixed per-call cost, and the scalar tail phases (the
ANLS-II geometric-jump loop, SAC's renormalisation cascade) fall back to
per-packet Python.  This module compiles the per-kernel inner loops to
machine code and drives them over the *same* CSR-compiled trace arrays
(:mod:`repro.traces.compiled`) and the *same* pre-drawn uniform streams
as the vector path.

Provider
--------
A small C library compiled once per process lifetime from the embedded
source below (``gcc -O2``, cached by source hash in the system temp
directory) and bound through :mod:`ctypes`.  It covers every kernel.
The flags pin IEEE semantics (``-ffp-contract=off -fno-fast-math``) so
float compares match NumPy's, and the library must pass tiny reference
cases before it is trusted.

When it is unusable — no C toolchain, or ``REPRO_DISABLE_NATIVE=1`` —
:func:`available` is False and the engine resolver falls back to
``vector`` with a single warning.  Nothing here imports, compiles or
probes anything until the first native request.

Bit-identity
------------
``native`` equals ``vector`` bitwise wherever the law allows:

* **exact** — deterministic integer sums, bit-identical always.
* **ANLS / ANLS-I** — the vector path consumes explicit uniforms
  (``gen.random(active)`` per column, log-thresholds per tail flow) and
  its Bernoulli probabilities ``b^-c`` depend only on the integer
  counter, so the native path pre-draws the identical stream (NumPy
  ``Generator.random`` is chunk-transparent) and compares against a
  NumPy-computed probability table: bit-identical.
* **AEE** — the easiest case of all: the sampling probability is a
  *constant*, so the column phase is a pre-drawn compare-add and the
  tail reuses the kernel's own vectorised mask-and-sum: bit-identical.
* **DISCO** — the columnar update evaluates Algorithm 1 in C with
  libm (whose last-ulp behaviour may differ from NumPy's SIMD kernels),
  and the tail runs in C on its own pre-drawn stream (the vector tail
  draws from a scalar Mersenne stream and per-flow thresholds), so it
  is distributionally equivalent.  The C step reads its powers from
  three per-``b`` tables, ``b^c``, ``b^-c`` and ``b^d - 1``, filled by
  the very libm expressions the direct step evaluates; when
  ``l * b^-c < 1 - 1e-6`` it skips ``log1p`` too, because ``delta`` is
  then provably 0.  A counter (or ``c + delta``) past the table end
  takes the direct step and counts one
  :attr:`~repro.core.kernels.DiscoKernel.table_fallbacks`.  Unlike the
  IXP model's fixed-point Log&Exp table (:mod:`repro.ixp.logexp`),
  which rounds, these hold the exact doubles the libm calls return, so
  native DISCO results are unchanged bit for bit.
* **SAC / ANLS-II / SD / ICE** — the vector paths draw data-dependent
  amounts of randomness (renormalisation cascades, geometric jump
  rounds, bucket up-scales) that no pre-drawn stream can mirror; the
  native lowerings replay the same update law with their own draw
  order: distributionally equivalent.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "available",
    "provider_name",
    "disabled",
    "reset",
    "warn_fallback",
    "NativeStats",
    "disco_runner",
    "sac_runner",
    "anls_runner",
    "anls2_runner",
    "sd_runner",
    "exact_runner",
    "aee_runner",
    "ice_runner",
]

#: Environment kill-switch: set to any non-empty value to mask the C
#: provider (``make test-nonative`` runs the suite this way).
DISABLE_ENV = "REPRO_DISABLE_NATIVE"

#: SD lowering allocates one bucket head per possible SRAM value; wider
#: counters than this fall back to the vector path rather than burn RAM.
_SD_MAX_SRAM_BITS = 22

#: Probability tables stop at the first index whose ``b^-c`` underflows
#: to exactly 0.0, capped so a near-1 base cannot demand gigabytes.
_TABLE_CAP = 1 << 20

_REFILL = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.POINTER(ctypes.c_double),
                           ctypes.c_int64)

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t (*refill_t)(double *buf, int64_t cap);

typedef struct {
    double *buf;
    int64_t cap;
    int64_t n;
    int64_t i;
    refill_t refill;
} ustream;

static double u_next(ustream *s) {
    if (s->i >= s->n) {
        s->n = s->refill(s->buf, s->cap);
        s->i = 0;
    }
    return s->buf[s->i++];
}

/* ---------------- exact: flow-major integer sums ---------------- */

void repro_exact(const double *lengths, const int64_t *offsets,
                 const int64_t *sizes, int64_t nflows, int64_t R,
                 int64_t volume, int64_t *totals)
{
    for (int64_t i = 0; i < nflows; i++) {
        int64_t n = sizes[i];
        int64_t add;
        if (volume) {
            const double *p = lengths + offsets[i];
            int64_t s = 0;
            for (int64_t j = 0; j < n; j++) s += (int64_t)p[j];
            add = s;
        } else {
            add = n;
        }
        for (int64_t r = 0; r < R; r++) totals[i * R + r] += add;
    }
}

/* ---------------- ANLS / ANLS-I ---------------- */

void repro_anls_columns(const double *lengths, const int64_t *offsets,
                        const int64_t *actives, int64_t t_end, int64_t R,
                        int64_t volume, const double *u,
                        const double *ptab, int64_t tabn, double ln_b,
                        int64_t *c)
{
    int64_t ui = 0;
    for (int64_t t = 0; t < t_end; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            int64_t amount = volume ? (int64_t)lengths[offsets[i] + t] : 1;
            for (int64_t r = 0; r < R; r++) {
                int64_t lane = i * R + r;
                int64_t cc = c[lane];
                double p = (cc >= 0 && cc < tabn) ? ptab[cc]
                    : exp(-(double)cc * ln_b);
                if (u[ui++] < p) c[lane] = cc + amount;
            }
        }
    }
}

void repro_anls_tail(const double *thresholds, const double *lengths,
                     int64_t n, int64_t volume, int64_t *c_io)
{
    double c = (double)(*c_io);
    if (volume) {
        for (int64_t k = 0; k < n; k++)
            if (c < thresholds[k]) c += (double)(int64_t)lengths[k];
    } else {
        for (int64_t k = 0; k < n; k++)
            if (c < thresholds[k]) c += 1.0;
    }
    *c_io = (int64_t)c;
}

/* ---------------- AEE: constant-p compare-add ---------------- */

void repro_aee_columns(const double *lengths, const int64_t *offsets,
                       const int64_t *actives, int64_t t_end, int64_t R,
                       int64_t volume, const double *u, double p,
                       int64_t max_value, int64_t *c, int64_t *sat)
{
    int64_t ui = 0;
    for (int64_t t = 0; t < t_end; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            int64_t amount = volume ? (int64_t)lengths[offsets[i] + t] : 1;
            for (int64_t r = 0; r < R; r++) {
                int64_t lane = i * R + r;
                if (u[ui++] < p) {
                    int64_t nc = c[lane] + amount;
                    if (nc > max_value) {
                        (*sat)++;
                        nc = max_value;
                    }
                    c[lane] = nc;
                }
            }
        }
    }
}

/* ---------------- ICE Buckets: per-bucket scale ---------------- */

void repro_ice(const double *lengths, const int64_t *offsets,
               const int64_t *actives, int64_t ncols, int64_t nflows,
               int64_t R, int64_t volume, int64_t limit,
               int64_t bucket_flows, double *ubuf, int64_t ucap,
               refill_t refill, int64_t *c, int64_t *s,
               int64_t *upscales)
{
    ustream us = {ubuf, ucap, 0, 0, refill};
    int64_t lanes = nflows * R;
    for (int64_t t = 0; t < ncols; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            double amount = volume ? lengths[offsets[i] + t] : 1.0;
            for (int64_t rep = 0; rep < R; rep++) {
                int64_t lane = i * R + rep;
                double x = amount / ldexp(1.0, (int)s[lane]);
                double base = floor(x);
                double frac = x - base;
                c[lane] += (int64_t)base + (u_next(&us) < frac ? 1 : 0);
                while (c[lane] >= limit) {
                    /* up-scale the whole bucket: halve every member
                     * with probabilistic rounding (local O(bucket)) */
                    int64_t fb = (lane / R) / bucket_flows;
                    int64_t start = fb * bucket_flows * R + rep;
                    int64_t stop = (fb + 1) * bucket_flows * R;
                    if (stop > lanes) stop = lanes;
                    for (int64_t ln = start; ln < stop; ln += R) {
                        double xv = (double)c[ln] * 0.5;
                        double b2 = floor(xv);
                        double f2 = xv - b2;
                        c[ln] = (int64_t)b2 + (u_next(&us) < f2 ? 1 : 0);
                        s[ln]++;
                    }
                    (*upscales)++;
                }
            }
        }
    }
}

/* ---------------- DISCO (Algorithm 1) ---------------- */

/* The step's constants and its exact lookup tables (see
 * repro_disco_tables).  n = 0 means no tables: every step is direct. */
typedef struct {
    const double *bpow;   /* bpow[c] = b^c  */
    const double *binv;   /* binv[c] = b^-c */
    const double *em1;    /* em1[d]  = b^d - 1 */
    int64_t n;
    double ln_b;
    double bm1;
    double max_value;     /* < 0: no capacity */
} disco_law;

/* Fills the tables for c = 0..n-1 with the very libm expressions the
 * direct step evaluates, so a lookup returns the bits the call would:
 * exp(c*ln_b) is b^c, exp(-c*ln_b) is b^-c, expm1(d*ln_b) is b^d - 1,
 * and exp((c+d)*ln_b) is bpow[c+d] because c+d is an exact double. */
void repro_disco_tables(double ln_b, int64_t n, double *bpow, double *binv,
                        double *em1)
{
    for (int64_t c = 0; c < n; c++) {
        double cc = (double)c;
        bpow[c] = exp(cc * ln_b);
        binv[c] = exp(-cc * ln_b);
        em1[c] = expm1(cc * ln_b);
    }
}

static int64_t disco_clamp(const disco_law *L, int64_t nc, int64_t *sat)
{
    if (L->max_value >= 0.0 && (double)nc > L->max_value) {
        (*sat)++;
        nc = (int64_t)L->max_value;
    }
    return nc;
}

/* delta from the headroom log_b(1 + (b-1) l b^-c): one below its
 * ceiling, or below the integer it lies within 1e-12 (relative) of. */
static double disco_delta(double headroom)
{
    double nearest = rint(headroom);
    double guard = 1e-12 * (nearest > 1.0 ? nearest : 1.0);
    double delta;
    if (fabs(headroom - nearest) <= guard && nearest > 0.0)
        delta = nearest - 1.0;
    else
        delta = ceil(headroom) - 1.0;
    return delta < 0.0 ? 0.0 : delta;
}

/* One full Algorithm-1 step, every power from libm (the direct step):
 * counter c, packet length l, uniform u. */
static int64_t disco_direct(const disco_law *L, int64_t c, double l,
                            double u, int64_t *sat)
{
    double ln_b = L->ln_b, bm1 = L->bm1;
    double cc = (double)c;
    double delta = disco_delta(log1p(l * bm1 * exp(-cc * ln_b)) / ln_b);
    double growth = exp(cc * ln_b) * expm1(delta * ln_b) / bm1;
    double gap = exp((cc + delta) * ln_b);
    double p = (l - growth) / gap;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    return disco_clamp(L, c + (int64_t)delta + (u < p ? 1 : 0), sat);
}

/* The same step reading the tables; bit-identical to disco_direct.
 * Counters at or past the table end, and a c + delta that crosses it,
 * take the direct step and count one fallback.
 *
 * delta = 0 shortcut: with x = l * b^-c < 1 - 1e-6 the headroom is
 * log_b(1 + (b-1) x) < log_b(b - (b-1) 1e-6) = 1 - (b-1) 1e-6 / (b ln b)
 * to first order, at least 1e-9 below 1 for any double b (ln b < 710),
 * while the direct step's rounding moves it by a few ulps.  Its computed
 * headroom is therefore below 1 + 1e-12, where both of its branches give
 * delta = 0: ceil(h) - 1 <= 0 for h <= 1, and nearest = 1 is caught by
 * the 1e-12 guard for h in (1, 1 + 1e-12].  With delta = 0 its growth is
 * b^c * expm1(0) / (b-1) = +0.0, so p = l / b^c exactly. */
static int64_t disco_step(const disco_law *L, int64_t c, double l, double u,
                          int64_t *sat, int64_t *fallbacks)
{
    if ((uint64_t)c >= (uint64_t)L->n) {
        (*fallbacks)++;
        return disco_direct(L, c, l, u, sat);
    }
    double inv = L->binv[c];
    int64_t d = 0;
    double p;
    if (l * inv < 1.0 - 1e-6) {
        p = l / L->bpow[c];
    } else {
        d = (int64_t)disco_delta(log1p(l * L->bm1 * inv) / L->ln_b);
        if (d >= L->n - c) {
            (*fallbacks)++;
            return disco_direct(L, c, l, u, sat);
        }
        double growth = L->bpow[c] * L->em1[d] / L->bm1;
        p = (l - growth) / L->bpow[c + d];
    }
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    return disco_clamp(L, c + d + (u < p ? 1 : 0), sat);
}

void repro_disco_columns(const double *lengths, const int64_t *offsets,
                         const int64_t *actives, int64_t t_end, int64_t R,
                         int64_t volume, const double *u,
                         double ln_b, double bm1, double max_value,
                         const double *bpow, const double *binv,
                         const double *em1, int64_t tabn,
                         int64_t *c, int64_t *sat_out, int64_t *fb_out)
{
    disco_law L = {bpow, binv, em1, tabn, ln_b, bm1, max_value};
    int64_t sat = 0, fallbacks = 0;
    int64_t ui = 0;
    for (int64_t t = 0; t < t_end; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            double l = volume ? lengths[offsets[i] + t] : 1.0;
            for (int64_t r = 0; r < R; r++) {
                int64_t lane = i * R + r;
                c[lane] = disco_step(&L, c[lane], l, u[ui++], &sat,
                                     &fallbacks);
            }
        }
    }
    *sat_out += sat;
    *fb_out += fallbacks;
}

/* Tail: flows 0..nflows-1 from packet t_end to their budget, flow-major
 * (flow, replica, packet), one uniform per packet.  Below c* (the
 * smallest c >= 1 with b^c above the flow's largest remaining packet)
 * each packet takes the full decision; from c* on delta is 0 and the
 * decision is the dwell compare u < l * b^-c, with b^-c read from the
 * table (a counter past its end calls exp and counts one fallback). */
void repro_disco_tail(const double *lengths, const int64_t *offsets,
                      const int64_t *sizes, int64_t nflows, int64_t t_end,
                      int64_t R, int64_t volume, const double *u,
                      double b, double ln_b, double max_value,
                      const double *bpow, const double *binv,
                      const double *em1, int64_t tabn,
                      int64_t *c, int64_t *sat_out, int64_t *fb_out)
{
    disco_law L = {bpow, binv, em1, tabn, ln_b, b - 1.0, max_value};
    int64_t sat = 0, fallbacks = 0;
    int64_t ui = 0;
    for (int64_t i = 0; i < nflows; i++) {
        int64_t n = sizes[i] - t_end;
        if (n <= 0) continue;
        const double *pl = lengths + offsets[i] + t_end;
        double maxlen = 1.0;
        if (volume) {
            maxlen = pl[0];
            for (int64_t k = 1; k < n; k++)
                if (pl[k] > maxlen) maxlen = pl[k];
        }
        double cs = ceil(log(maxlen) / ln_b);
        if (!(cs >= 1.0)) cs = 1.0;
        while (pow(b, cs) <= maxlen) cs += 1.0;
        int64_t c_star = (int64_t)cs;
        for (int64_t r = 0; r < R; r++) {
            int64_t lane = i * R + r;
            int64_t cc = c[lane];
            int64_t k = 0;
            for (; k < n && cc < c_star; k++)
                cc = disco_step(&L, cc, volume ? pl[k] : 1.0, u[ui++],
                                &sat, &fallbacks);
            double inv = 0.0;
            int stale = 1;
            for (; k < n; k++) {
                if (stale) {
                    if ((uint64_t)cc < (uint64_t)tabn) {
                        inv = binv[cc];
                    } else {
                        fallbacks++;
                        inv = exp(-(double)cc * ln_b);
                    }
                    stale = 0;
                }
                double l = volume ? pl[k] : 1.0;
                if (u[ui++] < l * inv) {
                    if (max_value >= 0.0 && (double)cc >= max_value) {
                        sat++;
                    } else {
                        cc++;
                        stale = 1;
                    }
                }
            }
            c[lane] = cc;
        }
    }
    *sat_out += sat;
    *fb_out += fallbacks;
}

/* ---------------- ANLS-II: geometric-jump sampling ---------------- */

void repro_anls2(const double *lengths, const int64_t *offsets,
                 const int64_t *sizes, int64_t nflows, int64_t R,
                 int64_t volume, const double *ltab, int64_t tabn,
                 double ln_b, double *ubuf, int64_t ucap, refill_t refill,
                 int64_t *c, int64_t *jumps_out)
{
    ustream us = {ubuf, ucap, 0, 0, refill};
    int64_t jumps = 0;
    for (int64_t i = 0; i < nflows; i++) {
        const double *pl = lengths + offsets[i];
        int64_t n = sizes[i];
        for (int64_t r = 0; r < R; r++) {
            int64_t lane = i * R + r;
            int64_t cc = c[lane];
            for (int64_t k = 0; k < n; k++) {
                int64_t rem = volume ? (int64_t)pl[k] : 1;
                while (rem > 0) {
                    int64_t g;
                    if (cc == 0) {
                        /* p = 1: certain success, but the law still
                         * consumes one uniform per attempt. */
                        (void)u_next(&us);
                        g = 1;
                    } else {
                        double logu = u_next(&us);
                        double lp = (cc < tabn) ? ltab[cc]
                            : log1p(-exp(-(double)cc * ln_b));
                        double gd = ceil(logu / lp);
                        if (!(gd >= 1.0)) gd = 1.0;
                        if (gd > 9.0e18) break;  /* G = inf: spent */
                        g = (int64_t)gd;
                    }
                    if (g <= rem) {
                        cc++;
                        jumps++;
                        rem -= g;
                    } else {
                        break;
                    }
                }
            }
            c[lane] = cc;
        }
    }
    *jumps_out = jumps;
}

/* ---------------- SAC: small active counters ---------------- */

static void sac_fit(double value, int64_t r, int64_t a_limit,
                    int64_t mode_limit, ustream *us,
                    int64_t *a_out, int64_t *m_out)
{
    int64_t m = 0;
    while (m < mode_limit - 1
           && value / ldexp(1.0, (int)(r * m)) >= (double)a_limit)
        m++;
    double x = value / ldexp(1.0, (int)(r * m));
    double base = floor(x);
    double frac = x - base;
    int64_t a = (int64_t)base + (u_next(us) < frac ? 1 : 0);
    if (a >= a_limit && m < mode_limit - 1) {
        m++;
        x = value / ldexp(1.0, (int)(r * m));
        base = floor(x);
        frac = x - base;
        a = (int64_t)base + (u_next(us) < frac ? 1 : 0);
    }
    if (a > a_limit - 1) a = a_limit - 1;
    *a_out = a;
    *m_out = m;
}

void repro_sac(const double *lengths, const int64_t *offsets,
               const int64_t *actives, int64_t ncols, int64_t nflows,
               int64_t R, int64_t volume, int64_t a_limit,
               int64_t mode_limit, double *ubuf, int64_t ucap,
               refill_t refill, int64_t *a, int64_t *m, int64_t *r,
               int64_t *counter_renorms, int64_t *global_renorms)
{
    ustream us = {ubuf, ucap, 0, 0, refill};
    int64_t lanes = nflows * R;
    for (int64_t t = 0; t < ncols; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            double amount = volume ? lengths[offsets[i] + t] : 1.0;
            for (int64_t rep = 0; rep < R; rep++) {
                int64_t lane = i * R + rep;
                double x = amount
                    / ldexp(1.0, (int)(r[rep] * m[lane]));
                double base = floor(x);
                double frac = x - base;
                a[lane] += (int64_t)base + (u_next(&us) < frac ? 1 : 0);
                while (a[lane] >= a_limit) {
                    if (m[lane] + 1 < mode_limit) {
                        m[lane]++;
                        (*counter_renorms)++;
                        double x2 = (double)a[lane]
                            / ldexp(1.0, (int)r[rep]);
                        double b2 = floor(x2);
                        double f2 = x2 - b2;
                        a[lane] = (int64_t)b2
                            + (u_next(&us) < f2 ? 1 : 0);
                    } else {
                        int64_t oldr = r[rep];
                        r[rep]++;
                        (*global_renorms)++;
                        for (int64_t ln = rep; ln < lanes; ln += R) {
                            double v = (double)a[ln]
                                * ldexp(1.0, (int)(oldr * m[ln]));
                            sac_fit(v, r[rep], a_limit, mode_limit,
                                    &us, &a[ln], &m[ln]);
                        }
                    }
                }
            }
        }
    }
}

/* ---------------- SD: hybrid SRAM/DRAM with CMA flushes ----------------
 *
 * Flush selection uses a bucket queue per replica: head[v] chains the
 * flows whose SRAM counter currently holds v (doubly linked through
 * nxt/prv), so LCF's "largest counter" is a walk down from the tracked
 * maximum instead of an O(flows) scan per DRAM slot.
 */

typedef struct {
    int64_t nflows;
    int64_t R;
    int64_t rep;
    int64_t nv;       /* sram_max + 1 */
    int64_t *head;    /* per-value chain heads, this replica's slice */
    int64_t *nxt;
    int64_t *prv;
    int64_t curmax;
    int64_t tracked;  /* flows with value >= threshold (policy 1) */
    int64_t threshold;
} bucketq;

static void bq_link(bucketq *q, int64_t f, int64_t v) {
    int64_t h = q->head[v];
    q->nxt[f] = h;
    q->prv[f] = -1;
    if (h >= 0) q->prv[h] = f;
    q->head[v] = f;
}

static void bq_unlink(bucketq *q, int64_t f, int64_t v) {
    int64_t nx = q->nxt[f], pv = q->prv[f];
    if (pv >= 0) q->nxt[pv] = nx;
    else q->head[v] = nx;
    if (nx >= 0) q->prv[nx] = pv;
}

void repro_sd(const double *lengths, const int64_t *offsets,
              const int64_t *actives, int64_t ncols, int64_t nflows,
              int64_t R, int64_t volume, int64_t sram_max, int64_t ratio,
              int64_t policy, int64_t threshold, int64_t sram_bits,
              int64_t addr_bits, int64_t *sram, int64_t *dram,
              int64_t *carry, int64_t *rr_cursor, int64_t *out)
{
    /* out: [flushes, flush_batches, bus_bits, overflow, lost] */
    int64_t use_buckets = (policy != 2);
    int64_t nv = sram_max + 1;
    bucketq *qs = NULL;
    int64_t *heads = NULL, *nxt = NULL, *prv = NULL;
    if (use_buckets) {
        qs = malloc(sizeof(bucketq) * R);
        heads = malloc(sizeof(int64_t) * nv * R);
        nxt = malloc(sizeof(int64_t) * nflows * R);
        prv = malloc(sizeof(int64_t) * nflows * R);
        for (int64_t rep = 0; rep < R; rep++) {
            bucketq *q = &qs[rep];
            q->nflows = nflows;
            q->R = R;
            q->rep = rep;
            q->nv = nv;
            q->head = heads + rep * nv;
            q->nxt = nxt + rep * nflows;
            q->prv = prv + rep * nflows;
            q->curmax = 0;
            q->tracked = 0;
            q->threshold = threshold;
            for (int64_t v = 0; v < nv; v++) q->head[v] = -1;
            for (int64_t f = 0; f < nflows; f++) {
                int64_t v = sram[f * R + rep];
                if (v > 0) {
                    bq_link(q, f, v);
                    if (v > q->curmax) q->curmax = v;
                    if (policy == 1 && v >= threshold) q->tracked++;
                }
            }
        }
    }
    for (int64_t t = 0; t < ncols; t++) {
        int64_t act = actives[t];
        for (int64_t i = 0; i < act; i++) {
            int64_t amount = volume ? (int64_t)lengths[offsets[i] + t] : 1;
            for (int64_t rep = 0; rep < R; rep++) {
                int64_t lane = i * R + rep;
                int64_t old = sram[lane];
                int64_t neu = old + amount;
                if (neu > sram_max) {
                    out[3]++;
                    out[4] += neu - sram_max;
                    neu = sram_max;
                }
                if (neu != old) {
                    sram[lane] = neu;
                    if (use_buckets) {
                        bucketq *q = &qs[rep];
                        if (old > 0) bq_unlink(q, i, old);
                        bq_link(q, i, neu);
                        if (neu > q->curmax) q->curmax = neu;
                        if (policy == 1)
                            q->tracked += (neu >= threshold)
                                - (old >= threshold);
                    }
                }
            }
        }
        for (int64_t rep = 0; rep < R; rep++) {
            int64_t total = carry[rep] + act;
            int64_t slots = total / ratio;
            carry[rep] = total % ratio;
            if (slots <= 0) continue;
            int64_t chosen = 0;
            if (use_buckets) {
                bucketq *q = &qs[rep];
                int64_t want = slots;
                if (policy == 1 && q->tracked < slots)
                    want = q->tracked;  /* rest via round-robin below */
                while (chosen < want) {
                    while (q->curmax > 0 && q->head[q->curmax] < 0)
                        q->curmax--;
                    if (q->curmax <= 0) break;
                    if (policy == 1 && q->curmax < threshold) break;
                    int64_t f = q->head[q->curmax];
                    int64_t lane = f * R + rep;
                    int64_t v = sram[lane];
                    bq_unlink(q, f, v);
                    if (policy == 1 && v >= threshold) q->tracked--;
                    dram[lane] += v;
                    sram[lane] = 0;
                    chosen++;
                }
            }
            if ((policy == 1 && chosen < slots) || policy == 2) {
                /* round-robin over remaining nonzero counters */
                int64_t want = slots - chosen;
                int64_t taken = 0, last = -1;
                for (int64_t s = 0; s < nflows && taken < want; s++) {
                    int64_t f = (rr_cursor[rep] + s) % nflows;
                    int64_t lane = f * R + rep;
                    int64_t v = sram[lane];
                    if (v > 0) {
                        if (use_buckets) {
                            bucketq *q = &qs[rep];
                            bq_unlink(q, f, v);
                            if (policy == 1 && v >= threshold)
                                q->tracked--;
                        }
                        dram[lane] += v;
                        sram[lane] = 0;
                        taken++;
                        last = f;
                    }
                }
                if (taken) rr_cursor[rep] = (last + 1) % nflows;
                chosen += taken;
            }
            if (chosen) {
                out[0] += chosen;
                out[1]++;
                out[2] += chosen * (sram_bits + addr_bits);
            }
        }
    }
    if (use_buckets) {
        free(qs);
        free(heads);
        free(nxt);
        free(prv);
    }
}
"""


# ---------------------------------------------------------------------------
# provider probing
# ---------------------------------------------------------------------------

_lock = threading.RLock()
_probed = False
_cc: Optional[ctypes.CDLL] = None
_warned = False

#: Per-``b`` probability tables shared across replays: ``(ptab, ltab)``
#: with ``ptab[c] = b^-c`` and ``ltab[c] = log1p(-b^-c)``, both computed
#: by NumPy so table lookups bit-match the vector path's ``np.exp``.
_TABLES: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

#: Per-``b`` DISCO step tables ``(bpow, binv, em1)``: ``b^c``, ``b^-c``
#: and ``b^d - 1``, built in C by ``repro_disco_tables`` with the libm
#: calls the direct step makes, so lookups return the same bits.
#: Grow-only: a longer table serves every shorter need.
_DISCO_TABLES: Dict[float, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def disabled() -> bool:
    """Whether the ``REPRO_DISABLE_NATIVE`` kill-switch is set."""
    return bool(os.environ.get(DISABLE_ENV, "").strip())


def _cache_dir() -> str:
    path = os.path.join(tempfile.gettempdir(), "repro-native-cache")
    os.makedirs(path, exist_ok=True)
    return path


def _compile_cc() -> Optional[ctypes.CDLL]:
    """Compile the embedded C source (cached by hash) and bind it."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    lib_path = os.path.join(_cache_dir(), f"repro_native_{digest}.so")
    if not os.path.exists(lib_path):
        src_path = os.path.join(_cache_dir(), f"repro_native_{digest}.c")
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        tmp_path = lib_path + f".tmp.{os.getpid()}"
        cmd = ["gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off",
               "-fno-fast-math", "-o", tmp_path, src_path, "-lm"]
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return None
        os.replace(tmp_path, lib_path)
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError:
        return None
    return _self_check_cc(lib)


def _self_check_cc(lib: ctypes.CDLL) -> Optional[ctypes.CDLL]:
    """Run tiny reference cases; a lib that fails them is not trusted."""
    try:
        lengths = np.array([2.0, 3.0], dtype=np.float64)
        offsets = np.array([0, 2], dtype=np.int64)
        sizes = np.array([2], dtype=np.int64)
        totals = np.zeros(1, dtype=np.int64)
        lib.repro_exact(_p(lengths), _p(offsets), _p(sizes),
                        ctypes.c_int64(1), ctypes.c_int64(1),
                        ctypes.c_int64(1), _p(totals))
        if int(totals[0]) != 5:
            return None
        # DISCO tail, b = 2, size mode, three packets from c = 0: the
        # general step at c = 0 advances surely (p = 1), then the dwell
        # compares u < 2^-c: 0.25 < 1/2 advances, 0.3 < 1/4 does not.
        # (Every array handed to C is bound to a name first: a pointer
        # to a temporary dangles once the temporary is collected.)
        u = np.array([0.5, 0.25, 0.3], dtype=np.float64)
        c = np.zeros(1, dtype=np.int64)
        sat = np.zeros(1, dtype=np.int64)
        fallbacks = np.zeros(1, dtype=np.int64)
        three = np.array([3], dtype=np.int64)
        ln_2 = math.log(2.0)
        tables = _build_disco_tables(lib, ln_2, 8)
        lib.repro_disco_tail(_p(lengths), _p(offsets), _p(three),
                             ctypes.c_int64(1), ctypes.c_int64(0),
                             ctypes.c_int64(1), ctypes.c_int64(0), _p(u),
                             ctypes.c_double(2.0), ctypes.c_double(ln_2),
                             ctypes.c_double(-1.0), *map(_p, tables),
                             ctypes.c_int64(0), _p(c), _p(sat),
                             _p(fallbacks))
        if int(c[0]) != 2 or int(sat[0]) != 0:
            return None
        # DISCO columns, b = 2, volume mode, one lane from c = 0:
        #   l = 3:  headroom log2(4) = 2, delta = 1, p = (3 - 1)/2 = 1 -> 2
        #   l = 1:  shortcut (1/4 < 1), p = 1/4 > u = 0.2            -> 3
        #   l = 8:  x = 1, headroom 1, delta = 0, p = 8/8 = 1         -> 4
        #   l = 40: headroom log2(3.5), delta = 1,
        #           p = (40 - 16)/32 = 0.75 > u = 0.7                 -> 6
        # through an 8-entry table and through a zero-length one (the
        # direct step, one fallback per packet).
        u = np.array([0.9, 0.2, 0.5, 0.7], dtype=np.float64)
        lens = np.array([3.0, 1.0, 8.0, 40.0], dtype=np.float64)
        start = np.zeros(1, dtype=np.int64)
        actives = np.ones(4, dtype=np.int64)
        for n in (8, 0):
            c[0] = fallbacks[0] = 0
            lib.repro_disco_columns(
                _p(lens), _p(start), _p(actives), ctypes.c_int64(4),
                ctypes.c_int64(1), ctypes.c_int64(1), _p(u),
                ctypes.c_double(ln_2), ctypes.c_double(1.0),
                ctypes.c_double(-1.0), *map(_p, tables),
                ctypes.c_int64(n), _p(c), _p(sat), _p(fallbacks))
            if int(c[0]) != 6 or int(sat[0]) != 0 \
                    or int(fallbacks[0]) != (0 if n else 4):
                return None
    except Exception:
        return None
    return lib


def _probe() -> None:
    global _probed, _cc
    if _probed:
        return
    with _lock:
        if _probed:
            return
        _cc = None if disabled() else _compile_cc()
        _probed = True


def available() -> bool:
    """Whether the C provider passed its warmup probe.

    First call triggers the probe (C compile and self-check); later
    calls are a cached flag read.  Callers that care
    about compile time keeping out of throughput numbers should probe
    inside a ``replay.native.warmup`` telemetry span — the batch driver
    does.
    """
    _probe()
    return _cc is not None


def provider_name() -> str:
    """``"cc"`` or ``"none"`` (post-probe)."""
    _probe()
    return "cc" if _cc is not None else "none"


def reset() -> None:
    """Forget probe results and the warn-once flag (test hook)."""
    global _probed, _cc, _warned
    with _lock:
        _probed = False
        _cc = None
        _warned = False


def warn_fallback(context: str) -> None:
    """Warn (once per process) that native fell back to vector."""
    global _warned
    with _lock:
        if _warned:
            return
        _warned = True
    warnings.warn(
        f"engine='native' is unavailable ({context}); falling back to the "
        f"vector engine. Install a C toolchain (gcc) to enable "
        f"it, or unset {DISABLE_ENV} if it was masked.",
        RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _p(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


def _prob_tables(b: float, ln_b: float) -> Tuple[np.ndarray, np.ndarray]:
    key = float(b)
    with _lock:
        hit = _TABLES.get(key)
    if hit is None:
        n = min(int(math.ceil(746.0 / ln_b)) + 2, _TABLE_CAP)
        ptab = np.exp(-np.arange(n, dtype=np.float64) * ln_b)
        with np.errstate(divide="ignore"):
            ltab = np.log1p(-ptab)
        hit = (ptab, ltab)
        with _lock:
            _TABLES[key] = hit
    return hit


def _build_disco_tables(lib: ctypes.CDLL, ln_b: float, n: int
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    tables = tuple(np.empty(n, dtype=np.float64) for _ in range(3))
    lib.repro_disco_tables(ctypes.c_double(ln_b), ctypes.c_int64(n),
                           *map(_p, tables))
    for table in tables:
        table.flags.writeable = False
    return tables


def _disco_tables(lib: ctypes.CDLL, kernel, compiled, volume: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DISCO step tables for ``kernel.b``, long enough for this replay.

    A counter carried in at ``c0`` that counts ``V`` more reads about
    ``c0 + log_b(1 + (b-1) V)``; DISCO's estimate is unbiased with a
    coefficient of variation below ``sqrt((b-1)/(b+1))``
    (:func:`repro.core.analysis.cov_bound`), so the tables cover the
    largest carried counter plus the largest flow volume (packet count
    in size mode) read eight of those above its mean, plus 2 for the
    final step's overshoot.  The length stays where ``b^c`` is finite
    and, with a capacity, below ``max_value + 2``; steps past the end
    take the direct step.  A miss doubles the cached length (up to those
    bounds), so a stream's slowly growing counters rebuild rarely.
    """
    b, ln_b = kernel.b, kernel._ln_b
    lanes = compiled.num_flows * kernel.replicas
    carried = int(kernel.state.counters[:lanes].max(initial=0))
    v_max = (int(compiled.volumes.max(initial=0)) if volume
             else compiled.max_flow_packets)
    v_top = v_max * (1.0 + 8.0 * math.sqrt((b - 1.0) / (b + 1.0)))
    limit = min(int(709.0 / ln_b), _TABLE_CAP)
    if kernel.max_value is not None:
        limit = min(limit, kernel.max_value + 2)
    need = min(carried + int(math.ceil(math.log1p((b - 1.0) * v_top) / ln_b))
               + 2, limit)
    with _lock:
        hit = _DISCO_TABLES.get(b)
        if hit is None or len(hit[0]) < need:
            grown = 2 * len(hit[0]) if hit is not None else 0
            hit = _build_disco_tables(lib, ln_b, max(need, min(grown, limit)))
            _DISCO_TABLES[b] = hit
    return hit


def _geometry(compiled, R: int, min_lanes: int):
    """Per-column active widths and the columnar/tail boundary ``t_end``.

    Mirrors the batch driver's loop-break condition exactly, so native
    and vector replays consume their random streams in lockstep.
    """
    sizes = compiled.sizes
    columns = compiled.max_flow_packets
    actives = compiled.num_flows - np.searchsorted(
        sizes[::-1], np.arange(columns, dtype=sizes.dtype), side="right")
    actives = np.ascontiguousarray(actives, dtype=np.int64)
    below = np.flatnonzero(actives * R < min_lanes)
    t_end = int(below[0]) if below.size else columns
    return actives, columns, t_end


def _make_refill(fill: Callable[[int], np.ndarray]):
    """Wrap a chunk-drawing function as the C refill callback."""
    def refill(buf_ptr, cap):
        chunk = fill(cap)
        ctypes.memmove(buf_ptr, chunk.ctypes.data, cap * 8)
        return cap
    return _REFILL(refill)


@dataclass(frozen=True)
class NativeStats:
    """What a native runner reports back to the batch driver."""

    vector_steps: int
    tail_packets: int
    tail_flows: int
    #: Time spent in the runner's tail phase (0 for runners without
    #: one); the batch driver books the rest as the columnar phase.
    tail_seconds: float = 0.0


# ---------------------------------------------------------------------------
# per-kernel runners
# ---------------------------------------------------------------------------
#
# Each builder returns ``run(compiled, mode, min_lanes) -> NativeStats``
# operating in place on the kernel's state arrays, or ``None`` when the
# C provider is unavailable or does not cover this kernel (the driver
# then silently uses the vector columnar path, which is the same law).

def exact_runner(kernel):
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        cc.repro_exact(_p(compiled.lengths), _p(compiled.offsets),
                       _p(compiled.sizes), ctypes.c_int64(nflows),
                       ctypes.c_int64(R), ctypes.c_int64(volume),
                       _p(kernel.totals))
        return NativeStats(0, 0, 0)

    return run


def anls_runner(kernel):
    """ANLS / ANLS-I: bit-identical to the vector path.

    Column phase pre-draws the exact uniform stream the vector path
    would consume (``Generator.random`` is chunk-transparent) and
    compares against a NumPy-computed ``b^-c`` table; the tail computes
    its log-thresholds with the same NumPy expressions as
    :meth:`~repro.core.kernels.AnlsKernel.tail_flow` and hands the bare
    compare-and-add loop to machine code.
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        gen = kernel.gen
        ln_b = kernel._ln_b
        ptab, _ = _prob_tables(kernel.b, ln_b)
        actives, columns, t_end = _geometry(compiled, R, min_lanes)
        total = int(actives[:t_end].sum()) * R
        u = gen.random(total)
        cc.repro_anls_columns(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(t_end), ctypes.c_int64(R),
            ctypes.c_int64(volume), _p(u), _p(ptab),
            ctypes.c_int64(len(ptab)), ctypes.c_double(ln_b),
            _p(kernel.c))
        tail_packets = tail_flows = 0
        start = time.perf_counter()
        if t_end < columns:
            sizes = compiled.sizes
            offsets = compiled.offsets
            lengths = compiled.lengths
            active = int(actives[t_end])
            for i in range(active):
                budget = int(sizes[i])
                if budget <= t_end:
                    continue
                n = budget - t_end
                lens = None
                if volume:
                    base = int(offsets[i])
                    lens = lengths[base + t_end:base + budget]
                for r in range(R):
                    # Sampling is p = b^-c independent of the packet
                    # length (the length only sets the success amount):
                    # u < b^-c  <=>  c < -ln u / ln b, same as the
                    # vector tail.
                    with np.errstate(divide="ignore"):
                        th = -np.log(gen.random(n)) / ln_b
                    lane = i * R + r
                    cc.repro_anls_tail(
                        _p(th), _p(lens if lens is not None else th),
                        ctypes.c_int64(n), ctypes.c_int64(volume),
                        _p(kernel.c[lane:lane + 1]))
                tail_packets += n
                tail_flows += 1
        return NativeStats(t_end, tail_packets, tail_flows,
                           time.perf_counter() - start)

    return run


def disco_runner(kernel):
    """DISCO: the whole replay as two C calls, column phase then tail.

    The column phase consumes the vector path's exact uniform stream;
    the tail then consumes one pre-drawn uniform per tail packet per
    replica, flow-major (:func:`repro_disco_tail`): full Algorithm-1
    decisions below the flow's ``c*``, the dwell compare
    ``u < l * b^-c`` from there on.  Distributionally equivalent to the
    vector path (libm transcendentals may differ from NumPy's SIMD
    kernels in the last ulp, and the tail draws from a different
    stream).  Rows without packets draw nothing, so a replay over only a
    shard's touched rows consumes the same stream as one over the whole
    slice.

    Both calls read exact power tables (:func:`_disco_tables`) instead
    of calling ``exp``/``expm1`` per packet, and skip ``log1p`` where
    ``l * b^-c < 1 - 1e-6`` forces ``delta = 0``; the tables hold the
    bits libm returns, so counters equal the all-libm step's.  Steps
    past the table end call libm and are counted in
    ``kernel.table_fallbacks`` (telemetry
    ``kernel.disco.table_fallbacks``).
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        R = kernel.replicas
        gen = kernel.gen
        actives, columns, t_end = _geometry(compiled, R, min_lanes)
        total = int(actives[:t_end].sum()) * R
        u = gen.random(total)
        events = np.zeros(2, dtype=np.int64)  # saturations, fallbacks
        max_value = -1.0 if kernel.max_value is None \
            else float(kernel.max_value)
        tables = _disco_tables(cc, kernel, compiled, volume)
        law = (ctypes.c_double(max_value), *map(_p, tables),
               ctypes.c_int64(len(tables[0])), _p(kernel.state.counters),
               _p(events[0:1]), _p(events[1:2]))
        cc.repro_disco_columns(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(t_end), ctypes.c_int64(R),
            ctypes.c_int64(volume), _p(u), ctypes.c_double(kernel._ln_b),
            ctypes.c_double(kernel.b - 1.0), *law)
        tail_packets = tail_flows = 0
        tail_seconds = 0.0
        if t_end < columns:
            # Flows are sorted by descending budget, so the active prefix
            # at t_end is exactly the flows with packets left.
            tail_flows = int(actives[t_end])
            tail_packets = (int(compiled.sizes[:tail_flows].sum())
                            - tail_flows * t_end)
            start = time.perf_counter()
            u = gen.random(tail_packets * R)
            cc.repro_disco_tail(
                _p(compiled.lengths), _p(compiled.offsets),
                _p(compiled.sizes), ctypes.c_int64(tail_flows),
                ctypes.c_int64(t_end), ctypes.c_int64(R),
                ctypes.c_int64(volume), _p(u), ctypes.c_double(kernel.b),
                ctypes.c_double(kernel._ln_b), *law)
            tail_seconds = time.perf_counter() - start
        kernel.saturation_events += int(events[0])
        kernel.table_fallbacks += int(events[1])
        return NativeStats(t_end, tail_packets, tail_flows, tail_seconds)

    return run


def anls2_runner(kernel):
    """ANLS-II: the whole geometric-jump replay flow-major in C.

    Lanes are independent, so the native path walks each flow's packet
    sequence start to finish, drawing log-uniforms from a shared buffer
    that Python refills (``np.log(gen.random(n))`` — the log itself is
    SIMD-vectorised) and jumping ``G = ceil(log u / log1p(-b^-c))``
    increments at a time.  Distributionally equivalent: the vector path
    draws per masked round, an order no pre-drawn stream can mirror.
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        gen = kernel.gen
        ln_b = kernel._ln_b
        _, ltab = _prob_tables(kernel.b, ln_b)
        buf = np.empty(65536, dtype=np.float64)

        def fill(n: int) -> np.ndarray:
            u = gen.random(n)
            with np.errstate(divide="ignore"):
                np.log(u, out=u)
            return u

        refill = _make_refill(fill)
        jumps = np.zeros(1, dtype=np.int64)
        cc.repro_anls2(
            _p(compiled.lengths), _p(compiled.offsets), _p(compiled.sizes),
            ctypes.c_int64(nflows), ctypes.c_int64(R),
            ctypes.c_int64(volume), _p(ltab), ctypes.c_int64(len(ltab)),
            ctypes.c_double(ln_b), _p(buf), ctypes.c_int64(len(buf)),
            refill, _p(kernel.c), _p(jumps))
        kernel.geometric_jumps += int(jumps[0])
        return NativeStats(0, 0, 0)

    return run


def sac_runner(kernel):
    """SAC: the full column-major replay in C.

    The global per-replica scale ``r`` couples every lane, so the native
    path keeps the vector engine's column order end to end (no scalar
    tail split) and draws uniforms from a refillable buffer wherever the
    law needs one.  Distributionally equivalent: renormalisation
    cascades consume data-dependent randomness.
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        gen = kernel.gen
        actives, columns, _ = _geometry(compiled, R, min_lanes)
        buf = np.empty(65536, dtype=np.float64)
        refill = _make_refill(gen.random)
        counts = np.zeros(2, dtype=np.int64)
        cc.repro_sac(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(columns), ctypes.c_int64(nflows),
            ctypes.c_int64(R), ctypes.c_int64(volume),
            ctypes.c_int64(kernel.a_limit), ctypes.c_int64(kernel.mode_limit),
            _p(buf), ctypes.c_int64(len(buf)), refill,
            _p(kernel.a), _p(kernel.m), _p(kernel.r),
            _p(counts[0:1]), _p(counts[1:2]))
        kernel.counter_renormalizations += int(counts[0])
        kernel.global_renormalizations += int(counts[1])
        return NativeStats(columns, 0, 0)

    return run


def aee_runner(kernel):
    """AEE: bit-identical to the vector path (constant-p compare-add).

    The sampling probability is a constant, so the column phase
    pre-draws the exact uniform stream the vector path would consume
    (like ANLS, but without even a probability table) and the tail calls
    the kernel's own :meth:`~repro.core.kernels.AeeKernel.tail_flow` —
    already a vectorised mask-and-sum with no per-packet Python loop, so
    there is nothing left to lower.
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        R = kernel.replicas
        gen = kernel.gen
        actives, columns, t_end = _geometry(compiled, R, min_lanes)
        total = int(actives[:t_end].sum()) * R
        u = gen.random(total)
        sat = np.zeros(1, dtype=np.int64)
        cc.repro_aee_columns(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(t_end), ctypes.c_int64(R),
            ctypes.c_int64(volume), _p(u), ctypes.c_double(kernel.p),
            ctypes.c_int64(kernel.max_value), _p(kernel.c), _p(sat))
        kernel.saturation_events += int(sat[0])
        tail_packets = tail_flows = 0
        start = time.perf_counter()
        if t_end < columns:
            sizes = compiled.sizes
            offsets = compiled.offsets
            lengths = compiled.lengths
            active = int(actives[t_end])
            for i in range(active):
                budget = int(sizes[i])
                if budget <= t_end:
                    continue
                n = budget - t_end
                lens = None
                if volume:
                    base = int(offsets[i])
                    lens = lengths[base + t_end:base + budget]
                for r in range(R):
                    kernel.tail_flow(i * R + r, lens, n)
                tail_packets += n
                tail_flows += 1
        return NativeStats(t_end, tail_packets, tail_flows,
                           time.perf_counter() - start)

    return run


def ice_runner(kernel):
    """ICE Buckets: the full column-major replay in C.

    A bucket up-scale re-encodes every member lane, consuming a
    data-dependent amount of randomness no pre-drawn stream can mirror
    (the SAC situation, bucket-local instead of replica-global), so the
    native path keeps the column order end to end with a refillable
    uniform buffer: distributionally equivalent.
    """
    _probe()
    cc = _cc
    if cc is None:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        gen = kernel.gen
        actives, columns, _ = _geometry(compiled, R, min_lanes)
        buf = np.empty(65536, dtype=np.float64)
        refill = _make_refill(gen.random)
        ups = np.zeros(1, dtype=np.int64)
        cc.repro_ice(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(columns), ctypes.c_int64(nflows),
            ctypes.c_int64(R), ctypes.c_int64(volume),
            ctypes.c_int64(kernel.limit),
            ctypes.c_int64(kernel.bucket_flows),
            _p(buf), ctypes.c_int64(len(buf)), refill,
            _p(kernel.c), _p(kernel.s), _p(ups))
        kernel.bucket_upscales += int(ups[0])
        return NativeStats(columns, 0, 0)

    return run


def sd_runner(kernel):
    """SD: column-major replay with bucket-queue CMA flush selection.

    Per-flow totals (DRAM + SRAM) are exact integer sums, identical to
    the vector path's whenever SRAM never saturates; overflow/bus
    diagnostics are order-sensitive under any replay order and therefore
    comparable, not bitwise equal — the same caveat the vector kernel
    documents.  Unknown batch policies, very wide SRAM counters and
    carried SRAM values above ``2**sram_bits - 1`` (a lossy store's
    decode can overshoot; the bucket queue has one chain per value up to
    that maximum) decline (fall back to the vector path).
    """
    _probe()
    cc = _cc
    if cc is None:
        return None
    from repro.counters.cma import (_BatchLcf, _BatchRoundRobin,
                                    _BatchThresholdLcf)

    probe = kernel._policies[0]
    if isinstance(probe, _BatchThresholdLcf):
        policy, threshold = 1, int(probe.threshold)
    elif isinstance(probe, _BatchLcf):
        policy, threshold = 0, 0
    elif isinstance(probe, _BatchRoundRobin):
        policy, threshold = 2, 0
    else:
        return None
    if kernel.sram_bits > _SD_MAX_SRAM_BITS:
        return None
    if int(kernel.sram.max(initial=0)) > kernel._sram_max:
        return None

    def run(compiled, mode: str, min_lanes: int) -> NativeStats:
        volume = 1 if mode == "volume" else 0
        nflows = compiled.num_flows
        R = kernel.replicas
        actives, columns, _ = _geometry(compiled, R, min_lanes)
        rr_cursor = np.zeros(R, dtype=np.int64)
        out = np.zeros(5, dtype=np.int64)
        cc.repro_sd(
            _p(compiled.lengths), _p(compiled.offsets), _p(actives),
            ctypes.c_int64(columns), ctypes.c_int64(nflows),
            ctypes.c_int64(R), ctypes.c_int64(volume),
            ctypes.c_int64(kernel._sram_max), ctypes.c_int64(kernel.ratio),
            ctypes.c_int64(policy), ctypes.c_int64(threshold),
            ctypes.c_int64(kernel.sram_bits),
            ctypes.c_int64(kernel._addr_bits),
            _p(kernel.sram), _p(kernel.dram), _p(kernel._carry),
            _p(rr_cursor), _p(out))
        kernel.flushes += int(out[0])
        kernel.flush_batches += int(out[1])
        kernel.bus_bits_transferred += int(out[2])
        kernel.overflow_events += int(out[3])
        kernel.lost_traffic += int(out[4])
        return NativeStats(columns, 0, 0)

    return run
