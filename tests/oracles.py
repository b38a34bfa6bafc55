"""Independent reference implementations the tests compare against.

Everything here favors obviousness over speed: plain loops, textbook
formulas, exhaustive enumeration. Package code must never import this
module; the arrow of trust points one way.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def finite_difference_grad(f, x, step=1e-4):
    """Central-difference gradient of scalar f with respect to array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = f(x)
        flat[i] = keep - step
        lo = f(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def max_relative_error(got, want):
    """Elementwise |got-want| / max(|got|, |want|, 1), maximized.

    The unit floor makes the comparison absolute for tiny gradients, which
    is the right scale for order-one test data.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


def _windows_ref(xp, w, stride, n):
    """(C, W, n) with [:, j, t] = xp[:, j + stride * t]."""
    return np.stack([xp[:, j:j + stride * (n - 1) + 1:stride] for j in range(w)],
                    axis=1)


def _overlap_add_ref(cols, stride, size):
    """Scatter-add (C, W, n) columns into (C, size); adjoint of _windows_ref."""
    c, w, n = cols.shape
    out = np.zeros((c, size), dtype=cols.dtype)
    for j in range(w):
        out[:, j:j + stride * (n - 1) + 1:stride] += cols[:, j, :]
    return out


def conv1d_ref(x, k, stride, padding):
    """conv1d of x (Cin, T) with k (Cout, Cin, W) by einsum over windows.

    Returns (y, grads), where grads(g) gives (dx, dk) for an upstream
    gradient g of y.
    """
    t = x.shape[1]
    w = k.shape[2]
    xp = np.pad(x, ((0, 0), (padding, padding)))
    t_out = (xp.shape[1] - w) // stride + 1
    cols = _windows_ref(xp, w, stride, t_out)

    def grads(g):
        dxp = _overlap_add_ref(np.einsum("oiw,ot->iwt", k, g), stride, xp.shape[1])
        return dxp[:, padding:padding + t], np.einsum("ot,iwt->oiw", g, cols)
    return np.einsum("oiw,iwt->ot", k, cols), grads


def conv_transpose1d_ref(x, k, stride, padding):
    """conv_transpose1d of x (Cin, T) with k (Cin, Cout, W) by einsum.

    Returns (y, grads) like conv1d_ref.
    """
    t = x.shape[1]
    w = k.shape[2]
    t_full = (t - 1) * stride + w
    y = _overlap_add_ref(np.einsum("iow,it->owt", k, x), stride, t_full)

    def grads(g):
        cols = _windows_ref(np.pad(g, ((0, 0), (padding, padding))), w, stride, t)
        return np.einsum("iow,owt->it", k, cols), np.einsum("it,owt->iow", x, cols)
    return y[:, padding:t_full - padding], grads


def dct2_ortho_ref(v):
    """Orthonormal DCT-II of a 1-D vector by direct summation."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += v[i] * math.cos(math.pi * (i + 0.5) * k / n)
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def idct2_ortho_ref(c):
    """Inverse of dct2_ortho_ref by direct summation."""
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    out = np.zeros(n)
    for i in range(n):
        acc = math.sqrt(1.0 / n) * c[0]
        for k in range(1, n):
            acc += math.sqrt(2.0 / n) * c[k] * math.cos(math.pi * (i + 0.5) * k / n)
        out[i] = acc
    return out


def hz_to_mel_ref(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def mel_to_hz_ref(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def fft_peak_bin(samples, fft_size):
    """Dominant non-DC rfft bin of a centered slice of the signal."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < fft_size:
        raise ValueError("signal shorter than the analysis window")
    start = (samples.size - fft_size) // 2
    chunk = samples[start:start + fft_size] * np.hanning(fft_size)
    mag = np.abs(np.fft.rfft(chunk))
    return int(np.argmax(mag[1:]) + 1)


def nearest_codeword_ref(row, codebook):
    """Exhaustive nearest-neighbour search; strict < keeps the lowest index."""
    best_i = 0
    best_d = None
    for i, cw in enumerate(codebook):
        d = 0.0
        for a, b in zip(row, cw):
            d += (a - b) ** 2
        if best_d is None or d < best_d:
            best_d = d
            best_i = i
    return best_i


def _midranks_abs(diffs):
    """Midranks of |diffs| computed by pairwise counting."""
    mags = [abs(d) for d in diffs]
    ranks = []
    for m in mags:
        below = sum(1 for o in mags if o < m)
        equal = sum(1 for o in mags if o == m)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def wilcoxon_enumeration_ref(a, b):
    """Exact two-sided signed-rank test by enumerating all sign patterns.

    Zero differences are dropped. Returns (W, p) with W = min(W+, W-).
    """
    diffs = [float(x) - float(y) for x, y in zip(a, b) if float(x) != float(y)]
    n = len(diffs)
    if n == 0:
        raise ValueError("all differences are zero")
    ranks = _midranks_abs(diffs)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    total = sum(ranks)
    w_obs = min(w_plus, total - w_plus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for s, r in zip(signs, ranks) if s)
        if min(wp, total - wp) <= w_obs + 1e-9:
            hits += 1
    return w_obs, hits / 2.0 ** n


def mos_ci_ref(scores, t_quantile):
    """Mean and t confidence half-width from an externally supplied quantile."""
    scores = [float(s) for s in scores]
    n = len(scores)
    mean = sum(scores) / n
    var = sum((s - mean) ** 2 for s in scores) / (n - 1)
    half = t_quantile * math.sqrt(var) / math.sqrt(n)
    return mean, half


def greedy_pairing_ref(speakers, max_delta):
    """Reference greedy matcher over (id, sex, score, band) tuples.

    Enumerates every same-band candidate pair up front with exact
    fractional deltas, sorts once by (delta, id_a, id_b), and sweeps,
    skipping speakers already taken.  Returns [(a, b, delta_fraction)].
    """
    cands = []
    rows = sorted(speakers, key=lambda s: s[0])
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if a[3] != b[3] or a[1] != b[1]:
                continue
            delta = abs(Fraction(str(a[2])) - Fraction(str(b[2])))
            if delta <= Fraction(str(max_delta)):
                cands.append((delta, a[0], b[0]))
    cands.sort()
    taken = set()
    out = []
    for delta, a_id, b_id in cands:
        if a_id in taken or b_id in taken:
            continue
        taken.update((a_id, b_id))
        out.append((a_id, b_id, delta))
    return out
