"""Independent reference implementations the tests compare against.

Everything here favors obviousness over speed: plain loops, textbook
formulas, exhaustive enumeration. Package code must never import this
module; the arrow of trust points one way.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.ndimage


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


def mel_filterbank_ref(sample_rate, fft_size, n_mels, fmin, fmax):
    """Triangular mel filterbank built one filter per loop pass."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    n_bins = fft_size // 2 + 1
    bin_mels = to_mel(np.arange(n_bins) * sample_rate / fft_size)
    points = np.linspace(to_mel(fmin), to_mel(fmax), n_mels + 2)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = points[m], points[m + 1], points[m + 2]
        rising = (bin_mels - lo) / (mid - lo)
        falling = (hi - bin_mels) / (hi - mid)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def trim_silence_ref(x, sample_rate, threshold_db, frame_ms):
    """Frame-granular silence trim by a per-frame loop.

    Returns the kept samples, or None when no frame reaches the gate.
    """
    x = np.asarray(x, dtype=np.float64)
    peak = np.max(np.abs(x)) if x.size else 0.0
    if peak == 0.0:
        return None
    frame = max(1, int(round(sample_rate * frame_ms / 1000.0)))
    n_frames = (x.size + frame - 1) // frame
    gate = peak * 10.0 ** (threshold_db / 20.0)
    loud = [np.max(np.abs(x[i * frame:(i + 1) * frame])) >= gate
            for i in range(n_frames)]
    if not any(loud):
        return None
    first = loud.index(True)
    last = n_frames - 1 - loud[::-1].index(True)
    return x[first * frame:min((last + 1) * frame, x.size)]


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


def init_params_ref(cfg, n_speakers, seed):
    """{name: array} of a fresh model's parameters, drawn one par() call
    at a time in the model's historical order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(cfg.param_dtype)
    params = {}

    def par(name, shape, std=None):
        if std is None:
            params[name] = np.zeros(shape, dtype=dt)
        else:
            params[name] = (std * rng.standard_normal(shape)).astype(dt)

    def conv_std(cin, w):
        return np.sqrt(2.0 / (cin * w))

    # the up-convs' kernel is twice the model's stride of 2
    k, uk, h, d, e, c = (cfg.kernel_size, 4, cfg.hidden,
                         cfg.latent_dim, cfg.embed_dim, cfg.in_channels)
    for n in (1, 2, 3):
        cin = c if n == 1 else h
        par(f"enc{n}.conv1.w", (h, cin, k), conv_std(cin, k))
        par(f"enc{n}.conv1.b", (h, 1))
        par(f"enc{n}.conv2.w", (h, h, k), conv_std(h, k))
        par(f"enc{n}.conv2.b", (h, 1))
        par(f"enc{n}.proj.w", (d, h, 1), conv_std(h, 1))
        par(f"enc{n}.proj.b", (d, 1))
    for n in (1, 2, 3):
        cin = d + e if n == 3 else d + h + e
        cout = c if n == 1 else h
        par(f"dec{n}.up.w", (cin, h, uk), conv_std(cin, uk))
        par(f"dec{n}.up.b", (h, 1))
        par(f"dec{n}.out.w", (cout, h, k), conv_std(h, k))
        par(f"dec{n}.out.b", (cout, 1))
    for n in (1, 2, 3):
        par(f"codebook{n}", (cfg.codebook_size, d), 0.05)
    par("speaker_table", (n_speakers, e), 0.01)
    return params


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


def greedy_pairing_ref(speakers, max_delta, include_female=False,
                       allow_cross_sex=False):
    """Reference greedy matcher over (id, sex, score, band) tuples.

    Enumerates every same-band candidate pair up front with exact
    fractional deltas, sorts once by (delta, id_a, id_b), and sweeps,
    skipping speakers already taken.  Female speakers take part only
    with ``include_female``, mixed-sex pairs only with
    ``allow_cross_sex``.  Returns [(a, b, delta_fraction)].
    """
    cands = []
    rows = sorted((s for s in speakers if include_female or s[1] == "M"),
                  key=lambda s: s[0])
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if a[3] != b[3] or (a[1] != b[1] and not allow_cross_sex):
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


def _hann_periodic_ref(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_ref(x, fft_size, hop_size, window_size):
    """Time-major complex STFT, no centering: T = 1 + (len - window) // hop."""
    x = np.asarray(x, dtype=np.float64)
    t = 1 + (x.size - window_size) // hop_size
    win = _hann_periodic_ref(window_size)
    frames = np.lib.stride_tricks.sliding_window_view(x, window_size)[::hop_size][:t]
    return np.fft.rfft(frames * win, n=fft_size, axis=1)


def istft_ref(spec, fft_size, hop_size, window_size, length=None):
    """Least-squares inverse STFT by a per-frame overlap-add loop.

    The window-square sum is floored at a tenth of its peak, as in the
    package.
    """
    spec = np.asarray(spec)
    t = spec.shape[0]
    win = _hann_periodic_ref(window_size)
    frames = np.fft.irfft(spec, n=fft_size, axis=1)[:, :window_size]
    total = (t - 1) * hop_size + window_size
    num = np.zeros(total)
    den = np.zeros(total)
    for i in range(t):
        lo = i * hop_size
        num[lo:lo + window_size] += frames[i] * win
        den[lo:lo + window_size] += win * win
    out = num / np.maximum(den, max(0.1 * den.max(), 1e-12))
    if length is not None:
        if length <= total:
            out = out[:length]
        else:
            out = np.pad(out, (0, length - total))
    return out


def binary_opening_ref(mask):
    """Binary opening along axis 0 by three frames, as ``scipy.ndimage``
    computes it (border value 0)."""
    return scipy.ndimage.binary_opening(mask, structure=np.ones((3, 1), dtype=bool))


def reduce_noise_ref(x, cfg):
    """Stationary spectral gating on the STFT oracles and ``ndimage``'s
    opening, a fresh array per step; the samples for waveform ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < cfg.window_size or not np.any(x):
        return x.copy()
    sizes = (cfg.fft_size, cfg.hop_size, cfg.window_size)
    pad = cfg.window_size
    xp = np.pad(x, (pad, pad), mode="reflect")
    spec = stft_ref(xp, *sizes)
    mag = np.abs(spec)
    energies = np.sum(mag * mag, axis=1)
    n_floor = max(1, int(np.ceil(cfg.noise_floor_quantile * mag.shape[0])))
    quiet = np.argsort(energies, kind="stable")[:n_floor]
    floor = mag[quiet].mean(axis=0)
    floor = scipy.ndimage.median_filter(floor, size=25, mode="nearest")
    floor = np.maximum(floor, 1e-10 * mag.max() + 1e-12)
    gate = floor * 10.0 ** (cfg.noise_gate_db / 20.0)
    raw = binary_opening_ref(mag > gate[None, :]).astype(np.float64)
    smooth = scipy.ndimage.uniform_filter(raw, size=(3, 5), mode="nearest")
    atten = 10.0 ** (cfg.noise_attenuation_db / 20.0)
    gain = np.clip(np.maximum(raw, smooth), atten, 1.0)
    return istft_ref(spec * gain, *sizes)[pad:pad + x.size]


def griffin_lim_ref(target, fft_size, hop_size, window_size, iterations):
    """Griffin-Lim from linear magnitudes ``target``: (samples, errors).

    A fresh array per step, as the arithmetic reads; each error is the
    spectral convergence ||mag - target|| / ||target||.
    """
    length = (target.shape[0] - 1) * hop_size + window_size
    spec = target.astype(np.complex128)
    errors = []
    x = None
    for _ in range(iterations):
        x = istft_ref(spec, fft_size, hop_size, window_size, length)
        estimate = stft_ref(x, fft_size, hop_size, window_size)
        mag = np.abs(estimate)
        errors.append(float(np.linalg.norm(mag - target) / np.linalg.norm(target)))
        spec = target * estimate / np.maximum(mag, 1e-12)
    return x, errors


def fast_griffin_lim_ref(target, fft_size, hop_size, window_size, iterations,
                         momentum):
    """Fast Griffin-Lim from linear magnitudes ``target``: (samples, errors).

    Perraudin, Balazs & Søndergaard (2013) with the previous estimate
    starting at zero, a fresh array per step; each error is that of the
    estimate, before the momentum step.
    """
    length = (target.shape[0] - 1) * hop_size + window_size
    spec = target.astype(np.complex128)
    prev = np.zeros_like(spec)
    errors = []
    x = None
    for _ in range(iterations):
        x = istft_ref(spec, fft_size, hop_size, window_size, length)
        estimate = stft_ref(x, fft_size, hop_size, window_size)
        errors.append(float(np.linalg.norm(np.abs(estimate) - target)
                            / np.linalg.norm(target)))
        accel = estimate - momentum / (1.0 + momentum) * prev
        prev = estimate
        spec = target * accel / np.maximum(np.abs(accel), 1e-12)
    return x, errors


def adam_ref(data, grad, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step as the formula reads, a fresh array per
    operation; returns the new (data, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * (grad * grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    data = data - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data.dtype)
    return data, m, v
