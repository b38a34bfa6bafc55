"""Reference probe of the machine's speed.

On a shared machine the speed of a run drifts by a quarter or more over
tens of seconds, as other tenants come and go, and the drift moves all the
commands of a cycle together.  The probe is a fixed piece of numpy and
interpreter work written here, not in pathovc, so no change to the program
moves it.  The benchmark times it between commands and rescales each
command's wall time by the probes on either side to the probe's nominal
time, which takes most of that drift out of the end-to-end metrics.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's median on the 2-core 2.0 GHz Xeon VM of README's figures
NOMINAL_S = 0.020

_rng = np.random.default_rng(0)
_KERNEL = _rng.standard_normal((64, 64, 5)).astype(np.float32)
_SIGNAL = _rng.standard_normal((64, 5, 256)).astype(np.float32)
_FRAMES = _rng.standard_normal((100, 1024))


def probe() -> float:
    """Seconds taken by the probe: conv-like einsums, FFTs and a Python loop.

    The mix mirrors the program's own: diffcore contracts with einsum, the
    dsp layer runs FFTs, and the command and graph code is interpreted.
    """
    start = time.perf_counter()
    for _ in range(6):
        out = np.einsum("oiw,iwt->ot", _KERNEL, _SIGNAL)
        np.einsum("ot,iwt->oiw", out, _SIGNAL)
    for _ in range(3):
        np.fft.irfft(np.fft.rfft(_FRAMES, axis=1), axis=1)
    acc = 0
    for i in range(50000):
        acc += i * i
    return time.perf_counter() - start
