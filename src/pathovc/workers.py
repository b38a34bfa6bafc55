"""One thread per usable CPU, results in input order.

``preprocess`` runs each clip's front end and ``convert`` each word's
Griffin-Lim waveform through ``ordered_map``.  Both jobs are numpy and
scipy work that releases the interpreter lock, so threads overlap.

No BLAS call may run on any thread while the pool works.  The front end
and synthesis make none (the mel products are sparse, not GEMMs), and
``convert`` runs its model, the only BLAS work, before it starts the pool.
On a 2-core VM with OpenBLAS 0.3.31 at 2 threads, the pool took
``convert-heldout`` from 82.3 to 52.8 ms per word (medians of 10 benchmark
pairs).  With a GEMM in each worker it gained only 4%, and with the model
overlapping the pool 3%: BLAS threads spinning on busy cores cancel the
gain.  Each item's output depends only on the item, so no byte depends on
the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on ``min(cpu_count(), len(items))``
    threads.

    An exception ``fn`` raises, or Ctrl-C on the calling thread, cancels
    the items not yet started, waits for the running ones and propagates.
    So ``fn`` catches the errors it reports as an item's outcome.
    """
    items = list(items)
    if not items:
        return []
    pool = ThreadPoolExecutor(max_workers=min(cpu_count(), len(items)))
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
