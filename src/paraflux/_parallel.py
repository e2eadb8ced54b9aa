"""Worker-pool helper honoring the PARAFLUX_THREADS cap.

Sweeps map a pure function over an item list; results are reassembled in
input order, so output is bitwise independent of scheduling.  The default
is sequential (PARAFLUX_THREADS unset or 1).  Work buffers that a mapped
function reuses across items come from `per_worker`, so no two workers
write to the same array.  The pool's module, `concurrent.futures`, is
imported only when more than one worker runs: it pulls in `logging`,
`queue` and more, which a sequential run never uses.
"""

from __future__ import annotations

import os
import threading

__all__ = ["worker_count", "map_ordered", "per_worker"]


def worker_count():
    raw = os.environ.get("PARAFLUX_THREADS", "")
    try:
        count = int(raw)
    except ValueError:
        return 1
    return max(1, count)


def map_ordered(fn, items):
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def per_worker(factory):
    """A getter that returns the calling thread's own factory() result,
    made on its first call in that thread and freed with the getter."""
    local = threading.local()

    def get():
        if not hasattr(local, "value"):
            local.value = factory()
        return local.value

    return get
