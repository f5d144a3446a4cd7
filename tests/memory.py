"""Working-set measurement shared by the memory tests.

``traced_peak(fn)`` is the one way a test measures the memory of a call:
it owns the ``tracemalloc`` start and stop, and the modules that the
measured code imports lazily on its first call are imported here, at
import time, so that their allocations never land in a measured span
whichever test runs first.
"""

import tracemalloc

import numpy.random  # noqa: F401  imported lazily by the fit restarts


def traced_peak(fn, *args, **kwargs):
    """(result, peak) of the call fn(*args, **kwargs).

    ``peak`` is the largest number of bytes that the call held at once,
    counting only what it allocated: memory allocated before the call is
    not traced.
    """
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
