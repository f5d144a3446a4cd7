"""Working-set measurement shared by the memory tests.

``traced_peak(fn)`` is the one way a test measures the memory of a call:
it owns the ``tracemalloc`` start and stop.  No module of ``src/mintwo``
imports another module lazily (the fit restarts draw from
``conefit._Normals``, not ``numpy.random``), so no import lands in a
measured span whichever test runs first.
"""

import tracemalloc


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
