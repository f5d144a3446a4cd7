"""Working-set measurement shared by the memory tests.

``traced_peak(fn)`` and ``traced_held(fn)`` are the one way a test
measures the memory of a call: they own the ``tracemalloc`` start and
stop.  No module of ``src/mintwo`` imports another module lazily (none
draws a random number, so none loads ``numpy.random``), so no import lands
in a measured span whichever test runs first.
"""

import tracemalloc


def _traced(fn, args, kwargs):
    # (result, bytes held at return, peak bytes) of the call, counting
    # only what it allocated: memory allocated before the call is not
    # traced
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def traced_peak(fn, *args, **kwargs):
    """(result, peak) of the call fn(*args, **kwargs).

    ``peak`` is the largest number of bytes that the call held at once.
    """
    out, _, peak = _traced(fn, args, kwargs)
    return out, peak


def traced_held(fn, *args, **kwargs):
    """(result, held) of the call fn(*args, **kwargs).

    ``held`` is the number of bytes that the call allocated and still
    holds when it returns, its result among them.
    """
    out, held, _ = _traced(fn, args, kwargs)
    return out, held
