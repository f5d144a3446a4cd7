"""The gathered window of the tests' references.

The program reads a region of a view only one chunk at a time
(``SimilarityView.chunks``).  A test that compares a streamed result with
the same computation over the whole window builds that window here.
"""

import numpy as np


def gather(view, region=None):
    """All (points, weights) of ``view.chunks(region)``, concatenated in
    order."""
    parts = list(view.chunks(region))
    return (np.concatenate([p for p, _ in parts]),
            np.concatenate([w for _, w in parts]))
