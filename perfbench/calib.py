"""Machine-speed reference for scaling measured times.

The machines this benchmark runs on share cores with other tenants, and
their speed drifts by up to 1.7x over tens of seconds.  A run therefore
interleaves short slices of a fixed reference kernel with its jobs and
scales each job's time by CAL_REF_S over the mean of the slices taken just
before and after it.  Scaled times read as seconds on a machine where one
slice takes CAL_REF_S.

The kernel is a small rewriting system of its own: words over four letters
reduced leftmost-first with Laurent-monomial coefficients held as dicts of
exponent tuples, the same kind of interpreted work the library does.  It
imports nothing from the library, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import time

CAL_REF_S = 1.5e-3

_SWAP = {(j, i): {tuple(1 if k == (i + j) % 3 else 0 for k in range(3)): 1}
         for j in range(4) for i in range(j)}
_TAIL = {(3, 0): [({(0, 0, 0): 1, (1, 0, 0): -1}, (1, 2))],
         (2, 1): [({(0, 1, 0): 1, (0, 0, 0): -1}, ())]}
_WORD = (3, 2, 1, 0, 3, 1, 2, 0)


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _kernel() -> dict:
    out: dict = {}
    stack = [({(0, 0, 0): 1}, _WORD)]
    while stack:
        c, w = stack.pop()
        k = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]), -1)
        if k < 0:
            prev = out.get(w)
            out[w] = c if prev is None else _add(prev, c)
            continue
        g, h = w[k], w[k + 1]
        stack.append((_mul(c, _SWAP[(g, h)]), w[:k] + (h, g) + w[k + 2:]))
        for tc, mid in _TAIL.get((g, h), ()):
            stack.append((_mul(c, tc), w[:k] + mid + w[k + 2:]))
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def slice_s() -> float:
    """Seconds one reference slice takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns times measured alongside these slices into reference seconds."""
    return CAL_REF_S / statistics.median(samples)
