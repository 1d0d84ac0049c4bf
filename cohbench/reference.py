"""A fixed numpy-and-Python reference computation that never touches cohcert.

On a shared host the speed of this process changes by tens of percent within
seconds.  Timing a slice of this computation next to each piece of work
measures the host's speed at that moment; the work's time divided by the
slice's time is then steadier than either.
"""

import json
import statistics
import time

import numpy as np

# Reported set-up times are converted to seconds on a host where one slice
# takes this long.
NOMINAL_SLICE_S = 1e-3
ITERS = 40

_RNG = np.random.default_rng(20190124)
_VECS = [_RNG.random(9) for _ in range(4)]
_A = _RNG.standard_normal((5, 5)) + 1j * _RNG.standard_normal((5, 5))
_HERMITIAN = (_A + _A.conj().T) / 2


def reference_slice() -> float:
    """Small convolutions, a 5x5 eigensolve, Python arithmetic and JSON."""
    acc = 0.0
    for i in range(ITERS):
        v = _VECS[i & 3]
        acc += float(np.convolve(v, v)[8])
        acc += float(np.linalg.eigvalsh(_HERMITIAN)[0])
        acc += sum(x * x for x in (1.0, 2.0, 3.0, float(i)))
        acc += len(json.dumps({"i": i, "acc": acc}))
    return acc


def timed_slices(budget_s: float) -> list:
    """Run slices until ``budget_s`` has been spent (at least one); their times."""
    times, spent = [], 0.0
    while spent < budget_s or not times:
        t0 = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return times


def median_slice(budget_s: float) -> float:
    return statistics.median(timed_slices(budget_s))
