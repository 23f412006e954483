"""The fixed calibration slice that turns wall seconds into ref-seconds.

Host speed on small shared machines swings by up to 2x in phases that
last from seconds to minutes, so raw wall times of the same run move far
more between invocations than any change worth detecting.  The slice is
a fixed amount of the two kinds of work a GMR generation does -- a
pure-Python float/dict loop (scalar Euler steps, Algorithm 1's running
sum, tree-cache lookups) and small-array NumPy ops (batched and fused
rollouts) -- timed around every generation.  A time measured between
two slices is scaled by ``CALIB_REF_MS / mean(bracketing slices)``,
giving *ref-seconds*: seconds at the speed the host had when
``CALIB_REF_MS`` was recorded.
"""

from __future__ import annotations

import time

import numpy as np

#: Duration of one slice at reference host speed, in milliseconds: the
#: median slice on the 2-vCPU host the baseline was recorded on, in an
#: unloaded phase.  Never change it, or every ref-second number before
#: the change stops being comparable with every one after it.
CALIB_REF_MS = 11.0

#: Iterations of the pure-Python half and of the NumPy half (about
#: equal shares of the slice).
_PY_ITERATIONS = 38000
_NP_ITERATIONS = 1100

#: Operand of the NumPy half: small, like the per-step state arrays of
#: batched rollouts.
_SEED_ARRAY = np.linspace(0.5, 2.0, 48)


def _python_half() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for index in range(_PY_ITERATIONS):
        x = (index % 97) * 0.013 + acc * 1e-9
        acc += x * x / (1.0 + x)
        table[index & 127] = acc
    return acc + len(table)


def _numpy_half() -> float:
    values = _SEED_ARRAY.copy()
    total = 0.0
    for __ in range(_NP_ITERATIONS):
        scaled = values * 1.0001 + 0.5
        np.sqrt(scaled, out=scaled)
        np.clip(scaled, 0.0, 10.0, out=scaled)
        values = np.minimum(scaled, values + 1.0)
        total += float(values[-1])
    return total


def calib_slice() -> tuple[float, float]:
    """Run one slice; return ``(milliseconds, checksum)``.

    The checksum is the slice's own result, returned so the work is
    consumed; it is identical on every call.
    """
    started = time.perf_counter()
    checksum = _python_half() + _numpy_half()
    return (time.perf_counter() - started) * 1000.0, checksum
