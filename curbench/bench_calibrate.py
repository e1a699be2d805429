"""Machine-speed calibration for the timed end-to-end metrics.

The benchmark's machine is shared: the speed of the same instructions
drifts by up to a third over minutes as neighbours load it, while the
program's own cost does not change. A fixed kernel that uses no curlearn
code is timed between the timed phases (the import, each set-up, each
iteration); each phase's time is scaled by REFERENCE_S over the mean of the
kernel's times just before and just after it, giving seconds at the
reference speed. A program change cannot move the kernel, so it moves
the corrected figure exactly as it moves the raw one; machine drift moves
both the kernel and the program and largely cancels.

The kernel mixes the two kinds of work the workloads do: dense float64
array updates the size of the toy model (memory-bound numpy) and hashing,
counting and JSON on short strings (the interpreter). Each half is timed
as the best of three; the kernel's time is their geometric mean.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter

import numpy as np

# The kernel's time at the reference speed, about its time on a 2-vCPU Xeon
# VM at 2.0 GHz with CPython 3.11.7 and numpy 2.4.6. Only the ratio to it
# matters; changing it rescales every corrected figure alike.
REFERENCE_S = 0.02
REPEATS = 3
TOKENS = [f"p:w{i % 5000}" for i in range(12000)]


def _array_half() -> float:
    w = np.zeros((2, 2 ** 13))
    m = np.ones_like(w)
    v = np.ones_like(w)
    start = time.perf_counter()
    for _ in range(240):
        m *= 0.9
        v *= 0.999
        w -= 0.01 * ((m / 0.5) / (np.sqrt(v / 0.5) + 1e-8))
    return time.perf_counter() - start


def _interpreter_half() -> float:
    start = time.perf_counter()
    counts = Counter(int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(),
                                    "little") & 0xFFFF for t in TOKENS)
    json.loads(json.dumps(sorted(counts.items())))
    return time.perf_counter() - start


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` rescaled to the reference speed, from the kernel timed around it."""
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2)


def kernel_seconds() -> float:
    """Geometric mean of the best-of-three times of the two halves."""
    array = min(_array_half() for _ in range(REPEATS))
    interp = min(_interpreter_half() for _ in range(REPEATS))
    return math.sqrt(array * interp)
