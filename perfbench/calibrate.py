"""Host-speed reference for the benchmark's time metrics.

Shared hosts drift: on the 2-vCPU Xeon the benchmark was defined on, a
repeated op's wall time had a quartile spread of about a quarter across
20 to 30 second blocks, while its ratio to a kernel timed next to it had
a spread of 6 to 9 percent.  The
benchmark therefore times this kernel after every op and scales the op's
wall time by REFERENCE_S / (kernel time), i.e. to the speed of a host on
which the kernel takes REFERENCE_S.  Raw times are printed as well.

The kernel mixes what the program spends its time on: interpreted Python
loops, many NumPy calls on small arrays, elementwise NumPy passes over
arrays larger than L2, and a small dense LU.
"""

import time

import numpy as np
import scipy.linalg

# median kernel time on the reference host (2-vCPU Xeon, 2 MB L2 per core)
REFERENCE_S = 0.015
REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.random((512, 512))
_P = _rng.random((60, 2))
_LU = _rng.random((48, 48)) + 48.0 * np.eye(48)


def _kernel():
    s = 0
    for i in range(30_000):
        s += i * i
    for _ in range(100):
        np.hypot(_P[:, 0], _P[:, 1]).max()
    np.minimum(np.hypot(_A, _A.T), _A)
    for _ in range(5):
        scipy.linalg.lu_factor(_LU)
    return s


def kernel_seconds():
    """Median wall time of a few kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
