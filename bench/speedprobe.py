"""Host-speed probe: times a fixed small kernel every 20 ms on one CPU.

    python3 speedprobe.py <cpu> <samples.json>

Started by worker.py, pinned to the CPU the worker is pinned to, so each
sample sees the speed that CPU gives the worker at that moment.  Each
sample takes about 0.5 ms, so the probe takes about 2.5% of that CPU.  The
kernel mixes the work of the package's evolutions: short numpy
convolutions and power maps on a chain of 201 positions and a batch of
5x5 matrix products, with the Python overhead of calling them.  Prints
"ready" once warmed up; on SIGTERM it writes the samples, (start, seconds)
pairs on the perf_counter clock, as JSON and exits.  It also exits when
the worker that started it is gone.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.02
STEPS = 8


def make_kernel():
    """The same work on every call: each call starts from the same chain."""
    x0 = np.full(201, 0.4)
    w = np.full(5, 0.2)
    mats = np.random.default_rng(0).random((100, 5, 5))

    def kernel() -> None:
        x = x0
        for _ in range(STEPS):
            xb = np.convolve(x, w, mode="same")
            y = 1.0 - (1.0 - xb) ** 5
            x = 0.47 * np.convolve(y, w, mode="same") ** 2
            m = np.matmul(mats, mats)
            m /= m.sum(axis=2, keepdims=True)

    return kernel


def main() -> int:
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    kernel = make_kernel()
    for _ in range(20):
        kernel()
    print("ready", flush=True)
    samples = []
    clock = time.perf_counter
    parent = os.getppid()
    while not stop and os.getppid() == parent:
        time.sleep(INTERVAL_S)
        start = clock()
        kernel()
        samples.append((start, clock() - start))
    with open(path, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
