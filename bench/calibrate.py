"""Fixed calibration loops, timed to tell host drift apart from program changes.

    python3 bench/calibrate.py

Prints one JSON object with five timings of each loop:

- `cpu_s`: small-array numpy calls and interpreter work, in cache.
- `memory_s`: random gathers from a 64 MiB array, bound by memory
  latency, so it slows when other tenants load the shared cache.

run.py runs this in a child process before and after the workload, so the
64 MiB buffer does not count in the workload's peak resident set.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import json  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


def cpu_loop() -> None:
    rng = np.random.default_rng(0)
    a, w = rng.random((64, 24)), rng.random((24, 24)) / 24
    for _ in range(3000):
        a = np.tanh(a @ w + 0.1)
    total = 0
    for i in range(400_000):
        total += i * i % 7


def memory_loop(big: np.ndarray, idx: np.ndarray) -> None:
    for _ in range(4):
        big[idx].sum()


def timed(fn, *args, repeats: int = 5) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return times


def main() -> None:
    big = np.arange(8 * 2**20, dtype=float)
    idx = np.random.default_rng(0).integers(0, len(big), 2**20)
    print(json.dumps({"cpu_s": timed(cpu_loop), "memory_s": timed(memory_loop, big, idx)}))


if __name__ == "__main__":
    main()
