#!/usr/bin/env python3
"""Micro-timings of the Grassmann product, untyped against parity-typed.

    python scripts/mul_timings.py

For N in {2, 4, 5, 6}, operand batches of one element, a 4-vector, (4, 4)
and (16, 4, 4), and each pair of operand parities, it times
``alg.mul(a, b)`` and ``alg.mul(a, b, pa, pb)`` on random operands of those
parities and prints the median over five repeats of the mean time per call, in
microseconds.  BLAS is pinned to one thread.  The package is imported from
this checkout's ``src/``.  A run takes about five minutes on a 2-core host.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grasspin.grassmann import EVEN, ODD, algebra  # noqa: E402

NS = (2, 4, 5, 6)
BATCHES = ((), (4,), (4, 4), (16, 4, 4))
PARITIES = {"even": EVEN, "odd": ODD}
REPEATS = 5


def operand(alg, batch, parity, rng):
    a = rng.normal(size=batch + (alg.dim,))
    a[..., alg.odd_mask if parity == EVEN else alg.even_mask] = 0.0
    return a


def median_us(call) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()     # calls per repeat, at least 0.2 s
    return 1e6 * statistics.median(timer.repeat(REPEATS, number)) / number


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'N':>2} {'batch':>11} {'pa x pb':>11} {'untyped_us':>11} {'typed_us':>9} {'ratio':>6}")
    for n in NS:
        alg = algebra(n)
        for batch in BATCHES:
            for pa_name, pa in PARITIES.items():
                for pb_name, pb in PARITIES.items():
                    a = operand(alg, batch, pa, rng)
                    b = operand(alg, batch, pb, rng)
                    alg.mul(a, b, pa, pb)     # build the typed table first
                    untyped = median_us(lambda: alg.mul(a, b))
                    typed = median_us(lambda: alg.mul(a, b, pa, pb))
                    print(f"{n:>2} {str(batch):>11} {pa_name + ' x ' + pb_name:>11} "
                          f"{untyped:>11.2f} {typed:>9.2f} {typed / untyped:>6.2f}", flush=True)


if __name__ == "__main__":
    main()
