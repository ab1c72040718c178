"""Fixed reference work that shows how fast the host runs right now.

    python3 perfbench/calibrate.py

A fresh interpreter makes the imports the CLI makes from outside the
package (the standard library, and numpy, whose extension modules are most
of a CLI start-up) and prints its perf_counter reading (CLOCK_MONOTONIC on
Linux, so the parent's readings compare).  It then does exact integer and
rational work of the kind the program does: fraction-free elimination on
fixed integer matrices and Fraction sums.  The parent times the start-up
part, spawn to that reading, and the work part, that reading to exit.  It
uses nothing from `src/`, so a change to the program cannot change either
time; only the host's speed can.  run.py scales job times by them (see
NOTES.md).
"""

# Imported for their start-up cost, which every CLI call also pays.
import argparse  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random
import typing  # noqa: F401
from fractions import Fraction
from time import perf_counter

import numpy  # noqa: F401

print(repr(perf_counter()), flush=True)

N = 14
REPEATS = 60


def bareiss_det(rows: list[list[int]]) -> int:
    a = [row[:] for row in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def main() -> None:
    rng = random.Random(0)
    total = 0
    for _ in range(REPEATS):
        m = [[rng.randint(-9, 9) for _ in range(N)] for _ in range(N)]
        total += bareiss_det(m)
        total += sum(Fraction(i, j) for i in range(1, 40) for j in range(1, 12)).numerator
    print(total % 1000003)


if __name__ == "__main__":
    main()
