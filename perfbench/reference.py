"""A fixed reference program that gauges how fast the host runs right now.

    python3 reference.py

run.py starts it as a fresh process right after each measured process and
times it from start to exit, the same way.  It imports nothing from
modhyp, so no change to the program under test can move its time; only the
host can.  The work is the same kind modhyp's workloads do: small-integer
arithmetic, dict updates and ``Fraction`` sums in a Python loop, then
whole-array numpy boolean work on a 2 MB table.
"""

from fractions import Fraction

import numpy as np


def main() -> None:
    counts: dict[int, int] = {}
    total = Fraction(0)
    for n in range(2, 60_000):
        counts[n % 997] = counts.get(n % 997, 0) + n * n % 13
        if n % 7 == 0:
            total += Fraction(n % 11 + 1, n)
    table = np.arange(512 * 512, dtype=np.int64).reshape(512, 512)
    marked = 0
    for k in range(40):
        marked += int(((table * (k + 3) % 509) < 200).sum())
    # the result is never read; computing it keeps every step live
    assert total > 0 and marked > 0 and counts


if __name__ == "__main__":
    main()
