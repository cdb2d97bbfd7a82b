"""Fixed reference job: pure-Python rational and dict arithmetic, no n2sca.

The benchmark runs it in a child next to every measured command, on the
same CPU, and reports the command's wall time in multiples of this job's
wall time, so that a slow phase of a shared host divides out.
"""

from fractions import Fraction

acc = Fraction(0)
table: dict[int, Fraction] = {}
for k in range(1, 25_000):
    term = Fraction(k % 7 - 3, k % 5 + 1)
    acc += term * term
    table[k % 97] = table.get(k % 97, Fraction(0)) + term
