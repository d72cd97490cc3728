"""Exact rational numbers: fractions.Fraction.

Scalars of Q(zeta_N) keep their own integer numerators over one
denominator (see cyclo); RAT serves the rational values around them:
multiplicities and traces, rational inverses and decoding coefficient
strings.
"""

from fractions import Fraction as RAT


def rat_from_str(s):
    if "/" in s:
        a, b = s.split("/")
        return RAT(int(a), int(b))
    return RAT(int(s))


def is_integer(q):
    return q.denominator == 1
