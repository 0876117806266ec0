"""Perfect-power structure of integers >= 2.

Every integer n >= 2 has a unique primitive root d with n = d^e, e maximal
(equivalently, d is not itself a proper power).  Two integers p, q >= 2 are
multiplicatively dependent exactly when they share that root, and then the
canonical witness p = r^m, q = r^n with gcd(m, n) = 1 comes from dividing
both exponents by their gcd.  primitive_root peels the prime factors of e
off n with exact root checks.  Inputs past 2^64 - 1 raise CountOverflow.
The answer is a value (see words.Value): INDEPENDENT or that Dependent.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .words import MAX_COUNT, CountOverflow, Value

# The primes that the exponent of a perfect power below 2^64 can hold.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_ROOTS = tuple((k, 1 / k, 1 << k) for k in _PRIMES)


class Independent(Value):
    __slots__ = ()


class Dependent(Value):
    __slots__ = ("r", "m", "n")
    _fields = ("r", "m", "n")

    def __init__(self, r: int, m: int, n: int):
        self.r = r
        self.m = m
        self.n = n


MultDependence = Independent | Dependent

INDEPENDENT = Independent()


def primitive_root(n: int) -> tuple[int, int]:
    """The unique (d, e) with n = d^e, e maximal.

    Prime factors of e are peeled off ascending, each prime k by rounding
    the float k-th root and checking its power exactly.  A base that is not
    a proper power stays fixed, so the loop ends with the primitive root.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_COUNT:
        raise CountOverflow(f"{n} exceeds the 64-bit bound")
    d, e = n, 1
    # A root of d < 2^64 is below 2^32, so the float root is within far less
    # than 1/2 of it: rounding finds it, and r**k == d is an exact check.
    # Once 2^k > d, d has no k-th root above 1.
    for k, inverse, least in _ROOTS:
        if least > d:
            break
        r = round(d**inverse)
        while r**k == d:
            d = r
            e *= k
            r = round(d**inverse)
    return d, e


@lru_cache(maxsize=65536)
def mult_dependence(p: int, q: int) -> MultDependence:
    """Decide whether p and q are powers of a common integer.

    Dependent(r, m, n) satisfies p = r^m, q = r^n with gcd(m, n) = 1, so r
    is the largest common base: with p = d^e1 and q = d^e2 for the shared
    primitive root d, r = d^gcd(e1, e2).  mult_dependence(4, 16) is
    Dependent(r=4, m=1, n=2).
    """
    if p < 2 or q < 2:
        raise ValueError("arguments must be at least 2")
    d1, e1 = primitive_root(p)
    d2, e2 = primitive_root(q)
    if d1 != d2:
        return INDEPENDENT
    g = math.gcd(e1, e2)
    return Dependent(d1**g, e1 // g, e2 // g)


def val_and_digit(i: int, p: int) -> tuple[int, int]:
    """The p-adic valuation of i and the lowest nonzero base-p digit of i."""
    if i < 1:
        raise ValueError("i must be positive")
    if p < 2:
        raise ValueError("p must be at least 2")
    m = 0
    while i % p == 0:
        i //= p
        m += 1
    return m, i % p
