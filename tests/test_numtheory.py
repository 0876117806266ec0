from __future__ import annotations

import math

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from trimorph.numtheory import (
    INDEPENDENT,
    Dependent,
    mult_dependence,
    primitive_root,
    val_and_digit,
)


def test_primitive_root_examples():
    assert primitive_root(64) == (2, 6)
    assert primitive_root(36) == (6, 2)
    assert primitive_root(7) == (7, 1)
    with pytest.raises(ValueError):
        primitive_root(1)


def test_mult_dependence_examples():
    assert mult_dependence(8, 4) == Dependent(2, 3, 2)
    assert mult_dependence(2, 3) == INDEPENDENT
    assert mult_dependence(4, 16) == Dependent(4, 1, 2)
    assert mult_dependence(6, 6) == Dependent(6, 1, 1)
    with pytest.raises(ValueError):
        mult_dependence(1, 2)


def test_val_and_digit_examples():
    assert val_and_digit(12, 2) == (2, 3 % 2)
    assert val_and_digit(12, 3) == (1, 4 % 3)
    assert val_and_digit(7, 3) == (0, 1)
    assert val_and_digit(54, 3) == (3, 2)
    for i, p in ((0, 2), (3, 1)):
        with pytest.raises(ValueError):
            val_and_digit(i, p)


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 for k >= 1, in exact integers: the
    reference that the float root guesses of primitive_root are checked
    against."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # Integer Newton from above: 2^ceil(bits/k) exceeds the root, and the
    # iterates fall strictly until they reach the floor.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def test_integer_root_examples():
    assert integer_root(26, 3) == 2
    assert integer_root(27, 3) == 3
    assert integer_root(2**63, 63) == 2
    assert integer_root(10**18, 2) == 10**9


def _smallest_power_base(n: int) -> int:
    """Brute oracle: least b >= 2 with b^k = n for some k (n itself otherwise)."""
    b = 2
    while b * b <= n:
        v = b
        while v < n:
            v *= b
        if v == n:
            return b
        b += 1
    return n


def test_exhaustive_small():
    # The primitive root is exactly the smallest base expressing n as a power.
    for n in range(2, 3000):
        d, e = primitive_root(n)
        assert d**e == n
        assert d == _smallest_power_base(n)


@given(st.integers(2, 10**9), st.integers(1, 6))
def test_root_then_power_brackets(n, k):
    r = integer_root(n, k)
    assert r**k <= n < (r + 1) ** k


@given(st.integers(2, 2**2000), st.integers(1, 40))
@example(10**400, 3)
@example(10**400 - 1, 7)
def test_root_brackets_far_past_float_range(n, k):
    r = integer_root(n, k)
    assert r**k <= n < (r + 1) ** k


def _reference_root(n: int) -> tuple[int, int]:
    """(d, e) from exact integer roots: n is a perfect e-th power exactly
    when e divides the maximal exponent, so the largest such e is it."""
    for e in range(n.bit_length(), 0, -1):
        r = integer_root(n, e)
        if r**e == n:
            return r, e
    raise AssertionError(n)


def test_primitive_root_at_the_top_of_the_range():
    # The float root guess has the least room near 2^64: for each prime k,
    # the 50 largest bases b with b^k < 2^64, and b^k - 1, b^k, b^k + 1.
    top = 2**64 - 1
    values = [top, (2**32 - 1) ** 2]
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        largest = integer_root(top, k)
        for b in range(max(2, largest - 49), largest + 1):
            values += [v for v in (b**k - 1, b**k, b**k + 1) if v <= top]
    assert len(values) == 959
    for n in values:
        assert primitive_root(n) == _reference_root(n), n


@given(st.integers(2, 50), st.integers(1, 10))
def test_primitive_root_of_powers(base, exp):
    db, eb = primitive_root(base)
    assert primitive_root(base**exp) == (db, eb * exp)


@given(st.integers(2, 500), st.integers(2, 500))
def test_dependence_matches_brute_force(p, q):
    brute = any(p**j == q**k for j in range(1, 11) for k in range(1, 11))
    dep = mult_dependence(p, q)
    assert isinstance(dep, Dependent) == brute
    if isinstance(dep, Dependent):
        assert dep.r**dep.m == p and dep.r**dep.n == q
        from math import gcd

        assert gcd(dep.m, dep.n) == 1


@given(st.integers(1, 10**9), st.integers(2, 7))
def test_val_and_digit_reconstructs(i, p):
    m, d = val_and_digit(i, p)
    assert i % p**m == 0
    assert (i // p**m) % p == d
    assert d != 0
