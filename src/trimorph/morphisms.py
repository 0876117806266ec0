"""Endomorphisms of {a,b}*, their occurrence matrices, and triangular shape.

A morphism is determined by the images of the two letters.  Composition
follows the convention that (g1 g2)(w) = g1(g2(w)): the right factor acts
first, so occurrence matrices multiply in the same order as morphisms.

A morphism is upper triangular when the image of a is a power of a (the
empty word counts, as a^0).  Upper triangular images of b decompose into
either a b-free word a^e or the padded block form

    a^gamma1 b a^alpha1 b ... b a^alpha(p-1) b a^gamma2

with p >= 1 occurrences of b.  TriangularForm captures that decomposition
exactly and reconstructs the morphism from it.

The runs of g(w) are built in one place, _pieces, as tuples of runs:
apply collects them into a word for compose and power, and image_runs
streams them one run at a time.

This module is the one place that compares images of morphisms, in three
ways.  direct_commute, the brute-force oracle every structural claim is
checked against, compares the composed images under both orders with no
structural reasoning: as plain strings built by str.translate when no image
or composed image holds more than MAX_TEXT_LETTERS letters, a length read
exactly off the occurrence matrices, and otherwise as run streams.
first_difference is the one walk of two run streams against each other:
it stops at the first runs that differ, in memory proportional to the runs
whatever the length, and names the letter where they differ.  Karp-Rabin
fingerprints (Karp and Rabin, 1987), (H(w), X^|w|) modulo MODULUS with
H(a) = 1 and H(b) = 2, key the compositions of the relation search in
freeness; _fingerprint_after extends them without building a word, reusing
the powers of the fingerprint of f(a) that the search has computed.  The
`check` command needs no other module.
"""
from __future__ import annotations

import os
import re
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, islice, zip_longest

from .words import (
    A,
    B,
    MAX_COUNT,
    CountOverflow,
    ParseError,
    Run,
    Value,
    Word,
    WORD_A,
    WORD_B,
    checked_add,
    push_run,
)


class NotUpperTriangular(ValueError):
    """The image of a contains b, so no triangular decomposition exists."""


class BinaryMorphism(Value):
    _fields = ("image_a", "image_b")

    def __init__(self, image_a: Word, image_b: Word):
        self.image_a = image_a
        self.image_b = image_b

    @cached_property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The rows of the occurrence matrix (see MorphMatrix), computed once
        per morphism."""
        return (
            (self.image_a.occ(A), self.image_b.occ(A)),
            (self.image_a.occ(B), self.image_b.occ(B)),
        )

    @cached_property
    def form(self) -> TriangularForm:
        """to_triangular(self), computed once; a failure raises on every access."""
        if self.image_a.occ(B) != 0:
            raise NotUpperTriangular(f"image of a is {self.image_a.to_text()!r}")
        return TriangularForm(self.image_a.length(), b_image_shape(self.image_b))

    @cached_property
    def table(self) -> dict[int, str]:
        """The str.translate table of g, the code point of each letter to
        its image as a plain string, built once per morphism.  Only
        direct_commute builds it, for images of at most MAX_TEXT_LETTERS
        letters."""
        return {_CODE_A: _letters(self.image_a), _CODE_B: _letters(self.image_b)}


# The keys of a translate table.
_CODE_A, _CODE_B = ord(A), ord(B)


def _letters(w: Word) -> str:
    """w as a plain string, the empty string for the empty word."""
    return "".join([letter * count for letter, count in w.runs])


IDENTITY = BinaryMorphism(WORD_A, WORD_B)


# Copies of a multi-run image are yielded in blocks of at most about this
# many runs: tuple repetition, not the generator, sets the speed of a long
# image, while a stream still holds only O(runs of g and w).
_BLOCK_RUNS = 4096
# Looked up once: each lookup of a classmethod builds a new bound method.
_flatten = chain.from_iterable


def _pieces(g: BinaryMorphism, w: Word) -> Iterator[tuple[Run, ...]]:
    """Tuples of runs that, concatenated, are g(w) in run-length normal form.

    A one-run image is multiplied by the count.  A multi-run image yields
    its first run, merged with the pending run, then the copies after the
    first, then its middle runs; its last run becomes the pending run, so
    the next image can still extend it.  Every yielded count is checked
    against MAX_COUNT, and more than MAX_COUNT // 2 copies of a multi-run
    image are refused where they start.
    """
    runs_a = g.image_a.runs
    runs_b = g.image_b.runs
    # The pending run; n = 0 before the first.
    letter, n = None, 0
    for x, count in w.runs:
        img = runs_b if x == B else runs_a
        if not img:
            continue
        head, k = img[0]
        if len(img) == 1:
            if head == letter:
                n += k * count
                continue
            if n > MAX_COUNT:
                raise CountOverflow(f"count {n} exceeds 64-bit bound")
            if n:
                yield ((letter, n),)
            letter, n = head, k * count
            continue
        if count > MAX_COUNT // 2:
            # Each copy holds at least two letters.
            raise CountOverflow(f"{count} copies of an image of {len(img)} runs exceed 64-bit length")
        # The image's second run ends its first run.
        if head == letter:
            yield ((head, checked_add(n, k)),)
        elif n > MAX_COUNT:
            raise CountOverflow(f"count {n} exceeds 64-bit bound")
        elif n:
            yield ((letter, n), img[0])
        else:
            yield (img[0],)
        middle = img[1:-1]
        if count > 1:
            # Each copy's last run merges with the next copy's first run
            # into one seam run, when they hold the same letter.
            if img[-1][0] == head:
                unit = middle + ((head, checked_add(img[-1][1], k)),)
            else:
                unit = img[1:] + img[:1]
            copies = count - 1
            per = _BLOCK_RUNS // len(unit) or 1
            if copies > per:
                block = unit * per
                for _ in range(copies // per):
                    yield block
                copies %= per
            if copies:
                yield unit * copies
        if middle:
            yield middle
        letter, n = img[-1]
    if n > MAX_COUNT:
        raise CountOverflow(f"count {n} exceeds 64-bit bound")
    if n:
        yield ((letter, n),)


def apply(g: BinaryMorphism, w: Word) -> Word:
    """The image g(w), collected from the pieces that image_runs streams,
    so every run is checked against MAX_COUNT."""
    out: list[Run] = []
    for piece in _pieces(g, w):
        out += piece
    return Word(tuple(out))


def image_runs(g: BinaryMorphism, w: Word) -> Iterator[Run]:
    """The runs of g(w), one at a time, as apply collects them.

    It holds the pending run and one block of an image's copies, so its
    memory is O(runs of g and w) whatever the length of g(w).  Read to its
    end, it raises CountOverflow where apply does.
    """
    return _flatten(_pieces(g, w))


# Fingerprints are reduced modulo this Mersenne prime.
MODULUS = 2**127 - 1
# The base X, drawn per process so that no fixed input is chosen against it.
_BASE = int.from_bytes(os.urandom(16), "big")


def _identity_fingerprint() -> tuple:
    """The fingerprints of the images a and b of the identity, which fix the
    letter values 1 and 2, reduced modulo MODULUS; the modulus and the base
    are read at each call."""
    modulus = MODULUS
    x = _BASE % modulus
    return ((1 % modulus, x), (2 % modulus, x))


def _fingerprint_power(fp: tuple, k: int) -> tuple:
    """The fingerprint of w^k, k >= 1, from that of w, by doubling in
    O(log k) products."""
    modulus = MODULUS
    hw, rw = fp
    h, r = 0, 1
    while True:
        if k & 1:
            h, r = (h * rw + hw) % modulus, r * rw % modulus
        k >>= 1
        if not k:
            return h, r
        hw, rw = hw * (rw + 1) % modulus, rw * rw % modulus


def _fingerprint_after(fp: tuple, g: BinaryMorphism, powers: dict) -> tuple:
    """The fingerprints of the images of a and b under f g, from those of f.

    A fingerprint of w is (H(w), X^|w|), and that of uv is
    (H(u) X^|v| + H(v), X^|u| X^|v|).  f(g(x)) concatenates, run by run
    of g(x), powers of f(a) and f(b), starting from the first run as it
    is, so fp must be reduced modulo MODULUS, as every fingerprint this
    returns is.  A power w^k, k >= 2, is computed by doubling; those of
    f(a) are kept in powers, keyed by value as (fingerprint of f(a), k),
    which the caller keeps for one search.  When every factor is upper
    triangular, f(a) = a^n, so all the sequences with n a's share these
    powers, while f(b) differs from one sequence to the next.
    """
    modulus = MODULUS
    fa, fb = fp
    out = []
    for runs in (g.image_a.runs, g.image_b.runs):
        h = None
        for letter, k in runs:
            if k == 1:
                hk, rk = fa if letter == A else fb
            elif letter == A:
                key = (fa, k)
                power = powers.get(key)
                if power is None:
                    power = powers[key] = _fingerprint_power(fa, k)
                hk, rk = power
            else:
                hk, rk = _fingerprint_power(fb, k)
            if h is None:
                h, r = hk, rk
            else:
                h, r = (h * rk + hk) % modulus, r * rk % modulus
        out.append((0, 1) if h is None else (h, r))
    return tuple(out)


# Pairs whose images and composed images all hold at most this many letters
# are compared as plain strings.  On the short images of the sweeps,
# str.translate costs about a third of the run stream's generators; but a
# string costs time and memory in proportion to letters where a stream costs
# them in proportion to runs, so long images stay on the stream.
MAX_TEXT_LETTERS = 2**12


def _texts_commute(g1: BinaryMorphism, g2: BinaryMorphism) -> bool:
    """g1 g2 = g2 g1, comparing the composed images of b first, then those
    of a, as plain strings."""
    t1, t2 = g1.table, g2.table
    return t2[_CODE_B].translate(t1) == t1[_CODE_B].translate(t2) and (
        t2[_CODE_A].translate(t1) == t1[_CODE_A].translate(t2)
    )


def direct_commute(g1: BinaryMorphism, g2: BinaryMorphism) -> bool:
    """Brute-force oracle: g1 g2 = g2 g1 as morphisms, comparing the
    composed images of b first, then those of a.

    The length of each image is a column sum of the occurrence matrix, and
    that of each composed image a column sum of M(g1) M(g2) or M(g2) M(g1).
    When the images of g1 and g2 and all four composed images hold at most
    MAX_TEXT_LETTERS letters, the images are compared as plain strings;
    otherwise as run streams by first_difference, which hold O(runs of g1
    and g2) memory whatever the length.  The own images are bounded too:
    against an erasing partner every composed image is empty, however long
    the other morphism's images are.

    A commuting pair's streams are walked to the end, and a library call
    puts no bound on that walk: a -> a, b -> b^(10^6) a against itself,
    2 * 10^6 runs per composed image, took 0.15-0.25 s on a shared 2-vCPU
    Xeon.  The `check` command bounds the runs by MAX_CHECK_RUNS first.

    The order changes no verdict, only the work: for an upper triangular
    pair both composed images of a are a^(st), so they always agree, and a
    pair that does not commute is settled by the images of b alone."""
    (aa1, ab1), (ba1, bb1) = g1.rows
    (aa2, ab2), (ba2, bb2) = g2.rows
    # |g(a)| and |g(b)|; |g1(g2(x))| is |g1(a)| occ_a(g2(x)) + |g1(b)| occ_b(g2(x)).
    a1, b1, a2, b2 = aa1 + ba1, ab1 + bb1, aa2 + ba2, ab2 + bb2
    bound = MAX_TEXT_LETTERS
    if (
        a1 <= bound and b1 <= bound and a2 <= bound and b2 <= bound
        and a1 * ab2 + b1 * bb2 <= bound and a2 * ab1 + b2 * bb1 <= bound
        and a1 * aa2 + b1 * ba2 <= bound and a2 * aa1 + b2 * ba1 <= bound
    ):
        return _texts_commute(g1, g2)
    return first_difference(g1, g2) is None


class Difference(Value):
    """Where g1 g2 and g2 g1 first differ: on the image of letter image, at
    the 0-based letter position, where g1g2 and g2g1 hold the letters of
    each side, None for a side that ends there."""

    __slots__ = ("image", "position", "g1g2", "g2g1")
    _fields = ("image", "position", "g1g2", "g2g1")

    def __init__(self, image: str, position: int, g1g2: str | None, g2g1: str | None):
        self.image = image
        self.position = position
        self.g1g2 = g1g2
        self.g2g1 = g2g1


def first_difference(g1: BinaryMorphism, g2: BinaryMorphism) -> Difference | None:
    """The first letter at which g1 g2 and g2 g1 differ, comparing the run
    streams of the composed images of b first, then those of a, as
    direct_commute does past MAX_TEXT_LETTERS, or None when they commute."""
    for image, w1, w2 in ((B, g2.image_b, g1.image_b), (A, g2.image_a, g1.image_a)):
        left, right = image_runs(g1, w1), image_runs(g2, w2)
        # Both streams stop just past the first pair of runs that differ, x
        # and y, None for a stream that has ended.
        for i, (x, y) in enumerate(zip_longest(left, right)):
            if x != y:
                break
        else:
            continue
        # The i runs before the mismatch are equal on both sides.
        position = sum(count for _, count in islice(image_runs(g1, w1), i))
        if x is None or y is None or x[0] != y[0]:
            # One side ended, or the mismatch is at the start.
            return Difference(image, position, x and x[0], y and y[0])
        # Equal letters in runs of different lengths: the shorter run ends
        # first, and the run after it, if any, holds the other letter.
        if x[1] < y[1]:
            return Difference(image, position + x[1], next(left, (None,))[0], y[0])
        return Difference(image, position + y[1], x[0], next(right, (None,))[0])
    return None


def compose(g1: BinaryMorphism, g2: BinaryMorphism) -> BinaryMorphism:
    """The product g1 g2, applying g2 first."""
    return BinaryMorphism(apply(g1, g2.image_a), apply(g1, g2.image_b))


def power(g: BinaryMorphism, n: int) -> BinaryMorphism:
    """The n-th compositional power; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = IDENTITY
    for _ in range(n):
        result = compose(result, g)
    return result


def mat_mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as row tuples, in exact integers."""
    (aa, ab), (ba, bb) = x
    (xa, xb), (ya, yb) = y
    return ((aa * xa + ab * ya, aa * xb + ab * yb), (ba * xa + bb * ya, ba * xb + bb * yb))


class MorphMatrix(Value):
    """2x2 occurrence matrix: rows[i][j] counts letter i in the image of letter j."""

    __slots__ = ("rows",)
    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int], tuple[int, int]]):
        self.rows = rows

    def det(self) -> int:
        (aa, ab), (ba, bb) = self.rows
        return aa * bb - ab * ba

    def __matmul__(self, other: "MorphMatrix") -> "MorphMatrix":
        # Entries are nonnegative counts, so bounding the sums bounds every term.
        rows = mat_mul(self.rows, other.rows)
        for row in rows:
            for entry in row:
                if entry > MAX_COUNT:
                    raise CountOverflow(f"count {entry} exceeds 64-bit bound")
        return MorphMatrix(rows)


def matrix(g: BinaryMorphism) -> MorphMatrix:
    return MorphMatrix(g.rows)


def is_nonsingular(g: BinaryMorphism) -> bool:
    """True iff the occurrence matrix of g is invertible over the rationals."""
    return matrix(g).det() != 0


class BOnly(Value):
    """A b-free image of b: the word a^e."""

    __slots__ = ("e",)
    _fields = ("e",)

    def __init__(self, e: int):
        self.e = e


class Core(Value):
    """Image of b with p >= 1 occurrences of b.

    gamma1 and gamma2 count the a-padding before the first and after the
    last b; alphas lists the p - 1 interior a-gaps in order.  p and
    uniform_gap are derived once in __init__, so they take no part in
    equality, hash or repr: uniform_gap is the shared interior gap alpha
    when the image is (b a^alpha)^(p-1) b, and None otherwise.
    """

    __slots__ = ("gamma1", "alphas", "gamma2", "p", "uniform_gap")
    _fields = ("gamma1", "alphas", "gamma2")

    def __init__(self, gamma1: int, alphas: tuple[int, ...], gamma2: int):
        self.gamma1 = gamma1
        self.alphas = alphas
        self.gamma2 = gamma2
        self.p = len(alphas) + 1
        uniform = not gamma1 and not gamma2 and len(set(alphas)) == 1
        self.uniform_gap = alphas[0] if uniform else None


def b_image_shape(w: Word) -> BOnly | Core:
    """Decompose a word as an upper triangular image of b: pads lists the a's
    before each b, and the a's after the last b are gamma2; with no b, BOnly."""
    pads: list[int] = []
    pending = 0
    for letter, count in w.runs:
        if letter == A:
            pending += count
            continue
        pads.append(pending)
        if count > 1:
            pads.extend([0] * (count - 1))
        pending = 0
    if not pads:
        return BOnly(pending)
    return Core(pads[0], tuple(pads[1:]), pending)


def shape_to_word(shape: BOnly | Core) -> Word:
    """a^pad b for each pad of (gamma1, *alphas), then a^gamma2; BOnly(e) is a^e."""
    if isinstance(shape, BOnly):
        return Word.single(A, shape.e)
    out: list[Run] = []
    for pad in (shape.gamma1, *shape.alphas):
        push_run(out, A, pad)
        push_run(out, B, 1)
    push_run(out, A, shape.gamma2)
    return Word(tuple(out))


class TriangularForm(Value):
    """Canonical data of an upper triangular morphism: a -> a^s plus the b-image shape.

    The counts are derived once in __init__ and take no part in equality,
    hash or repr: b_count and a_count are the occurrences of b and of a in
    the image of b; rank is the form's place in classify's role order, 0
    for a b-free image of b, 1 for an empty image of a, otherwise 1 + p;
    is_identity is True iff the form is a -> a, b -> b.
    """

    __slots__ = ("s", "bpart", "b_count", "a_count", "rank", "is_identity")
    _fields = ("s", "bpart")

    def __init__(self, s: int, bpart: BOnly | Core):
        self.s = s
        self.bpart = bpart
        if isinstance(bpart, BOnly):
            self.b_count, self.a_count, self.rank = 0, bpart.e, 0
        else:
            self.b_count = bpart.p
            self.a_count = bpart.gamma1 + sum(bpart.alphas) + bpart.gamma2
            self.rank = 1 if s == 0 else 1 + bpart.p
        self.is_identity = s == 1 and self.b_count == 1 and self.a_count == 0

    def is_nonsingular(self) -> bool:
        return self.s >= 1 and isinstance(self.bpart, Core)

    def to_morphism(self) -> BinaryMorphism:
        return BinaryMorphism(Word.single(A, self.s), shape_to_word(self.bpart))


def to_triangular(g: BinaryMorphism) -> TriangularForm:
    """Decompose g, or raise NotUpperTriangular when the image of a contains b."""
    return g.form


_MORPHISM_RE = re.compile(r"^a=([ab]+|eps),b=([ab]+|eps)$")


def parse_morphism(text: str) -> BinaryMorphism:
    """Parse 'a=<word>,b=<word>' where each word is over {a,b} or 'eps'."""
    stripped = re.sub(r"\s+", "", text)
    m = _MORPHISM_RE.match(stripped)
    if m is None:
        # Point at the first structural divergence for the error message.
        expected = "a="
        for pos, ch in enumerate(stripped):
            if pos >= len(expected):
                break
            if ch != expected[pos]:
                raise ParseError(f"expected {expected!r} at the start", pos)
        raise ParseError(
            "morphism must look like 'a=<word>,b=<word>' with words over "
            "{a,b} or 'eps'"
        )
    return BinaryMorphism(Word.parse(m.group(1)), Word.parse(m.group(2)))


def format_morphism(g: BinaryMorphism) -> str:
    return f"a={g.image_a.to_text()},b={g.image_b.to_text()}"
