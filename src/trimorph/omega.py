"""The one-sided infinite word attached to a nonsingular triangular morphism.

Let h be nonsingular upper triangular, h(a) = a^s, and write h(b) as
a^gamma1 b v.  When the tail v is nonempty, iterating h from b and
discarding the a-padding that accumulates on the left converges letter by
letter to the infinite word

    omega(h) = b v h(v) h^2(v) h^3(v) ...

which satisfies h(omega) = a^gamma1 omega.  Its structure is carried by the
gap sequence: gap(h, i) counts the a's between the i-th and (i+1)-th b of
omega(h).  With p >= 2 occurrences of b in h(b), interior gaps alpha_1 ...
alpha_(p-1), and i = p^m * j with j not divisible by p and lowest nonzero
base-p digit d, the gaps obey

    gap(h, i) = alpha_d * s^m + (gamma1 + gamma2) * G(s, m)

where G(s, m) = m when s = 1 and (s^m - 1)/(s - 1) otherwise.  The word is
eventually periodic exactly when gamma1 = gamma2 = 0 and all interior gaps
agree, in which case omega(h) = (b a^alpha)^infinity.
"""
from __future__ import annotations

from .morphisms import Core, TriangularForm, apply, b_image_shape
from .numtheory import val_and_digit
from .words import (
    A,
    B,
    MAX_COUNT,
    CountOverflow,
    Word,
    concat,
    strip_leading,
    strip_quotient,
    take_prefix,
)


class NotApplicable(ValueError):
    """The operation's structural precondition fails for this form."""


class OmegaUndefined(ValueError):
    """The iteration tail is empty, so no infinite word exists."""


def right_tail(form: TriangularForm) -> Word:
    """The word v with h(b) = a^gamma1 b v."""
    if not isinstance(form.bpart, Core):
        raise NotApplicable("image of b is b-free")
    head = Word.from_runs(((A, form.bpart.gamma1), (B, 1)))
    return strip_quotient(head, form.image_b())


def omega_prefix(form: TriangularForm, n: int) -> Word:
    """The first n letters of omega(h)."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    if not form.is_nonsingular():
        raise NotApplicable("omega needs a nonsingular form")
    tail = right_tail(form)
    if tail.is_empty():
        raise OmegaUndefined("h(b) = a^gamma1 b has an empty tail")
    if n == 0:
        return Word()
    h = form.to_morphism()
    acc = Word(((B, 1),))
    acc_len = 1
    cur = tail
    while acc_len < n:
        piece = take_prefix(cur, n - acc_len)
        acc = concat(acc, piece)
        acc_len += piece.length()
        if acc_len >= n:
            break
        # Images of prefixes are prefixes and every letter maps to at least
        # one letter, so a truncated tail still feeds enough material.
        cur = take_prefix(apply(h, cur), n - acc_len)
    return acc


def _require_gapped(form: TriangularForm) -> Core:
    if not form.is_nonsingular():
        raise NotApplicable("gaps need a nonsingular form")
    core = form.bpart
    assert isinstance(core, Core)
    if core.p < 2:
        raise NotApplicable("gaps need at least two b's in the image of b")
    return core


def geometric(s: int, m: int) -> int:
    """G(s, m) = 1 + s + ... + s^(m-1); h^m(b) carries gamma * G(s, m) outer a's."""
    return m if s == 1 else (s**m - 1) // (s - 1)


def gap(form: TriangularForm, i: int) -> int:
    """Number of a's between the i-th and (i+1)-th b of omega(h), closed form."""
    core = _require_gapped(form)
    if i < 1:
        raise ValueError("i must be positive")
    m, d = val_and_digit(i, core.p)
    value = core.alphas[d - 1] * form.s**m + (core.gamma1 + core.gamma2) * geometric(form.s, m)
    if value > MAX_COUNT:
        raise CountOverflow(f"gap {value} exceeds 64-bit bound")
    return value


def gap_sequence(form: TriangularForm, upto: int) -> list[int]:
    """[gap(form, 1), ..., gap(form, upto)] via the closed form, built
    blockwise: the indexes p j + 1 ... p j + p - 1 carry alpha_1 ...
    alpha_(p-1), and gap(p j) = s gap(j) + gamma1 + gamma2.

    Raises CountOverflow exactly when gap(form, i) would for some i <= upto.
    """
    core = _require_gapped(form)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    s = form.s
    gg = core.gamma1 + core.gamma2
    seq = list(core.alphas)
    j = 0
    while len(seq) < upto:
        seq.append(s * seq[j] + gg)
        seq.extend(core.alphas)
        j += 1
    del seq[upto:]
    if seq and max(seq) > MAX_COUNT:
        raise CountOverflow("gap values exceed the 64-bit bound")
    return seq


def _truncate_after_b(w: Word, nb: int) -> Word:
    """Cut w immediately after its nb-th b."""
    seen = 0
    for idx, (letter, count) in enumerate(w.runs):
        if letter != B:
            continue
        if seen + count >= nb:
            return Word(w.runs[:idx] + ((B, nb - seen),))
        seen += count
    return w


def _prefix_with_b_count(form: TriangularForm, nb: int) -> Word:
    """A prefix of omega(h) containing exactly nb b's, by literal iteration."""
    h = form.to_morphism()
    u = Word(((B, 1),))
    while u.occ(B) < nb:
        u = _truncate_after_b(strip_leading(apply(h, u), A), nb)
    return u


def gap_sequence_direct(form: TriangularForm, upto: int) -> list[int]:
    """Gap values read off an explicitly expanded prefix of omega(h)."""
    _require_gapped(form)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    return list(b_image_shape(_prefix_with_b_count(form, upto + 1)).alphas)


def gap_direct(form: TriangularForm, i: int) -> int:
    """Number of a's between the i-th and (i+1)-th b, by literal expansion."""
    if i < 1:
        raise ValueError("i must be positive")
    return gap_sequence_direct(form, i)[i - 1]


def omega_eventually_periodic(form: TriangularForm) -> bool:
    """Structural test: no outer padding, all interior gaps equal, and the
    shared gap not subject to scaling (a positive gap recurs multiplied by
    s^m at indexes divisible by p^m, so it stays bounded only when s is 1).
    """
    core = _require_gapped(form)
    if core.gamma1 or core.gamma2 or len(set(core.alphas)) != 1:
        return False
    return form.s == 1 or core.alphas[0] == 0


def eventually_periodic_prefix(text: str, max_period: int = 200, preperiod: int = 1000) -> bool:
    """Empirical periodicity check on a finite prefix.

    True iff some period d <= max_period makes text[i] == text[i + d] hold
    for every i >= preperiod inside the prefix.  The caller must supply a
    prefix long enough to separate true periodicity from coincidence.
    """
    n = len(text)
    if n <= preperiod + max_period:
        raise ValueError("prefix too short for the requested bounds")
    for d in range(1, max_period + 1):
        if text[preperiod : n - d] == text[preperiod + d :]:
            return True
    return False
