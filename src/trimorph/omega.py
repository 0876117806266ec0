"""The one-sided infinite word attached to a nonsingular triangular morphism.

Let h be nonsingular upper triangular, h(a) = a^s, and write h(b) as
a^gamma1 b v.  When the tail v is nonempty, iterating h from b and
discarding the a-padding that accumulates on the left converges letter by
letter to the infinite word

    omega(h) = b v h(v) h^2(v) h^3(v) ...

which satisfies h(omega) = a^gamma1 omega.  The word is expanded literally
piece by piece and read two ways: omega_prefix appends the pieces,
gap_sequence_direct reads their gaps.  Both take v and h from _expansion,
which checks the form, and expand only what they keep of each piece.  Its
structure is carried by the gap sequence: gap(h, i) counts the a's between
the i-th and (i+1)-th b of omega(h).  With p >= 2 occurrences of b in
h(b), interior gaps alpha_1 ... alpha_(p-1), and i = p^m * j with j not
divisible by p and lowest nonzero base-p digit d, the gaps obey

    gap(h, i) = alpha_d * s^m + (gamma1 + gamma2) * G(s, m)

where G(s, m) = m when s = 1 and (s^m - 1)/(s - 1) otherwise: class_gap
evaluates it for one class (m, d), gap for one index i.  The word is
eventually periodic exactly when gamma1 = gamma2 = 0 and all interior gaps
agree, in which case omega(h) = (b a^alpha)^infinity.
"""
from __future__ import annotations

from .morphisms import BinaryMorphism, Core, TriangularForm, apply, b_image_shape, shape_to_word
from .numtheory import val_and_digit
from .words import (
    A,
    B,
    MAX_COUNT,
    CountOverflow,
    Word,
    checked_add,
    concat,
    take_prefix,
)


class NotApplicable(ValueError):
    """The operation's structural precondition fails for this form."""


class OmegaUndefined(ValueError):
    """The iteration tail is empty, so no infinite word exists."""


def right_tail(form: TriangularForm) -> Word:
    """The word v with h(b) = a^gamma1 b v, read off the form: v is
    a^alpha1 b ... a^alpha(p-1) b a^gamma2."""
    core = form.bpart
    if not isinstance(core, Core):
        raise NotApplicable("image of b is b-free")
    if core.p == 1:
        return Word.single(A, core.gamma2)
    return shape_to_word(Core(core.alphas[0], core.alphas[1:], core.gamma2))


def _head(w: Word, sizes: dict[str, int], n: int) -> Word:
    """The shortest prefix of w whose image holds at least n letters, sizes
    giving the length of each letter's image; all of w when there is none."""
    for idx, (letter, count) in enumerate(w.runs):
        size = sizes[letter]
        if size * count >= n:
            return Word(w.runs[:idx] + ((letter, -(-n // size)),))
        n -= size * count
    return w


def _expansion(form: TriangularForm) -> tuple[Word, BinaryMorphism]:
    """The first piece v of omega(h) and h itself.  The pieces after v are
    h(v), h^2(v), ...; a nonsingular h erases no letter, so a prefix of the
    next piece long enough for the caller is h(u) for the shortest prefix u
    of the current piece whose image is long enough (see _head), and only
    u is expanded."""
    if not form.is_nonsingular():
        raise NotApplicable("omega needs a nonsingular form")
    tail = right_tail(form)
    if tail.is_empty():
        raise OmegaUndefined("h(b) = a^gamma1 b has an empty tail")
    return tail, form.to_morphism()


def omega_prefix(form: TriangularForm, n: int) -> Word:
    """The first n letters of omega(h)."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    piece, h = _expansion(form)
    if n == 0:
        return Word()
    if form.b_count == 1:
        # Every piece is a power of a, so omega(h) = b a^infinity.
        return Word.from_runs(((B, 1), (A, n - 1)))
    sizes = {A: form.s, B: form.a_count + form.b_count}
    acc, held = Word(((B, 1),)), 1
    while True:
        piece = take_prefix(piece, n - held)
        acc = concat(acc, piece)
        held += piece.length()
        if held >= n:
            return acc
        # The cut kept all of piece, so the next piece starts with its image.
        piece = apply(h, _head(piece, sizes, n - held))


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


def class_gap(form: TriangularForm, m: int, d: int) -> int:
    """gap(form, i) for every i of base-p valuation m and lowest nonzero
    base-p digit d, as an exact integer; the form and the class are not
    checked."""
    core = form.bpart
    return core.alphas[d - 1] * form.s**m + (core.gamma1 + core.gamma2) * geometric(form.s, m)


def gap(form: TriangularForm, i: int) -> int:
    """Number of a's between the i-th and (i+1)-th b of omega(h), closed form."""
    core = _require_gapped(form)
    if i < 1:
        raise ValueError("i must be positive")
    value = class_gap(form, *val_and_digit(i, core.p))
    if value > MAX_COUNT:
        raise CountOverflow(f"gap {value} exceeds 64-bit bound")
    return value


def exact_gap_sequence(form: TriangularForm, upto: int) -> list[int]:
    """[gap(form, 1), ..., gap(form, upto)] with no 64-bit bound, built blockwise:
    the indexes p j + 1 ... p j + p - 1 carry alpha_1 ... alpha_(p-1), and
    gap(p j) = s gap(j) + gamma1 + gamma2."""
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
    return seq


def gap_sequence(form: TriangularForm, upto: int) -> list[int]:
    """[gap(form, 1), ..., gap(form, upto)] via the closed form.

    Raises CountOverflow exactly when gap(form, i) would for some i <= upto.
    """
    seq = exact_gap_sequence(form, upto)
    if seq and max(seq) > MAX_COUNT:
        raise CountOverflow("gap values exceed the 64-bit bound")
    return seq


def gap_sequence_direct(form: TriangularForm, upto: int) -> list[int]:
    """Gap values read off the literal expansion, piece by piece: with p >= 2
    every piece holds a b, and the trailing padding of one piece and the
    leading padding of the next make one gap, so a piece with N b's gives N
    gaps.  Each piece is expanded only as far as the b's still needed, so
    fewer than upto + p gaps are read."""
    _require_gapped(form)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    piece, h = _expansion(form)
    gaps: list[int] = []
    if upto == 0:
        return gaps
    sizes = {A: 0, B: form.b_count}
    pending = 0
    while True:
        shape = b_image_shape(piece)
        gaps.append(checked_add(pending, shape.gamma1))
        gaps.extend(shape.alphas)
        if len(gaps) >= upto:
            del gaps[upto:]
            return gaps
        pending = shape.gamma2
        piece = apply(h, _head(piece, sizes, upto - len(gaps)))


def omega_eventually_periodic(form: TriangularForm) -> bool:
    """Structural test: no outer padding, all interior gaps equal, and the
    shared gap not subject to scaling (a positive gap recurs multiplied by
    s^m at indexes divisible by p^m, so it stays bounded only when s is 1).
    """
    alpha = _require_gapped(form).uniform_gap
    return alpha is not None and (form.s == 1 or alpha == 0)
