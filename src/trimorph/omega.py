"""The one-sided infinite word attached to a nonsingular triangular morphism.

Let h be nonsingular upper triangular, h(a) = a^s, and write h(b) as
a^gamma1 b v.  When the tail v is nonempty, iterating h from b and
discarding the a-padding that accumulates on the left converges letter by
letter to the infinite word

    omega(h) = b v h(v) h^2(v) h^3(v) ...

which satisfies h(omega) = a^gamma1 omega.  The word is expanded literally
in one place, _expansion: since h^k(b) = a^(gamma1 G(s, k)) T_k for the
prefix T_k = b v h(v) ... h^(k-1)(v), each T_(k+1) = T_k h^k(v) is built
from copies of T_k, and the expansion stops at the shortest prefix that
holds the letters, or the b's, still needed.  omega_prefix returns that
prefix and gap_sequence_direct reads its gaps; neither uses the closed form
below or any recurrence on gaps.

The structure of omega(h) is carried by the gap sequence: gap(h, i)
counts the a's between the i-th and (i+1)-th b of omega(h).  With p >= 2
occurrences of b in h(b), interior gaps alpha_1 ... alpha_(p-1), and
i = p^m * j with j not divisible by p and lowest nonzero base-p digit d,
the gaps obey

    gap(h, i) = alpha_d * s^m + (gamma1 + gamma2) * G(s, m)

where G(s, m) = m when s = 1 and (s^m - 1)/(s - 1) otherwise: class_terms
evaluates the two terms that depend on m alone, class_gap the formula for
one class (m, d), gap for one index i.  The word is
eventually periodic exactly when gamma1 = gamma2 = 0 and all interior gaps
agree, in which case omega(h) = (b a^alpha)^infinity.
"""
from __future__ import annotations

from itertools import islice

from .morphisms import BinaryMorphism, Core, TriangularForm, apply, b_image_shape, shape_to_word
from .numtheory import val_and_digit
from .words import (
    A,
    B,
    MAX_COUNT,
    CountOverflow,
    Run,
    Word,
    push_run,
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


def _cut(runs: tuple[Run, ...], over: int, letters: bool) -> tuple[int, int]:
    """(end, trim): dropping over letters, or over b's, from the end of runs,
    fewer than they hold, as late as possible keeps runs[:end] with trim
    taken off its last run.  The walk reads only the runs it drops."""
    end = len(runs)
    while True:
        letter, count = runs[end - 1]
        weight = count if letters or letter == B else 0
        if weight > over:
            return end, over
        over -= weight
        end -= 1


def _expansion(form: TriangularForm, n: int, letters: bool) -> Word:
    """The shortest prefix of omega(h) that holds n letters, or n b's when
    letters is false; when h(b) holds one b, omega(h) = b a^infinity holds
    no second b, and only letters are asked of it.

    The prefixes T_k = b v h(v) ... h^(k-1)(v) grow by T_(k+1) = T_k h^k(v),
    where h^k(a) = a^(s^k) and h^k(b) = a^(gamma1 G(s, k)) T_k, so a level
    applies h^k to the runs of v alone and copies T_k whole.  The weights of
    T_k and of the images of a and b under h^k are kept by arithmetic, so
    the last level applies h^k only to the shortest head of v whose image
    is heavy enough (see _head) and cuts that image to fit (see _cut).  The
    images of h^k are built unchecked, so a count raises CountOverflow only
    where the image of that head emits it; for n letters the images of a
    and the padding are capped at n, which cuts no letter of the prefix.
    """
    if not form.is_nonsingular():
        raise NotApplicable("omega needs a nonsingular form")
    tail = right_tail(form)
    if tail.is_empty():
        raise OmegaUndefined("h(b) = a^gamma1 b has an empty tail")
    if n == 0:
        return Word()
    if n > MAX_COUNT:
        raise CountOverflow(f"a prefix of {n} letters or b's exceeds the 64-bit bound")
    if form.b_count == 1:
        # Every piece is a power of a, so omega(h) = b a^infinity.
        return Word.from_runs(((B, 1), (A, n - 1)))
    gamma1, s = form.bpart.gamma1, form.s
    runs: list[Run] = [(B, 1)]
    # T_k holds weight; h^k(a) = a^power and h^k(b) = a^(gamma1 grown) T_k,
    # with grown = G(s, k).
    weight, power, grown = 1, 1, 0
    while weight < n:
        count_a, pad = power, gamma1 * grown
        if letters:
            # A run of n a's or more ends the prefix: the cap cuts none of its letters.
            count_a, pad = min(count_a, n), min(pad, n)
            sizes = {A: count_a, B: pad + weight}
        elif pad > MAX_COUNT:
            # Each copy of h^k(b) that a head emits has a kept b after its padding.
            raise CountOverflow(f"count {pad} exceeds 64-bit bound")
        else:
            sizes = {A: 0, B: weight}
        # Copied at its known size: a tuple grown from an iterator, by
        # repeated resizing, left the heap larger on every call.
        image_b = tuple(runs)
        if pad:
            image_b = ((A, pad),) + image_b
        need = n - weight
        head = _head(tail, sizes, need)
        image = apply(BinaryMorphism(Word(((A, count_a),)), Word(image_b)), head).runs
        held = sum(sizes[letter] * count for letter, count in head.runs)
        end, over = _cut(image, held - need, letters) if held >= need else (len(image), 0)
        push_run(runs, *image[0])
        runs += islice(image, 1, end)
        if over:
            letter, last = runs[-1]
            runs[-1] = (letter, last - over)
        # Let the image and the copy of T_k go before the prefix is copied again.
        del image, image_b
        weight += held
        power *= s
        grown = s * grown + 1
    return Word(tuple(runs))


def omega_prefix(form: TriangularForm, n: int) -> Word:
    """The first n letters of omega(h)."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    return _expansion(form, n, letters=True)


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


def class_terms(form: TriangularForm, m: int) -> tuple[int, int]:
    """(s^m, (gamma1 + gamma2) G(s, m)): every i of base-p valuation m and
    lowest nonzero base-p digit d has gap(form, i) = alpha_d s^m +
    (gamma1 + gamma2) G(s, m), as exact integers; the form is not checked."""
    core = form.bpart
    return form.s**m, (core.gamma1 + core.gamma2) * geometric(form.s, m)


def class_gap(form: TriangularForm, m: int, d: int) -> int:
    """gap(form, i) for every i of base-p valuation m and lowest nonzero
    base-p digit d, as an exact integer; the form and the class are not
    checked."""
    scale, pad = class_terms(form, m)
    return form.bpart.alphas[d - 1] * scale + pad


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
    """Gap values read off the literal expansion: the shortest prefix of
    omega(h) that holds upto + 1 b's starts and ends with a b, so its
    interior gaps are the first upto gaps."""
    _require_gapped(form)
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if upto == 0:
        return []
    return list(b_image_shape(_expansion(form, upto + 1, letters=False)).alphas)


def omega_eventually_periodic(form: TriangularForm) -> bool:
    """Structural test: no outer padding, all interior gaps equal, and the
    shared gap not subject to scaling (a positive gap recurs multiplied by
    s^m at indexes divisible by p^m, so it stays bounded only when s is 1).
    """
    alpha = _require_gapped(form).uniform_gap
    return alpha is not None and (form.s == 1 or alpha == 0)
