from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from trimorph.morphisms import BinaryMorphism, Core, TriangularForm
from trimorph.words import EMPTY, Word

settings.register_profile(
    "ci",
    settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
settings.load_profile("ci")


# --- independent oracle: morphisms on plain Python strings, no run-length
# representation anywhere.  Used to cross-check the exact implementation.

def napply(image_a: str, image_b: str, w: str) -> str:
    return "".join(image_a if ch == "a" else image_b for ch in w)


def ncompose(g1: tuple[str, str], g2: tuple[str, str]) -> tuple[str, str]:
    return napply(*g1, g2[0]), napply(*g1, g2[1])


def npower(g: tuple[str, str], n: int) -> tuple[str, str]:
    result = ("a", "b")
    for _ in range(n):
        result = ncompose(result, g)
    return result


def as_strings(g: BinaryMorphism) -> tuple[str, str]:
    def text(w: Word) -> str:
        return "".join(letter * count for letter, count in w.runs)

    return text(g.image_a), text(g.image_b)


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


def is_special_pair(g1: BinaryMorphism, g2: BinaryMorphism) -> bool:
    """Both b-images lie in a* b a* and exactly one morphism fixes a."""
    f1, f2 = g1.form, g2.form
    if f1.b_count != 1 or f2.b_count != 1:
        return False
    return (f1.s == 1) != (f2.s == 1)


# --- strategies

def word_texts(max_size: int = 16):
    return st.text(alphabet="ab", max_size=max_size)


def words(max_size: int = 16):
    return word_texts(max_size).map(lambda t: Word.parse(t) if t else EMPTY)


def morphisms(max_image: int = 8):
    return st.builds(BinaryMorphism, words(max_image), words(max_image))


def triangular_morphisms(max_s: int = 3, max_image: int = 10):
    return st.builds(
        BinaryMorphism,
        st.integers(0, max_s).map(lambda s: Word.parse("a" * s) if s else EMPTY),
        words(max_image),
    )


def gapped_forms(max_s: int = 3, max_p: int = 4, max_exp: int = 3):
    """Nonsingular forms with at least two b's in the image of b."""
    return st.builds(
        lambda s, g1, alphas, g2: TriangularForm(s, Core(g1, tuple(alphas), g2)),
        st.integers(1, max_s),
        st.integers(0, max_exp),
        st.lists(st.integers(0, max_exp), min_size=1, max_size=max_p - 1),
        st.integers(0, max_exp),
    )
