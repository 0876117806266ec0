"""Exact words over the two-letter alphabet {a, b}.

Words are stored run-length encoded: a tuple of (letter, count) runs with
adjacent runs carrying distinct letters and every count >= 1.  The empty
word is the empty run tuple.  Run counts and word lengths are checked
against a 64-bit bound; arithmetic that would exceed it raises
CountOverflow instead of silently wrapping or degrading.  BeyondBudget
marks work or output beyond a budget, in the library and the command line
alike; SearchAborted ends a relation search that would overflow or whose
depth is beyond freeness.MAX_DEPTH.

This is the bottom layer: the command line imports it, and nothing else,
before it knows which command runs, so it also holds the record
SCHEMA_VERSION, the word predicate a_conjugates and Value, the base of
every value type.
"""
from __future__ import annotations

from collections.abc import Iterable
from itertools import groupby
from operator import attrgetter, itemgetter

A = "a"
B = "b"
LETTERS = (A, B)

MAX_COUNT = 2**64 - 1

Run = tuple[str, int]

# The version of every JSON record the library and the command line print.
SCHEMA_VERSION = 1


class CountOverflow(OverflowError):
    """A run count or word length left the 64-bit range."""


class BeyondBudget(Exception):
    """The requested work or output is larger than its budget."""


class SearchAborted(RuntimeError):
    """A composition of the relation search would overflow the 64-bit word
    bound (an entry of its occurrence matrix passes MAX_COUNT), or the
    requested depth is beyond the search budget."""

    def __init__(self, depth: int, message: str | None = None):
        self.depth = depth
        super().__init__(message or f"relation search aborted by overflow at depth {depth}")


class ParseError(ValueError):
    """Malformed textual input."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def checked_add(x: int, y: int) -> int:
    z = x + y
    if z > MAX_COUNT:
        raise CountOverflow(f"count {z} exceeds 64-bit bound")
    return z


def _total(counts: Iterable[int]) -> int:
    """The sum of nonnegative counts, which passes MAX_COUNT exactly when
    some partial sum does: summed in C and checked once."""
    total = sum(counts)
    if total > MAX_COUNT:
        raise CountOverflow(f"count {total} exceeds 64-bit bound")
    return total


_count = itemgetter(1)


def push_run(runs: list[Run], letter: str, count: int) -> None:
    """Append a run to a list kept in normal form, merging at the boundary."""
    if count == 0:
        return
    if runs and runs[-1][0] == letter:
        runs[-1] = (letter, checked_add(runs[-1][1], count))
    else:
        runs.append((letter, count))


class Value:
    """Base of the value types: equality, hash and repr as a frozen
    dataclass derives them from the fields named in _fields.

    Two values are equal only when they are of the same class with equal
    fields, the hash is that of the field values, and the repr is
    Name(field=value, ...).  A subclass assigns its fields, and any value
    it derives from them, in its own __init__ and nothing assigns them
    after, so values are immutable by convention.  Each subclass lists them
    all in __slots__, so it refuses any other attribute; BinaryMorphism
    alone keeps a __dict__, for the rows, form and translate table it
    computes lazily.  It is a plain class because every command builds
    values, and importing dataclasses would cost each one a few
    milliseconds.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # The field values as one object: attrgetter gives the value itself
        # for one name and a tuple for more.  A loop over the names would
        # cost about four times as much on every comparison.
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda value: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Word(Value):
    """An element of {a,b}* in run-length normal form.

    The constructor trusts its argument; use from_runs or parse for
    unnormalized input.
    """

    __slots__ = ("runs",)
    _fields = ("runs",)

    def __init__(self, runs: tuple[Run, ...] = ()):
        self.runs = runs

    @staticmethod
    def from_runs(items: Iterable[Run]) -> "Word":
        out: list[Run] = []
        for letter, count in items:
            if letter not in LETTERS:
                raise ValueError(f"letter must be one of {LETTERS}, got {letter!r}")
            if count < 0:
                raise ValueError(f"run count must be nonnegative, got {count}")
            if count > MAX_COUNT:
                raise CountOverflow(f"count {count} exceeds 64-bit bound")
            push_run(out, letter, count)
        return Word(tuple(out))

    @staticmethod
    def single(letter: str, count: int) -> "Word":
        return Word.from_runs([(letter, count)])

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse 'eps' or a nonempty string over {a,b}."""
        if text == "eps":
            return EMPTY
        if not text:
            raise ParseError("empty word text; write 'eps' for the empty word")
        for pos, ch in enumerate(text):
            if ch not in LETTERS:
                raise ParseError(f"unexpected character {ch!r}", pos)
        return Word(tuple((ch, len(list(grp))) for ch, grp in groupby(text)))

    def to_text(self) -> str:
        """Expanded textual form ('eps' for the empty word).

        Materializes the word letter by letter, so only call this on words
        of moderate length.
        """
        if not self.runs:
            return "eps"
        return "".join(letter * count for letter, count in self.runs)

    def length(self) -> int:
        """The number of letters, with one bound check (see _total)."""
        return _total(map(_count, self.runs))

    def occ(self, letter: str) -> int:
        """The occurrences of letter, with one bound check (see _total)."""
        return _total([count for let, count in self.runs if let == letter])

    def is_empty(self) -> bool:
        return not self.runs


EMPTY = Word()
WORD_A = Word(((A, 1),))
WORD_B = Word(((B, 1),))


def concat(u: Word, v: Word) -> Word:
    if not u.runs:
        return v
    if not v.runs:
        return u
    out = list(u.runs)
    push_run(out, *v.runs[0])
    out.extend(v.runs[1:])
    return Word(tuple(out))


def take_prefix(w: Word, n: int) -> Word:
    """The first n letters of w (all of w when n >= |w|)."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    remaining = n
    for idx, (letter, count) in enumerate(w.runs):
        if remaining <= count:
            cut = ((letter, remaining),) if remaining else ()
            return Word(w.runs[:idx] + cut)
        remaining -= count
    return w


def strip_leading(w: Word, letter: str) -> Word:
    """Drop the maximal leading run of the given letter."""
    if w.runs and w.runs[0][0] == letter:
        return Word(w.runs[1:])
    return w


def b_core(w: Word) -> tuple[int, Word, int]:
    """Split w as a^p (core) a^q with the core empty or starting and ending in b.

    Returns (p, core, q).  A b-free word is all leading padding:
    (|w|, eps, 0).
    """
    if w.occ(B) == 0:
        return w.length(), EMPTY, 0
    runs = w.runs
    lead = runs[0][1] if runs[0][0] == A else 0
    trail = runs[-1][1] if runs[-1][0] == A else 0
    start = 1 if lead else 0
    end = len(runs) - 1 if trail else len(runs)
    return lead, Word(runs[start:end]), trail


def words_commute(u: Word, v: Word) -> bool:
    """True iff uv = vu, i.e. both are powers of a common word."""
    return concat(u, v) == concat(v, u)


def a_conjugates(u: Word, v: Word) -> bool:
    """True iff v is obtained from u by moving a's across the ends.

    Equivalently: equal b-cores and equal total a-count (for b-free words,
    equal length).
    """
    lead_u, core_u, trail_u = b_core(u)
    lead_v, core_v, trail_v = b_core(v)
    return core_u == core_v and lead_u + trail_u == lead_v + trail_v
