"""The benchmark's workloads: two traffic mixes of five request kinds.

Each kind turns a seeded random generator into a fixed list of requests,
one pass of the workload, drawn in groups that each hold the same strata
(rungs of a ladder, b-counts, images of a), so that the cost of a pass
changes little from seed to seed.  ``call`` makes the timed library calls
for one request; ``check`` compares the answer against a reference that
shares no code with the library: morphisms acting on plain Python strings,
or the answers printed in the README.  A workload is a ``Mix`` of kinds:
their requests in one seeded order.

The library is reached only through module attributes looked up at call
time (``classifier.classify``), so the tracer can swap wrappers onto those
names.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from trimorph import classifier, freeness, omega, sweep
from trimorph.morphisms import Core, TriangularForm, is_nonsingular, parse_morphism

SRC = Path(__file__).resolve().parent.parent / "src"


# --- the independent reference: morphisms as pairs of plain strings


def text(word) -> str:
    return "".join(letter * count for letter, count in word.runs)


def s_morphism(g) -> tuple[str, str]:
    return text(g.image_a), text(g.image_b)


def s_apply(g: tuple[str, str], w: str) -> str:
    return w.translate({97: g[0], 98: g[1]})


def s_compose(g1, g2) -> tuple[str, str]:
    """g1 g2 on strings, applying g2 first."""
    return s_apply(g1, g2[0]), s_apply(g1, g2[1])


def s_commute(g1, g2) -> bool:
    return s_compose(g1, g2) == s_compose(g2, g1)


def s_power(g, k: int) -> tuple[str, str]:
    out = ("a", "b")
    for _ in range(k):
        out = s_compose(out, g)
    return out


def s_b_image(rng, p: int, min_gap: int = 0) -> str:
    """a^gamma1 b a^alpha1 b ... b a^gamma2 with p b's, paddings in [0, 2]
    and interior gaps in [min_gap, 2]."""
    gaps = "".join("a" * rng.randint(min_gap, 2) + "b" for _ in range(p - 1))
    return "a" * rng.randint(0, 2) + "b" + gaps + "a" * rng.randint(0, 2)


def morphism(g: tuple[str, str]):
    return parse_morphism(f"a={g[0]},b={g[1]}")


class Workload:
    """A workload: the ``requests`` of one pass, the timed ``call`` and its
    ``check``."""

    name = ""
    # The first requests run once during set-up (None: all of them).
    warm_requests: int | None = None
    requests: list

    def call(self, req):
        raise NotImplementedError

    def check(self, req, out) -> bool:
        raise NotImplementedError

    def warm(self) -> None:
        for req in self.requests[: self.warm_requests]:
            self.check(req, self.call(req))


# --- sweep: the default exhaustive sweep, one row of ordered pairs per request


SWEEP_ROWS_PER_CLASS = 12


class SweepWorkload(Workload):
    """Request i evaluates the ordered pairs (g_i, g_j) for every j.

    Enumeration is s-major over 121 b-images, so the rows with one index
    modulo 11 hold the same 11 b-images under every image of a.  A pass
    takes the same number of seeded rows from each of the 11 classes.
    """

    name = "sweep"
    warm_requests = 1

    def __init__(self, rng, tiny: bool):
        if tiny:
            self.config = sweep.SweepConfig(max_s=1, max_p=2, max_exp=1, max_bonly_exp=1)
            stride, per_class = 4, 1
        else:
            self.config = sweep.SweepConfig()
            stride, per_class = 11, SWEEP_ROWS_PER_CLASS
        self.morphisms = sweep.enumerate_morphisms(self.config)
        self.strings = [s_morphism(g) for g in self.morphisms]
        n = len(self.morphisms)
        self.requests = [
            row for k in range(stride) for row in rng.sample(range(k, n, stride), per_class)
        ]
        self._commuting: dict[int, int] = {}

    def call(self, row):
        n = len(self.morphisms)
        return sweep.sweep_range(self.morphisms, row * n, (row + 1) * n)

    def expected_commuting(self, row: int) -> int:
        if row not in self._commuting:
            g = self.strings[row]
            self._commuting[row] = sum(s_commute(g, h) for h in self.strings)
        return self._commuting[row]

    def check(self, row, out) -> bool:
        commuting, cases, _, mismatches = out
        return (
            not mismatches
            and sum(cases.values()) == len(self.morphisms)
            and commuting == self.expected_commuting(row)
        )

    def check_full(self, result) -> bool:
        """Check a whole run_sweep result against the per-row references."""
        expected = sum(self.expected_commuting(r) for r in range(len(self.morphisms)))
        return not result.mismatches and result.commuting == expected


# --- powers: multiplicatively dependent b-counts, where classify builds g^n

# (p, q) with p = r^m, q = r^n; classify builds powers holding r^(mn) b's,
# from 2^2 for (2, 4) up to 2^20 for (16, 32).
LADDER = ((2, 4), (4, 8), (9, 27), (4, 32), (8, 16), (8, 32), (16, 32))
TINY_LADDER = ((2, 4), (4, 8), (2, 8))
# (p, k): a morphism with p b's against its own k-th power.
OWN_POWERS = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3))


POWERS_GROUPS = 7


class PowersWorkload(Workload):
    """Each group of 22: seven commuting pairs, then fifteen ladder pairs.

    The commuting pairs are three pure b-power pairs, a morphism against its
    own power and a morphism against an a-conjugate of its power, the last
    two in both orders.  Every rung appears once with s = t = 1, where
    classify evaluates all three of its conditions on the power images, and
    once with s or t = 2; the top rung (16, 32) appears once more with
    s = t = 1.  Seven groups give fourteen pairs of the heaviest class, so
    that the tail, the eleventh slowest request of the ``verdicts`` mix,
    falls inside it and not on its edge.  Ladder pairs draw interior gaps
    from {1, 2}, so no runs of b merge and a rung's cost is set by its
    b-count.
    """

    name = "powers"
    warm_requests = 1  # a pure b-power pair: set-up does not grow the heap

    def __init__(self, rng, tiny: bool):
        ladder = TINY_LADDER if tiny else LADDER
        self.reqs = []
        for _ in range(2 if tiny else POWERS_GROUPS):
            pairs = []
            for _ in range(3):
                p, q = rng.choice(ladder)
                s, t = rng.randint(1, 2), rng.randint(1, 2)
                pairs.append((("a" * s, "b" * p), ("a" * t, "b" * q)))
            for order in (1, -1):
                p, k = rng.choice(OWN_POWERS[:2] if tiny else OWN_POWERS)
                g = ("a" * rng.randint(1, 2), s_b_image(rng, p))
                pairs.append((g, s_power(g, k))[::order])
                pairs.append(self._conjugate_pair(rng)[::order])
            mixed = ((1, 2), (2, 1), (2, 2))
            for (p, q), (s, t) in [(rung, (1, 1)) for rung in ladder + ladder[-1:]] + [
                (rung, rng.choice(mixed)) for rung in ladder
            ]:
                g1 = ("a" * s, s_b_image(rng, p, min_gap=1))
                pairs.append((g1, ("a" * t, s_b_image(rng, q, min_gap=1))))
            self.reqs += [(morphism(g1), morphism(g2), g1, g2) for g1, g2 in pairs]
        self.requests = list(range(len(self.reqs)))
        self._expected: dict[int, bool] = {}

    @staticmethod
    def _conjugate_pair(rng):
        """g fixing a, and g^k with i leading a's moved to its end."""
        p = rng.choice((2, 3, 4))
        k = rng.choice((1, 2))
        g = ("a", "a" * rng.randint(1, 2) + s_b_image(rng, p))
        gk = s_power(g, k)[1]
        lead = len(gk) - len(gk.lstrip("a"))
        i = rng.randint(1, lead)
        return g, ("a", gk[i:] + "a" * i)

    def call(self, req):
        g1, g2, _, _ = self.reqs[req]
        return classifier.classify(g1, g2).prediction, classifier.direct_commute(g1, g2)

    def check(self, req, out) -> bool:
        if req not in self._expected:
            _, _, s1, s2 = self.reqs[req]
            self._expected[req] = s_commute(s1, s2)
        prediction, oracle = out
        return prediction == oracle == self._expected[req]


# --- gaps: one triangular form through the closed form and literal expansion

GAPS_UPTO = 2500
GAPS_DIRECT_UPTO = 2000
OMEGA_LEN = 5000


def s_omega(h: tuple[str, str], n: int) -> str:
    """First n letters of omega(h): iterate h from b, dropping leading a's."""
    u = "b"
    while len(u) < n:
        u = s_apply(h, u).lstrip("a")[:n]
    return u


def s_gaps(w: str) -> list[int]:
    """The a-gaps between consecutive b's of a word starting with b."""
    return [len(block) for block in w.split("b")[1:-1]]


GAPS_GROUPS = 12


class GapsWorkload(Workload):
    """Each group of 12: one form per (b-count p, image of a s) in the box
    of acceptance criterion 3, p in 2..5 and s in 1..3, with paddings and
    interior gaps drawn from 0..3."""

    name = "gaps"
    warm_requests = 12

    def __init__(self, rng, tiny: bool):
        self.upto, self.direct_upto, self.omega_len = (
            (100, 80, 200) if tiny else (GAPS_UPTO, GAPS_DIRECT_UPTO, OMEGA_LEN)
        )
        self.reqs = []
        for _ in range(1 if tiny else GAPS_GROUPS):
            for p in range(2, 6):
                for s in (1, 2, 3):
                    gamma1, gamma2 = rng.randint(0, 3), rng.randint(0, 3)
                    alphas = tuple(rng.randint(0, 3) for _ in range(p - 1))
                    form = TriangularForm(s, Core(gamma1, alphas, gamma2))
                    inner = "".join("a" * x + "b" for x in alphas)
                    image_b = "a" * gamma1 + "b" + inner + "a" * gamma2
                    self.reqs.append((form, ("a" * s, image_b)))
        self.requests = list(range(len(self.reqs)))
        self._expected: dict[int, tuple[str, list[int]]] = {}

    def call(self, req):
        form = self.reqs[req][0]
        return (
            omega.gap_sequence(form, self.upto),
            omega.gap_sequence_direct(form, self.direct_upto),
            omega.omega_prefix(form, self.omega_len),
        )

    def check(self, req, out) -> bool:
        if req not in self._expected:
            prefix = s_omega(self.reqs[req][1], self.omega_len)
            self._expected[req] = (prefix, s_gaps(prefix)[: self.upto])
        closed, direct, prefix = out
        s_prefix, s_gap_values = self._expected[req]
        return (
            len(closed) == self.upto
            and closed[: self.direct_upto] == direct
            and closed[: len(s_gap_values)] == s_gap_values
            and text(prefix) == s_prefix
        )


# --- relations: the relation search of the `free` subcommand

RELATION_DEPTH = 6
RELATION_GROUPS = 24


class RelationsWorkload(Workload):
    """Each group of 12: nine non-commuting and two commuting nonsingular
    pairs and one pair led by a singular morphism, all from the default
    sweep's 484 morphisms."""

    name = "relations"
    warm_requests = 12

    def __init__(self, rng, tiny: bool):
        config = (
            sweep.SweepConfig(max_s=2, max_p=2, max_exp=1, max_bonly_exp=1)
            if tiny
            else sweep.SweepConfig()
        )
        self.depth = 3 if tiny else RELATION_DEPTH
        morphs = sweep.enumerate_morphisms(config)
        strings = [s_morphism(g) for g in morphs]
        nonsingular = [i for i, g in enumerate(morphs) if is_nonsingular(g)]
        singular = [i for i, g in enumerate(morphs) if not is_nonsingular(g)]

        def sample(commuting: bool) -> tuple[int, int]:
            while True:
                i, j = rng.choice(nonsingular), rng.choice(nonsingular)
                if i != j and s_commute(strings[i], strings[j]) == commuting:
                    return i, j

        self.reqs = []
        for _ in range(1 if tiny else RELATION_GROUPS):
            pairs = [sample(False) for _ in range(9)] + [sample(True) for _ in range(2)]
            pairs.append((rng.choice(singular), rng.randrange(len(morphs))))
            self.reqs += [(morphs[i], morphs[j], strings[i], strings[j]) for i, j in pairs]
        self.requests = list(range(len(self.reqs)))
        self._commute: dict[int, bool] = {}

    def call(self, req):
        g1, g2, _, _ = self.reqs[req]
        return freeness.find_relation(g1, g2, self.depth)

    def check(self, req, rel) -> bool:
        _, _, s1, s2 = self.reqs[req]
        if req not in self._commute:
            self._commute[req] = s_commute(s1, s2)
        if rel is None:
            return not self._commute[req]
        gens = (s1, s2)

        def build(seq):
            out = gens[seq[0] - 1]
            for k in seq[1:]:
                out = s_compose(out, gens[k - 1])
            return out

        sequences_ok = all(
            1 <= len(seq) <= self.depth and set(seq) <= {1, 2} for seq in (rel.left, rel.right)
        )
        return sequences_ok and rel.left != rel.right and build(rel.left) == build(rel.right)


# --- cli: one fresh interpreter per answer

# The README transcript, plus conjugate and examples; every answer here is
# also derivable by hand from the definitions.
EXAMPLES_OUT = """\
diagonal-powers: a=aa,b=bbb | a=aaaa,b=b commute=true case=GapOneVsMany
complementary-diagonal: a=a,b=bb | a=aa,b=b commute=true case=GapOneVsMany
uniform-blocks: a=a,b=baab | a=a,b=baabaab commute=true case=MultIndependent
shared-root-powers: a=a,b=bab | a=a,b=bababab commute=true case=MultDependent
conjugate-images: a=a,b=abb | a=a,b=bba commute=true case=MultDependent
erasing-aligned: a=eps,b=aa | a=eps,b=aaa commute=true case=SingularBImage
block-against-shift: a=eps,b=ab | a=a,b=bab commute=true case=SingularAImage
"""

CLI_CASES = (
    (("check", "a=a,b=bab", "a=a,b=bababab"), "true\n"),
    (
        ("classify", "a=a,b=baab", "a=a,b=baabaab"),
        "case=MultIndependent swapped=false prediction=true "
        "true_conditions=uniform_blocks_same_gap\n",
    ),
    (("omega", "a=aa,b=abaaab", "--len", "30"), "baaabaaaaaaabaaabaaaaaaaaaaaaa\n"),
    (("gaps", "a=aa,b=abaaab", "--upto", "10"), "3 7 3 15 3 7 3 31 3 7\n"),
    (
        ("multdep", "8", "32", "--json"),
        '{"dependent": true, "kind": "dependence", "m": 3, "n": 5, '
        '"p": 8, "q": 32, "r": 2, "schema": 1}\n',
    ),
    (("conjugate", "abb", "bba"), "true\n"),
    (("free", "a=aa,b=bb", "a=aa,b=abb", "--depth", "4"), "none\n"),
    (("examples",), EXAMPLES_OUT),
)

# `python -m trimorph.cli` has no __main__ guard and does nothing, and the
# console script may not be installed, so call its entry point directly.
# The last stderr line reports when the import and main() started and ended
# (perf_counter is system-wide on Linux).
CLI_RUN = """\
import sys, time
t0 = time.perf_counter()
import trimorph.cli
t1 = time.perf_counter()
try:
    trimorph.cli.console_main()
except SystemExit as exc:
    code = exc.code
t2 = time.perf_counter()
sys.stdout.flush()
print("#cli-trace", t0, t1, t2, file=sys.stderr)
sys.exit(code)
"""


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_cli(argv):
    """Run one CLI answer in a fresh interpreter.

    Returns (returncode, stdout, trace) where trace is (t0, t1, t2), or
    None if the interpreter did not report it.
    """
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, *argv],
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    trace = None
    last = proc.stderr.strip().splitlines()[-1:]
    if last and last[0].startswith("#cli-trace"):
        trace = tuple(float(x) for x in last[0].split()[1:])
    return proc.returncode, proc.stdout, trace


class CliWorkload(Workload):
    """A pass runs each of the eight commands once."""

    name = "cli"
    warm_requests = 1

    def __init__(self, rng, tiny: bool):
        self.cli_traces: list[tuple[float, float, float, float, float]] = []
        self.requests = list(range(2 if tiny else len(CLI_CASES)))

    def call(self, req):
        start = time.perf_counter()
        code, out, trace = run_cli(CLI_CASES[req][0])
        if trace is not None:
            self.cli_traces.append((start, time.perf_counter(), *trace))
        return code, out

    def check(self, req, out) -> bool:
        return out == (0, CLI_CASES[req][1])


class Mix(Workload):
    """A traffic mix: the requests of every kind, in one seeded order."""

    def __init__(self, name: str, rng, parts):
        self.name = name
        self.parts = parts
        self.requests = [(i, req) for i, kind in enumerate(parts) for req in kind.requests]
        rng.shuffle(self.requests)

    def call(self, req):
        i, r = req
        return self.parts[i].call(r)

    def check(self, req, out) -> bool:
        i, r = req
        return self.parts[i].check(r, out)

    def warm(self) -> None:
        for kind in self.parts:
            kind.warm()

    def part(self, cls):
        """The part of this mix of the given kind, or None."""
        return next((kind for kind in self.parts if isinstance(kind, cls)), None)


def verdicts(rng, tiny: bool) -> Mix:
    """Commutation verdicts: 132 sweep rows (63,888 pairs) and 154 powers
    pairs."""
    return Mix("verdicts", rng, [SweepWorkload(rng, tiny), PowersWorkload(rng, tiny)])


def structures(rng, tiny: bool) -> Mix:
    """Infinite words, relation searches and CLI answers: 144 gap forms,
    288 relation searches and 8 fresh CLI interpreters."""
    return Mix(
        "structures",
        rng,
        [GapsWorkload(rng, tiny), RelationsWorkload(rng, tiny), CliWorkload(rng, tiny)],
    )


WORKLOADS = {"verdicts": verdicts, "structures": structures}
