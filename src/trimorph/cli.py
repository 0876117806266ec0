"""Command line interface.

Morphism arguments use the syntax 'a=<word>,b=<word>' where each word is a
nonempty string over {a,b} or the literal 'eps'; whitespace is ignored.

Exit codes: 0 success (and true for assertions), 1 asserted property false,
2 usage or parse error, a negative sweep bound or --parallel below 1, an
--output file that cannot be written, or a stdout closed before the output
was written (as by `| head`), 3 arithmetic overflow, aborted search
(overflow, or a depth beyond the relation search budget), sweep bounds
beyond the sweep budget, an omega or gaps length beyond its budget, a
check whose composed images may hold more runs than its budget, a
classify beyond its gap budget, or out of memory.

Every call starts a fresh interpreter, so the module imports only argparse,
sys and the words layer at the top.  Each handler imports the modules its
command runs, and json is imported only when records are printed: check,
omega, gaps, multdep, conjugate and free load neither the classifier nor
dataclasses, and only sweep loads the sweep module.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .words import (
    SCHEMA_VERSION,
    BeyondBudget,
    CountOverflow,
    SearchAborted,
    Word,
    a_conjugates,
)

# Commuting pairs exercising each structural mechanism; used by the
# `examples` subcommand and the test suite.
EXAMPLE_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("diagonal-powers", "a=aa,b=bbb", "a=aaaa,b=b"),
    ("complementary-diagonal", "a=a,b=bb", "a=aa,b=b"),
    ("uniform-blocks", "a=a,b=baab", "a=a,b=baabaab"),
    ("shared-root-powers", "a=a,b=bab", "a=a,b=bababab"),
    ("conjugate-images", "a=a,b=abb", "a=a,b=bba"),
    ("erasing-aligned", "a=eps,b=aa", "a=eps,b=aaa"),
    ("block-against-shift", "a=eps,b=ab", "a=a,b=bab"),
)


# A handler returns (record, human line) pairs, the line None where a result
# prints nothing in human mode (or, for gaps, under --json, where records
# replace the lines), and whether it succeeded (exit 0, else 1).
# main sets each record's schema; classify and sweep set the same value.
Results = tuple[list[tuple[dict, str | None]], bool]


def _text(flag: bool) -> str:
    return "true" if flag else "false"


def _check(args) -> Results:
    from .morphisms import first_difference, format_morphism, parse_morphism

    g1 = parse_morphism(args.g1)
    g2 = parse_morphism(args.g2)
    # first_difference walks the runs of g(w) for w the images under the other
    # morphism, and runs(g(w)) <= occ_a(w) runs(g(a)) + occ_b(w) runs(g(b)).
    for name, g, (a_row, b_row) in (("g1 g2", g1, g2.rows), ("g2 g1", g2, g1.rows)):
        bound = sum(a_row) * len(g.image_a.runs) + sum(b_row) * len(g.image_b.runs)
        if bound > MAX_CHECK_RUNS:
            raise BeyondBudget(
                f"the images of {name} may hold {bound} runs, beyond the check budget "
                f"of {MAX_CHECK_RUNS}"
            )
    diff = first_difference(g1, g2)
    commute = diff is None
    record = {
        "kind": "commutation",
        "g1": format_morphism(g1),
        "g2": format_morphism(g2),
        "commute": commute,
    }
    if diff is not None:
        record["first_difference"] = {
            "image": diff.image,
            "position": diff.position,
            "g1g2": diff.g1g2,
            "g2g1": diff.g2g1,
        }
    return [(record, _text(commute))], commute or not args.assert_


def _classify(args) -> Results:
    from .classifier import classify
    from .morphisms import format_morphism, parse_morphism

    g1 = parse_morphism(args.g1)
    g2 = parse_morphism(args.g2)
    report = classify(g1, g2)
    record = report.to_record()
    record["g1"] = format_morphism(g1)
    record["g2"] = format_morphism(g2)
    true_conds = ",".join(k for k, v in report.conditions.items() if v) or "-"
    human = (
        f"case={report.case} swapped={_text(report.swapped)} "
        f"prediction={_text(report.prediction)} true_conditions={true_conds}"
    )
    return [(record, human)], True


# Each budget is sized so that a request at the budget answers within a few
# seconds and 1 GiB of memory on the densest words.
MAX_OMEGA_LEN = 3_000_000
# Runs of the two composed images under one order.  first_difference streams
# both orders side by side in O(runs of the input), about 10 million runs a
# second each on a 2-vCPU host, so a check at the budget walks for about a
# second.
MAX_CHECK_RUNS = 10_000_000


def _omega(args) -> Results:
    from .morphisms import parse_morphism
    from .omega import omega_prefix

    form = parse_morphism(args.h).form
    if args.len > MAX_OMEGA_LEN:
        raise BeyondBudget(f"--len {args.len} exceeds the omega budget of {MAX_OMEGA_LEN}")
    text = omega_prefix(form, args.len).to_text()
    return [({"kind": "omega_prefix", "length": args.len, "word": text}, text)], True


MAX_GAPS = 5_000_000
# The literal expansion builds the shortest prefix with upto + 1 b's and
# reads its upto gaps, so the budget bounds upto alone.
MAX_DIRECT_GAPS = 4_000_000


def _gaps(args) -> Results:
    from .morphisms import parse_morphism
    from .omega import gap_sequence, gap_sequence_direct

    form = parse_morphism(args.h).form
    if args.direct and args.upto > MAX_DIRECT_GAPS:
        raise BeyondBudget(
            f"--upto {args.upto} exceeds the direct gaps budget of {MAX_DIRECT_GAPS}"
        )
    if args.upto > MAX_GAPS:
        raise BeyondBudget(f"--upto {args.upto} exceeds the gaps budget of {MAX_GAPS}")
    values = (gap_sequence_direct if args.direct else gap_sequence)(form, args.upto)
    record = {
        "kind": "gaps",
        "upto": args.upto,
        "source": "direct" if args.direct else "closed",
        "gaps": values,
    }
    # The human line holds one str per gap at once: build it only to print it.
    return [(record, None if args.json else " ".join(str(v) for v in values))], True


def _conjugate(args) -> Results:
    u = Word.parse(args.u)
    v = Word.parse(args.v)
    result = a_conjugates(u, v)
    record = {"kind": "a_conjugacy", "u": u.to_text(), "v": v.to_text(), "conjugate": result}
    return [(record, _text(result))], True


def _multdep(args) -> Results:
    from .numtheory import Dependent, mult_dependence

    dep = mult_dependence(args.p, args.q)
    record = {"kind": "dependence", "p": args.p, "q": args.q}
    if not isinstance(dep, Dependent):
        return [({**record, "dependent": False}, "independent")], True
    record.update(dependent=True, r=dep.r, m=dep.m, n=dep.n)
    return [(record, f"dependent r={dep.r} m={dep.m} n={dep.n}")], True


def _free(args) -> Results:
    from .freeness import DEFAULT_DEPTH, find_relation
    from .morphisms import parse_morphism

    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    rel = find_relation(parse_morphism(args.g1), parse_morphism(args.g2), depth)
    record = {"kind": "relation_search", "depth": depth, "found": rel is not None}
    if rel is None:
        return [(record, "none")], True
    # The sequences are written as digit strings, such as "12".
    left, right = ("".join(map(str, seq)) for seq in (rel.left, rel.right))
    record.update(left=left, right=right)
    return [(record, f"{left} = {right}")], True


# The fields of SweepConfig, which holds their defaults; a test keeps the two
# lists equal.  Naming them here lets the parser leave the sweep unloaded.
SWEEP_BOUNDS = ("max_s", "max_p", "max_exp", "max_bonly_exp", "parallel")


def _sweep(args) -> Results:
    from .sweep import SweepConfig, run_sweep

    given = {name: getattr(args, name) for name in SWEEP_BOUNDS}
    config = SweepConfig(**{name: value for name, value in given.items() if value is not None})
    # SweepConfig has checked the bounds and the pair budget, so a refused
    # sweep leaves --output alone; an unwritable path fails here, before the
    # sweep, with OSError.
    if args.output:
        open(args.output, "w").close()
    result = run_sweep(config)
    cases = " ".join(f"{k}={v}" for k, v in sorted(result.cases.items()))
    human = (
        f"morphisms={result.morphisms} pairs={result.pairs} "
        f"commuting={result.commuting} mismatches={len(result.mismatches)}\n"
        f"cases: {cases}"
    )
    results = [(record, None) for record in result.mismatches]
    results.append((result.summary_record(), human))
    return results, not result.mismatches


def _examples(args) -> Results:
    from .classifier import classify
    from .morphisms import direct_commute, parse_morphism

    results = []
    for name, text1, text2 in EXAMPLE_PAIRS:
        g1 = parse_morphism(text1)
        g2 = parse_morphism(text2)
        commute = direct_commute(g1, g2)
        case = classify(g1, g2).case
        record = dict(kind="example", name=name, g1=text1, g2=text2, commute=commute, case=case)
        results.append((record, f"{name}: {text1} | {text2} commute={_text(commute)} case={case}"))
    return results, all(record["commute"] for record, _ in results)


PAIR = (("g1", {}), ("g2", {}))
# (name, help, arguments as (flag or name, add_argument keywords), handler);
# every subcommand also takes --json.  An option whose default lives in the
# library is None here and resolved by its handler.
COMMANDS = (
    ("check", "oracle commutation test for two morphisms", PAIR + (
        ("--assert", dict(dest="assert_", action="store_true",
                          help="exit 1 when the pair does not commute")),
    ), _check),
    ("classify", "structural case and condition report", PAIR, _classify),
    ("omega", "prefix of the infinite fixed-point word", (
        ("h", {}),
        ("--len", dict(type=int, required=True, help="prefix length")),
    ), _omega),
    ("gaps", "a-gap sequence of the infinite word", (
        ("h", {}),
        ("--upto", dict(type=int, required=True, help="number of gaps")),
        ("--direct", dict(action="store_true", help="read gaps off a literally "
                          "expanded prefix instead of the closed form")),
    ), _gaps),
    ("conjugate", "test whether two words differ only by outer a-padding",
     (("u", {}), ("v", {})), _conjugate),
    ("multdep", "multiplicative dependence of two integers",
     (("p", dict(type=int)), ("q", dict(type=int))), _multdep),
    ("free", "search for a composition relation",
     PAIR + (("--depth", dict(type=int)),), _free),
    ("sweep", "exhaustive prediction-versus-oracle sweep", tuple(
        ("--" + name.replace("_", "-"), dict(type=int)) for name in SWEEP_BOUNDS
    ) + (("--output", dict(help="write mismatch and summary records to this file")),), _sweep),
    ("examples", "run the bundled commuting example pairs", (), _examples),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimorph",
        description="Decide and explain commutativity of upper triangular "
        "morphisms of {a,b}*.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="emit a JSON record")
        p.set_defaults(handler=handler)
    return parser


def _error(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results, ok = args.handler(args)
    # ParseError, NotUpperTriangular, NotApplicable and OmegaUndefined are
    # ValueErrors.
    except (ValueError, OSError) as exc:
        return _error(exc, 2)
    except (CountOverflow, SearchAborted, BeyondBudget) as exc:
        return _error(exc, 3)
    except MemoryError:
        return _error("out of memory", 3)
    # --output (sweep only) sends the records to a file and the human
    # summary to stdout, whether or not --json is given.
    output = getattr(args, "output", None)
    lines: list[str | None] = [human for _, human in results]
    if args.json or output:
        import json

        records = [json.dumps({"schema": SCHEMA_VERSION, **rec}, sort_keys=True) for rec, _ in results]
        if output:
            try:
                with open(output, "w") as sink:  # closing flushes, so a full disk fails here too
                    sink.write("\n".join(records) + "\n")
            except OSError as exc:
                return _error(exc, 2)
        else:
            lines = records
    try:
        for line in lines:
            if line is not None:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point the rest at os.devnull, so that
        # the flush at exit does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error("stdout was closed before the output was written", 2)
    return 0 if ok else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
