from __future__ import annotations

import ast
import dataclasses
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trimorph
from trimorph import cli, sweep
from trimorph.cli import EXAMPLE_PAIRS, main
from trimorph.freeness import MAX_DEPTH
from trimorph.words import MAX_COUNT

SRC = Path(trimorph.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_human_true(capsys):
    code, out, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=b")
    assert code == 0
    assert out.strip() == "true"


def test_check_human_false(capsys):
    code, out, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=ab")
    assert code == 0
    assert out.strip() == "false"


def test_check_assert_exit_code(capsys):
    code, _, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=ab", "--assert")
    assert code == 1
    code, _, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=b", "--assert")
    assert code == 0


def test_check_json_record(capsys):
    code, out, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=b", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "schema": 1,
        "kind": "commutation",
        "g1": "a=a,b=bb",
        "g2": "a=aa,b=b",
        "commute": True,
    }


def test_check_json_record_names_the_first_difference(capsys):
    # g1 g2 (b) = abb and g2 g1 (b) = abab differ at their third letter.
    code, out, _ = run(capsys, "check", "a=a,b=bb", "a=aa,b=ab", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "kind": "commutation",
        "g1": "a=a,b=bb",
        "g2": "a=aa,b=ab",
        "commute": False,
        "first_difference": {"image": "b", "position": 2, "g1g2": "b", "g2g1": "a"},
    }
    # g1 g2 (b) = b ends where g2 g1 (b) = ba goes on.
    code, out, _ = run(capsys, "check", "a=eps,b=b", "a=a,b=ba", "--json")
    assert json.loads(out)["first_difference"] == {
        "image": "b", "position": 1, "g1g2": None, "g2g1": "a"
    }


def test_classify_json_record(capsys):
    code, out, _ = run(capsys, "classify", "a=a,b=baab", "a=a,b=baabaab", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "classification"
    assert record["case"] == "MultIndependent"
    assert record["conditions"]["uniform_blocks_same_gap"] is True
    assert record["prediction"] is True
    assert record["witness"] == {"alpha": 2}


def test_classify_human_line(capsys):
    code, out, _ = run(capsys, "classify", "a=a,b=bb", "a=aa,b=ab")
    assert code == 0
    assert "case=" in out and "prediction=false" in out


def test_omega_prefix(capsys):
    code, out, _ = run(capsys, "omega", "a=a,b=bab", "--len", "7")
    assert code == 0
    assert out.strip() == "bababab"
    assert run(capsys, "omega", "a=a,b=bab", "--len", "0")[:2] == (0, "eps\n")


def test_omega_json(capsys):
    code, out, _ = run(capsys, "omega", "a=a,b=bab", "--len", "5", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {"schema": 1, "kind": "omega_prefix", "length": 5, "word": "babab"}


def test_gaps_closed_and_direct_agree(capsys):
    code, closed, _ = run(capsys, "gaps", "a=aa,b=abaaab", "--upto", "40")
    assert code == 0
    code, direct, _ = run(capsys, "gaps", "a=aa,b=abaaab", "--upto", "40", "--direct")
    assert code == 0
    assert closed == direct


def test_gaps_direct_budget_bounds_upto_not_the_bs_of_the_image(capsys):
    # 1000 b's in h(b) times 4001 gaps passes the budget, but the expansion
    # reads fewer than 4001 + 1000 gaps.
    h = "a=a,b=" + "ba" * 999 + "b"
    code, direct, _ = run(capsys, "gaps", h, "--upto", "4001", "--direct")
    assert code == 0
    code, closed, _ = run(capsys, "gaps", h, "--upto", "4001")
    assert code == 0
    assert direct == closed and len(direct.split()) == 4001


def test_gaps_json_record(capsys):
    code, out, _ = run(capsys, "gaps", "a=a,b=babaab", "--upto", "6", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "gaps"
    assert record["source"] == "closed"
    assert record["gaps"][0] == 1
    assert record["gaps"][5] == 2
    # The human line holds one str per gap at once: under --json, where it
    # is not printed, it is not built.
    args = cli.build_parser().parse_args(["gaps", "a=a,b=babaab", "--upto", "6", "--json"])
    [(_, line)], _ = cli._gaps(args)
    assert line is None


def test_conjugate(capsys):
    code, out, _ = run(capsys, "conjugate", "abba", "bbaa")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "conjugate", "abba", "baba")
    assert code == 0
    assert out.strip() == "false"


def test_multdep_dependent(capsys):
    code, out, _ = run(capsys, "multdep", "8", "4", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["dependent"] is True
    assert (record["r"], record["m"], record["n"]) == (2, 3, 2)


def test_multdep_independent(capsys):
    code, out, _ = run(capsys, "multdep", "2", "3")
    assert code == 0
    assert out.strip() == "independent"


def test_multdep_beyond_64_bits_exits_three(capsys):
    # 3^67 is dependent with 3, but its exponent is past the primes below 64.
    for p in (3**67, MAX_COUNT + 1):
        code, out, err = run(capsys, "multdep", str(p), "3")
        assert (code, out) == (3, "")
        assert err == f"error: {p} exceeds the 64-bit bound\n"
    code, out, _ = run(capsys, "multdep", str(MAX_COUNT), "3")
    assert (code, out) == (0, "independent\n")


def test_free_none(capsys):
    code, out, _ = run(capsys, "free", "a=aa,b=bb", "a=aa,b=abb", "--depth", "4")
    assert code == 0
    assert out.strip() == "none"


def test_free_found(capsys):
    cases = (
        (("a=a,b=bb", "a=aa,b=b"),
         {"schema": 1, "kind": "relation_search", "depth": 6, "found": True,
          "left": "12", "right": "21"}),
        (("a=aa,b=bb", "a=aa,b=abb", "--depth", "4"),
         {"schema": 1, "kind": "relation_search", "depth": 4, "found": False}),
    )
    for argv, expected in cases:
        code, out, _ = run(capsys, "free", *argv, "--json")
        assert code == 0
        record = json.loads(out)
        assert record["found"] is expected["found"]
        assert record == expected


def test_sweep_human_summary(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--max-s", "1", "--max-p", "1", "--max-exp", "1", "--max-bonly-exp", "1",
    )
    assert code == 0
    assert out == (
        "morphisms=12 pairs=144 commuting=68 mismatches=0\n"
        "cases: BothGapOne=16 SingularAImage=48 SingularBImage=80\n"
    )


def test_sweep_json_output_file(capsys, tmp_path):
    path = tmp_path / "sweep.jsonl"
    code, _, _ = run(
        capsys,
        "sweep",
        "--max-s", "1", "--max-p", "1", "--max-exp", "1", "--max-bonly-exp", "1",
        "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["kind"] == "sweep_summary"
    assert summary["mismatches"] == 0
    assert len(lines) == 1 + summary["mismatches"]


def test_examples_all_commute(capsys):
    code, out, _ = run(capsys, "examples", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == len(EXAMPLE_PAIRS)
    assert all(r["commute"] for r in records)
    assert {r["kind"] for r in records} == {"example"}


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "check", "a=c,b=b", "a=a,b=b")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_omega_rejects_nontriangular(capsys):
    code, _, err = run(capsys, "omega", "a=ba,b=b", "--len", "5")
    assert code == 2
    assert "error:" in err


def test_omega_undefined_exits_two(capsys):
    code, _, err = run(capsys, "omega", "a=a,b=ab", "--len", "5")
    assert code == 2
    assert "error:" in err


def test_negative_upto_exits_two(capsys):
    code, _, _ = run(capsys, "gaps", "a=a,b=bab", "--upto", "-1")
    assert code == 2


def test_aborted_search_exits_three(capsys):
    huge = "a=" + "a" * 2048 + ",b=b"
    code, _, err = run(capsys, "free", huge, "a=a,b=ab", "--depth", "6")
    assert code == 3
    assert "error:" in err


def test_free_depth_beyond_budget_exits_three(capsys):
    # The search would keep 2^40 prefixes; the budget refuses it at once.
    code, out, err = run(capsys, "free", "a=a,b=bab", "a=aa,b=b", "--depth", "40")
    assert (code, out) == (3, "")
    assert err == f"error: depth 40 exceeds the search budget of {MAX_DEPTH}\n"


def test_sweep_beyond_budget_exits_three_before_enumerating(capsys, monkeypatch):
    def no_enumeration(config):
        raise AssertionError("a sweep beyond the budget was enumerated")

    monkeypatch.setattr(sweep, "enumerate_morphisms", no_enumeration)
    code, out, err = run(capsys, "sweep", "--max-p", "30")
    assert (code, out) == (3, "")
    budget = sweep.MAX_PAIRS
    assert err == f"error: the sweep bounds give more than {budget} pairs, the sweep budget\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--max-s", "-1"), "max_s must be at least 0, got -1"),
        (("--max-exp", "-2", "--parallel", "2"), "max_exp must be at least 0, got -2"),
        (("--parallel", "0"), "parallel must be at least 1, got 0"),
    ],
)
def test_sweep_out_of_range_bounds_exit_two(capsys, monkeypatch, argv, message):
    def no_enumeration(config):
        raise AssertionError("a sweep with out-of-range bounds was enumerated")

    monkeypatch.setattr(sweep, "enumerate_morphisms", no_enumeration)
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, code",
    [(("--max-s", "-1"), 2), (("--max-p", "30"), 3)],
    ids=["negative-bound", "beyond-budget"],
)
def test_refused_sweep_leaves_output_alone(capsys, tmp_path, argv, code):
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"keep\n")
    new = tmp_path / "new.jsonl"
    for path in (kept, new):
        assert run(capsys, "sweep", *argv, "--output", str(path))[0] == code
    assert kept.read_bytes() == b"keep\n"
    assert not new.exists()


def test_classify_compares_gaps_of_2_pow_12_and_2_pow_13_bs(capsys):
    # Images of b with 2^12 and 2^13 b's, whose powers agree outside but not
    # in their gaps: classify compares each gap class once and answers.
    g1, g2 = "a=a,b=" + "ba" * 4095 + "ab", "a=a,b=" + "ba" * 8191 + "b"
    code, out, err = run(capsys, "classify", g1, g2)
    assert (code, err) == (0, "")
    assert out == "case=MultDependent swapped=false prediction=false true_conditions=-\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("omega", "a=aaa,b=babab", "--len", str(cli.MAX_OMEGA_LEN + 1)),
            f"--len {cli.MAX_OMEGA_LEN + 1} exceeds the omega budget of {cli.MAX_OMEGA_LEN}",
        ),
        (
            ("gaps", "a=aaa,b=babab", "--upto", str(cli.MAX_GAPS + 1)),
            f"--upto {cli.MAX_GAPS + 1} exceeds the gaps budget of {cli.MAX_GAPS}",
        ),
        (
            ("gaps", "a=aaa,b=babab", "--direct", "--upto", str(cli.MAX_DIRECT_GAPS + 1)),
            f"--upto {cli.MAX_DIRECT_GAPS + 1} exceeds the direct gaps budget of "
            f"{cli.MAX_DIRECT_GAPS}",
        ),
        (
            # g1 g2 (b) holds 20002 copies of g1(b), of 40001 runs each; the
            # pair commutes, so the oracle would walk them all.
            ("check", "a=a,b=" + "ba" * 20000 + "b", "a=a,b=" + "ba" * 20001 + "b"),
            "the images of g1 g2 may hold 800120004 runs, beyond the check budget of "
            f"{cli.MAX_CHECK_RUNS}",
        ),
    ],
    ids=["omega-len", "gaps-upto", "gaps-direct-upto", "check-runs"],
)
def test_expansion_beyond_budget_exits_three_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_sweep_flags_are_the_fields_of_sweep_config():
    # The parser names the bounds itself, so that it need not import the
    # sweep; the defaults stay in SweepConfig alone.
    assert cli.SWEEP_BOUNDS == tuple(f.name for f in dataclasses.fields(sweep.SweepConfig))


@pytest.fixture
def sweep_configs(monkeypatch):
    """The configs that sweep commands pass to run_sweep, which stops each
    with OSError, so that the command exits 2 before any work."""
    configs = []

    def record_config(config):
        configs.append(config)
        raise OSError("stop")

    monkeypatch.setattr(sweep, "run_sweep", record_config)
    return configs


def test_sweep_without_flags_takes_the_config_defaults(sweep_configs, capsys):
    assert run(capsys, "sweep")[0] == 2
    assert run(capsys, "sweep", "--max-p", "2", "--parallel", "2")[0] == 2
    assert sweep_configs == [sweep.SweepConfig(), sweep.SweepConfig(max_p=2, parallel=2)]


def test_long_workflow_sweeps_fit_the_pair_budget(sweep_configs, capsys):
    # The weekly workflow runs only on the CI host, so a budget that
    # refused one of its sweeps with exit 3 would show nowhere else.
    workflow = README.parent / ".github" / "workflows" / "long.yml"
    for line in workflow.read_text().splitlines():
        if line.strip().startswith("run:") and " sweep " in line:
            env, python, flag, module, *argv = shlex.split(line.strip().removeprefix("run:"))
            assert (env, python, flag, module) == ("PYTHONPATH=src", "python", "-m", "trimorph.cli")
            assert run(capsys, *argv)[0] == 2
    counts = [config.pair_count() for config in sweep_configs]
    assert counts == [2_119_936, 4_177_936]
    assert max(counts) <= sweep.MAX_PAIRS


def test_unwritable_output_exits_two_before_sweeping(capsys, tmp_path, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep ran before the output file was opened")

    monkeypatch.setattr(sweep, "run_sweep", no_sweep)
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "sweep", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def child_env() -> dict:
    """The environment of a fresh interpreter that imports trimorph from src."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run_module(*argv, preexec_fn=None):
    """Run `python -m trimorph.cli` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "trimorph.cli", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=preexec_fn,
    )


def test_module_entry_point_runs_main():
    proc = run_module("check", "a=a,b=bb", "a=aa,b=ab")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "false\n", "")


def test_a_closed_stdout_exits_2_without_a_traceback():
    # The 3 MB line is far past a pipe's buffer, so once the reader closes
    # its end the write is certain to fail.
    with subprocess.Popen(
        [sys.executable, "-m", "trimorph.cli", "omega", "a=a,b=bab", "--len", "3000000"],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"bababababa"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only a parallel sweep needs multiprocessing; every other call skips
    # importing it.
    code = (
        "import sys, trimorph.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def loaded_modules(code: str) -> dict:
    """Run code in a fresh interpreter and return what it prints last: a
    literal naming the modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    code = "import sys, trimorph; print(sorted(m for m in sys.modules if m.startswith('trimorph.')))"
    assert loaded_modules(code) == []


# What every command but classify, sweep and examples leaves unloaded; check
# runs the oracle, which lives next to apply in morphisms.
LIGHT = ("dataclasses", "trimorph.classifier", "trimorph.sweep")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("omega", "a=aa,b=abaaab", "--len", "30"), LIGHT),
        (("gaps", "a=aa,b=abaaab", "--upto", "10", "--direct"), LIGHT),
        (("multdep", "8", "32", "--json"), LIGHT),
        (("conjugate", "abb", "bba"), LIGHT),
        (("free", "a=aa,b=bb", "a=aa,b=abb", "--depth", "4"), LIGHT),
        (("check", "a=a,b=bab", "a=a,b=bababab"), LIGHT + ("trimorph.omega", "trimorph.numtheory")),
    ],
    ids=["omega", "gaps", "multdep", "conjugate", "free", "check"],
)
def test_each_command_loads_only_what_it_runs(argv, unloaded):
    # dataclasses counts only when the interpreter had not loaded it before
    # trimorph did.
    code = (
        "import sys; before = set(sys.modules); from trimorph.cli import main; "
        f"code = main({list(argv)!r}); "
        "print({'code': code, 'loaded': sorted(set(sys.modules) - before)})"
    )
    result = loaded_modules(code)
    assert result["code"] == 0
    assert sorted(set(unloaded) & set(result["loaded"])) == []


def test_out_of_memory_exits_three():
    # a -> a, b -> (ba)^n b commute for every n, so (1, 2) and (2, 1) share
    # their matrix and their fingerprint, and the search composes both to
    # confirm the relation: images of about 10^8 b's, which outgrow a 1 GiB
    # address-space limit (set in the child only).
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    g1 = "a=a,b=" + "ba" * 9999 + "b"
    g2 = "a=a,b=" + "ba" * 9998 + "b"
    proc = run_module("free", g1, g2, "--depth", "2", preexec_fn=limit_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def test_omega_at_the_budget_fits_in_one_gib():
    # h(v) holds 1,998,000 letters and h^2(v) about 4 * 10^9, in runs of one:
    # only the part of h(v) whose image ends the prefix may be expanded.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    h = "a=a,b=" + "ba" * 999 + "b"
    proc = run_module("omega", h, "--len", str(cli.MAX_OMEGA_LEN), preexec_fn=limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    word = proc.stdout.removesuffix("\n")
    assert len(word) == cli.MAX_OMEGA_LEN and set(word) == {"a", "b"}
    assert word.startswith("b" + "ab" * 999 + "a" + "ba" * 999 + "b")


def readme_transcript():
    """(argv, expected stdout) for each `$ trimorph ...` line of the README's
    command line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    cases = []
    for line in block.strip("\n").splitlines():
        if line.startswith("$ "):
            prog, *argv = shlex.split(line[2:])
            assert prog == "trimorph"
            cases.append((argv, []))
        else:
            cases[-1][1].append(line + "\n")
    return [pytest.param(argv, "".join(out), id=argv[0]) for argv, out in cases]


@pytest.mark.parametrize("argv, expected", readme_transcript())
def test_readme_transcript(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")
