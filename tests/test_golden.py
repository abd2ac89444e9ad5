"""Golden report bytes: refactors must leave every report unchanged.

Each case runs ``meanconvex.cli.main`` at a fixed ``--seed`` and compares the
bytes of its JSON report with the file of the same name under
``tests/golden/``. Chain witnesses appear in no CLI report, so the reprs of
``chained_check`` for all 13 corollaries are frozen in ``chains.txt``, and
``classify`` writes no report, so the exit code, stdout and stderr of its
command lines are frozen in ``classify.txt``.

The files were made with numpy 2.4.6 and Python 3.11 on x86-64 Linux. Another
numpy build may move the last digits of a transcendental function, and that
justifies rewriting them (``PYTHONPATH=src python tests/test_golden.py``). So
does a ROADMAP item that changes report bytes on purpose, in a commit of its
own whose CHANGES.md entry names the fields that moved. A refactor never does.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from meanconvex import Interval, SamplePlan, chained_check, identity_weight
from meanconvex.catalog import builtin_claims, builtin_functions
from meanconvex.cli import main
from meanconvex.convexity import FUNCTIONS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = "42"

# (theorem, function, box): the function/box pairs of the audit catalog
THEOREMS = [
    ("AA", "square", ("0.1", "10")),
    ("AG", "cosh", ("0.1", "5")),
    ("AH", "reciprocal", ("0.1", "10")),
    ("GA", "cosh", ("0.1", "5")),
    ("GG", "cosh", ("0.1", "5")),
    ("GH", "cosh", ("1", "4")),
    ("HA", "reciprocal", ("0.1", "10")),
    ("HG", "exp", ("0.1", "5")),
    ("HH", "arctan", ("0.1", "10")),
]

# (argument mean, value mean, function, box, sense)
CLASSES = [
    ("A", "A", "square", ("0.1", "10"), "convex"),
    ("A", "G", "cosh", ("0.1", "5"), "convex"),
    ("A", "H", "reciprocal", ("0.1", "10"), "concave"),
    ("G", "A", "identity", ("0.1", "10"), "convex"),
    ("G", "G", "square", ("0.1", "10"), "convex"),
    ("G", "H", "cosh", ("1", "4"), "concave"),
    ("H", "A", "reciprocal", ("0.1", "10"), "convex"),
    ("H", "G", "exp", ("0.1", "5"), "convex"),
    ("H", "H", "identity", ("0.1", "10"), "convex"),
]

WEIGHTS = [("identity", ()), ("power", ("--weight-param", "2")),
           ("reciprocal", ())]


def report_cases() -> dict[str, list[str]]:
    """Golden file name -> CLI argv (without --json)."""
    cases = {"audit.json": ["audit", "--seed", SEED]}
    for tid, fn, (lo, hi) in THEOREMS:
        for sense in ("convex", "concave"):
            cases[f"verify-theorem-{tid}-{fn}-{sense}.json"] = [
                "verify", "--theorem", tid, "--fn", fn, "--lo", lo, "--hi", hi,
                "--sense", sense, "--seed", SEED]
    for arg, val, fn, (lo, hi), sense in CLASSES:
        for weight, param in WEIGHTS:
            cases[f"verify-class-{arg}{val}-{fn}-{sense}-{weight}{''.join(param[1:])}.json"] = [
                "verify", "--arg", arg, "--val", val, "--fn", fn, "--lo", lo,
                "--hi", hi, "--sense", sense, "--weight", weight, *param,
                "--seed", SEED]
    # the first search shrinks its witness; the second only scans
    cases["search-AA-square-concave.json"] = [
        "search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
        "--budget", "8256", "--seed", SEED]
    cases["search-GH-cosh-convex.json"] = [
        "search", "--theorem", "GH", "--fn", "cosh", "--lo", "1", "--hi", "4",
        "--sense", "convex", "--budget", "8192", "--seed", SEED]
    return cases


# functions run through every corollary besides its catalog pair; each
# produces usable samples on every link, and together they hit every link's
# witness path
CHAIN_FUNCTIONS = ["identity", "square", "sqrt", "cosh", "exp", "reciprocal",
                   "log", "const"]
CHAIN_BOX = Interval(0.1, 5.0, closed_lo=True, closed_hi=True)
CHAIN_PLAN = SamplePlan(grid_axis=13, grid_t=9, n_random=2000, seed=42)


def chain_lines() -> list[str]:
    """One line per chained_check call: corollary, function, report repr."""
    fs = builtin_functions()
    lines = []
    for entry in builtin_claims():
        if entry.kind != "chain":
            continue
        p = entry.payload
        cor = p["corollary"]
        report = chained_check(cor, p["h"], p["f"], SamplePlan(),
                               box=p["box"], enforce_hypotheses=False)
        lines.append(f"{cor} {p['f'].name} catalog: {report!r}")
        for name in CHAIN_FUNCTIONS:
            box = None if name == "log" else CHAIN_BOX
            report = chained_check(cor, identity_weight(), fs[name], CHAIN_PLAN,
                                   box=box, enforce_hypotheses=False)
            lines.append(f"{cor} {name}: {report!r}")
    return lines


# classify runs every built-in function in both modes on these boxes and plans
CLASSIFY_BOXES = [[], ["--lo", "0.1", "--hi", "10"], ["--lo", "1", "--hi", "4"],
                  ["--lo=-3", "--hi", "3"]]
CLASSIFY_PLANS = [[], ["--grid", "7", "--random", "200"]]


def classify_lines() -> list[str]:
    """One line per classify command line: its argv, exit code, stdout and stderr."""
    lines = []
    for name in sorted(FUNCTIONS):
        for mode in ("additive", "multiplicative"):
            for box in CLASSIFY_BOXES:
                for sizes in CLASSIFY_PLANS:
                    argv = ["classify", "--fn", name, "--mode", mode, *box, *sizes,
                            "--seed", SEED]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    lines.append(f"{' '.join(argv)} -> {code} {out.getvalue()!r} "
                                 f"{err.getvalue()!r}")
    return lines


def _report_bytes(argv: list[str], path: str) -> bytes:
    main([*argv, "--json", path])
    with open(path, "rb") as fh:
        return fh.read()


def _golden(name: str, mode: str = "rb"):
    with open(os.path.join(GOLDEN, name), mode) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(report_cases()))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    got = _report_bytes(report_cases()[name], str(tmp_path / name))
    capsys.readouterr()
    assert got == _golden(name)


def test_chain_reprs_match_golden():
    assert chain_lines() == _golden("chains.txt", "r").splitlines()


def test_classify_lines_match_golden():
    assert classify_lines() == _golden("classify.txt", "r").splitlines()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            for name, argv in report_cases().items():
                main([*argv, "--json", os.path.join(GOLDEN, name)])
        finally:
            sys.stdout = stdout
    with open(os.path.join(GOLDEN, "chains.txt"), "w") as fh:
        fh.write("\n".join(chain_lines()) + "\n")
    with open(os.path.join(GOLDEN, "classify.txt"), "w") as fh:
        fh.write("\n".join(classify_lines()) + "\n")
