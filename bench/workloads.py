"""Request mixes of the three benchmark workloads and the checks on their output.

A workload is a cycle of cases. Each case is one ``meanconvex`` command line
(without ``--seed`` and ``--json``), the exit code it must end with, and a
check that reads what the command printed and wrote. The benchmark repeats
whole cycles in a seeded order, so every run sees the same mix.

The checks do not trust the verdict: every witness in a JSON report is
replayed through the public scalar function (``popoviciu_sides`` for a
theorem, ``defining_gap`` for a class), must reproduce the reported sides and
must violate the claimed direction by more than ``tol``.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from meanconvex import cli
from meanconvex.catalog import make_function
from meanconvex.convexity import ConvexitySpec, defining_gap
from meanconvex.errors import MeanConvexError
from meanconvex.means import MeanKind
from meanconvex.popoviciu import BASE_SENSE, TheoremId, popoviciu_sides
from meanconvex.weights import WEIGHT_BUILDERS

# Theorems whose sides are products; they are compared in log domain.
PRODUCT_THEOREMS = {"AG", "GG", "HG"}

# Relative agreement required between a replayed side and the reported one.
REPLAY_RTOL = 1e-12

AUDIT_ENTRIES = 52

SCAN_BATCH = 8192  # points per scan batch of ``meanconvex search``
SHRINK_TRIALS = 4096  # one-point shrink trials of a search that uses its budget


class CheckError(Exception):
    """A command's output failed a benchmark check."""


@dataclass(frozen=True)
class Case:
    label: str
    argv: tuple[str, ...]
    expected_exit: int
    # check(stdout, json report or None) -> sampled points; raises CheckError
    check: Callable[[str, Optional[dict]], int]


@dataclass
class Outcome:
    case: Case
    exit_code: Optional[int]
    seconds: float
    samples: int
    payload: Optional[dict]
    problem: Optional[str]  # None when every check passed

    @property
    def ok(self) -> bool:
        return self.problem is None


# --------------------------------------------------------------------------
# Witness replay.

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _same(replayed: float, reported: float, what: str) -> None:
    _expect(math.isclose(replayed, reported, rel_tol=REPLAY_RTOL, abs_tol=1e-300),
            f"replayed {what} {replayed!r} differs from reported {reported!r}")


def _violates(lhs: float, rhs: float, forward: bool, log_domain: bool,
              tol: float, where: str) -> None:
    """lhs <= rhs is claimed (or the reverse when not forward)."""
    if log_domain:
        lhs, rhs = math.log(lhs), math.log(rhs)
    margin = (rhs - lhs) if forward else (lhs - rhs)
    rel = margin / max(1.0, abs(lhs), abs(rhs))
    _expect(rel < -tol, f"witness {where} does not violate by more than tol "
                        f"(relative margin {rel!r}, tol {tol!r})")


def _weight(name: str, param: Optional[str]):
    builder = WEIGHT_BUILDERS[name]
    return builder(float(param)) if param is not None else builder()


def _replay_theorem(tid: str, fn: str, weight: str, param: Optional[str],
                    sense: str, w: dict, tol: float) -> None:
    theorem = TheoremId(tid)
    lhs, rhs = popoviciu_sides(theorem, _weight(weight, param),
                               make_function(fn), w["x"], w["y"], w["z"])
    where = f"({w['x']!r}, {w['y']!r}, {w['z']!r})"
    _same(lhs, w["lhs"], f"lhs at {where}")
    _same(rhs, w["rhs"], f"rhs at {where}")
    _violates(lhs, rhs, sense == BASE_SENSE[theorem], tid in PRODUCT_THEOREMS,
              tol, where)


def _replay_class(arg: str, val: str, fn: str, weight: str,
                  param: Optional[str], sense: str, w: dict, tol: float) -> None:
    spec = ConvexitySpec(MeanKind(arg), MeanKind(val), _weight(weight, param),
                         sense)
    lhs, rhs = defining_gap(spec, make_function(fn), w["x"], w["y"], w["t"])
    where = f"(x={w['x']!r}, y={w['y']!r}, t={w['t']!r})"
    _same(lhs, w["lhs"], f"lhs at {where}")
    _same(rhs, w["rhs"], f"rhs at {where}")
    _violates(lhs, rhs, sense == "convex", False, tol, where)


def _check_verify(replay, expected_samples: int):
    def check(stdout: str, payload: Optional[dict]) -> int:
        _expect(payload is not None, "no JSON report written")
        witnesses = payload["witnesses"]
        _expect((payload["verdict"] == "refuted") == bool(witnesses),
                f"verdict {payload['verdict']!r} with {len(witnesses)} witnesses")
        tol = payload["config"]["tol"]
        for w in witnesses:
            replay(w, tol)
        drawn = payload["samples"] + payload["skipped"]
        _expect(drawn == expected_samples,
                f"{drawn} samples drawn, plan has {expected_samples}")
        return drawn
    return check


_FOUND = re.compile(r"\((\d+) evaluations\)")
_NOT_FOUND = re.compile(r"within (\d+) evaluations")


def _check_search(tid: str, fn: str, sense: str, budget: int, finds: bool):
    def check(stdout: str, payload: Optional[dict]) -> int:
        if not finds:
            _expect(payload is None, "JSON report written without a violation")
            m = _NOT_FOUND.search(stdout)
            _expect(m is not None, "no evaluation count printed")
            used = int(m.group(1))
            _expect(used == budget, f"scanned {used} of budget {budget}")
            return used
        _expect(payload is not None, "no JSON report written")
        tol = payload["config"]["tol"]
        _expect(payload["verdict"] == "refuted", "verdict is not refuted")
        _expect(payload["min_margin"] < -tol,
                f"min_margin {payload['min_margin']!r} is not below -tol")
        _expect(len(payload["witnesses"]) == 1, "expected one witness")
        _replay_theorem(tid, fn, "identity", None, sense,
                        payload["witnesses"][0], tol)
        m = _FOUND.search(stdout)
        _expect(m is not None, "no evaluation count printed")
        used = int(m.group(1))
        _expect(used == payload["samples"],
                f"printed {used} evaluations, report says {payload['samples']}")
        return used
    return check


def _check_audit(stdout: str, payload: Optional[dict]) -> int:
    _expect(payload is not None, "no JSON report written")
    findings = payload["findings"]
    _expect(payload["entries"] == len(findings) == AUDIT_ENTRIES,
            f"{payload['entries']} entries reported, {AUDIT_ENTRIES} expected")
    _expect(payload["disagreements"] == 0,
            f"{payload['disagreements']} disagreement(s)")
    bad = [fd["key"] for fd in findings if not fd["agree"]]
    _expect(not bad, f"findings disagree: {bad}")
    return sum(fd["samples"] + fd["skipped"] for fd in findings)


# --------------------------------------------------------------------------
# The mixes. Exit codes: 0 holds (search: violation found), 1 refuted
# (search: none found). Each holds for every seed of the default plan.

GRID, GRID_T, RANDOM = 33, 17, 10_000  # the CLI's default plan
TRIPLES = GRID**3 + RANDOM
PAIRS = GRID**2 * GRID_T + RANDOM

# (theorem, function, box, exit code in convex sense, in concave sense);
# the function/box pairs of the audit catalog. GH on cosh over [1, 4] is
# refuted in both senses: cosh is not GH-concave there.
THEOREMS = [
    ("AA", "square", ("0.1", "10"), 0, 1),
    ("AG", "cosh", ("0.1", "5"), 0, 1),
    ("AH", "reciprocal", ("0.1", "10"), 0, 0),
    ("GA", "cosh", ("0.1", "5"), 0, 1),
    ("GG", "cosh", ("0.1", "5"), 0, 1),
    ("GH", "cosh", ("1", "4"), 1, 1),
    ("HA", "reciprocal", ("0.1", "10"), 0, 0),
    ("HG", "exp", ("0.1", "5"), 0, 1),
    ("HH", "arctan", ("0.1", "10"), 1, 0),
]

WEIGHTS = [("identity", None), ("power", "2"), ("reciprocal", None)]

# (argument mean, value mean, function, box, sense, exit code per WEIGHTS)
CLASSES = [
    ("A", "A", "square", ("0.1", "10"), "convex", (0, 1, 0)),
    ("A", "G", "cosh", ("0.1", "5"), "convex", (0, 1, 0)),
    ("A", "H", "reciprocal", ("0.1", "10"), "concave", (0, 1, 0)),
    ("G", "A", "identity", ("0.1", "10"), "convex", (0, 1, 0)),
    ("G", "G", "square", ("0.1", "10"), "convex", (0, 1, 1)),
    ("G", "H", "cosh", ("1", "4"), "concave", (1, 1, 0)),
    ("H", "A", "reciprocal", ("0.1", "10"), "convex", (0, 1, 0)),
    ("H", "G", "exp", ("0.1", "5"), "convex", (0, 1, 0)),
    ("H", "H", "identity", ("0.1", "10"), "convex", (0, 0, 1)),
]


def _weight_argv(weight: str, param: Optional[str]) -> tuple[str, ...]:
    return ("--weight", weight) + (("--weight-param", param) if param else ())


def verify_sweep(tiny: bool = False) -> list[Case]:
    cases = []
    for tid, fn, (lo, hi), *codes in THEOREMS:
        for sense, code in zip(("convex", "concave"), codes):
            replay = partial(_replay_theorem, tid, fn, "identity", None, sense)
            cases.append(Case(
                f"verify {tid} {fn} {sense}",
                ("verify", "--theorem", tid, "--fn", fn, "--lo", lo, "--hi", hi,
                 "--sense", sense),
                code, _check_verify(replay, TRIPLES)))
    for arg, val, fn, (lo, hi), sense, codes in CLASSES:
        for (weight, param), code in zip(WEIGHTS, codes):
            replay = partial(_replay_class, arg, val, fn, weight, param, sense)
            cases.append(Case(
                f"verify {arg}{val} {fn} {sense} {weight}",
                ("verify", "--arg", arg, "--val", val, "--fn", fn, "--lo", lo,
                 "--hi", hi, "--sense", sense, *_weight_argv(weight, param)),
                code, _check_verify(replay, PAIRS)))
    if tiny:  # one theorem and one class each way
        keep = {"verify AA square convex", "verify GH cosh concave",
                "verify AA square convex identity", "verify AA square convex power"}
        cases = [c for c in cases if c.label in keep]
    return cases


def audit(tiny: bool = False) -> list[Case]:
    return [Case("audit", ("audit",), 0, _check_audit)]


def search(tiny: bool = False) -> list[Case]:
    """Shrinking searches outnumber scan-only ones, so the median latency is
    a shrinking search and the tail is the slowest shrink (AA square)."""
    shrink_budget = SCAN_BATCH + (64 if tiny else SHRINK_TRIALS)
    # (theorem, sense, function, box, budget, finds a violation, copies)
    table = [
        ("AA", "concave", "square", None, shrink_budget, True, 3),
        ("GH", "concave", "cosh", ("1", "4"), shrink_budget, True, 2),
        ("GH", "convex", "cosh", ("1", "4"), SCAN_BATCH, True, 1),
        ("AA", "convex", "square", None, 4 * SCAN_BATCH, False, 1),
    ]
    cases = []
    for tid, sense, fn, box, budget, finds, copies in table:
        box_argv = ("--lo", box[0], "--hi", box[1]) if box else ()
        kind = "shrink" if budget > SCAN_BATCH and finds else "scan"
        case = Case(f"search {tid} {fn} {sense} ({kind})",
                    ("search", "--theorem", tid, "--sense", sense, "--fn", fn,
                     *box_argv, "--budget", str(budget)),
                    0 if finds else 1,
                    _check_search(tid, fn, sense, budget, finds))
        cases += [case] * (1 if tiny else copies)
    return cases


WORKLOADS = {"verify-sweep": verify_sweep, "audit": audit, "search": search}


# --------------------------------------------------------------------------
# Running requests.

def cycles(cases: list[Case], seed: int, purpose: str):
    """Endless stream of whole cycles: each case once per copy, in a seeded
    order, each request with its own seeded ``--seed``."""
    rng = random.Random(f"{seed}:{purpose}")
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield [(case, rng.randrange(2**31)) for case in order]


def run_request(case: Case, seed: int, json_path: str, tracer=None) -> Outcome:
    """One closed-loop request through ``meanconvex.cli.main``; only the call
    itself is timed. The checks run after it."""
    argv = [*case.argv, "--seed", str(seed), "--json", json_path]
    if os.path.exists(json_path):
        os.remove(json_path)
    out = io.StringIO()
    code, problem = None, None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.begin_request()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # any other crash is a failed request
            problem = traceback.format_exc().strip().splitlines()[-1]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_request(t0, t1)
    payload, samples = None, 0
    if problem is None and code != case.expected_exit:
        problem = f"exit code {code}, expected {case.expected_exit}"
    if problem is None:
        try:
            if os.path.exists(json_path):
                with open(json_path) as fh:
                    payload = json.load(fh)
            samples = case.check(out.getvalue(), payload)
        except (CheckError, MeanConvexError, KeyError, ValueError,
                TypeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        print(f"FAILED {case.label} --seed {seed}: {problem}", file=sys.stderr)
    return Outcome(case, code, t1 - t0, samples, payload, problem)


def closed_loop(stream, json_path: str, seconds: float = 0.0,
                n_cycles: Optional[int] = None, tracer=None) -> list[list[Outcome]]:
    """Run whole cycles from ``stream``: exactly ``n_cycles`` of them, or else
    at least one and until ``seconds`` have passed. Returns the outcomes of
    each cycle."""
    done = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if n_cycles is not None:
            return len(done) < n_cycles
        return not done or time.perf_counter() < deadline

    while more():
        cycle = []
        for case, seed in next(stream):
            outcome = run_request(case, seed, json_path, tracer)
            if tracer is not None:
                tracer.record(outcome)
            outcome.payload = None  # keep the harness's own memory flat
            cycle.append(outcome)
        done.append(cycle)
    return done
