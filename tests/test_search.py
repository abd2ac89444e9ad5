"""The witness shrink of ``meanconvex search``.

The reference below is the per-trial shrink loop that ran passes until the
budget was gone, with the budget checked before every trial. A pass depends
only on the witness, so once a pass leaves it unchanged every later pass
repeats that pass: ``search`` must stop there with the same witness and
margin, after no more evaluations than the reference.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from meanconvex import cli
from meanconvex.catalog import builtin_functions
from meanconvex.intervals import Interval
from meanconvex.popoviciu import TheoremId, theorem_margins
from meanconvex.weights import DEFAULT_TOL, identity_weight

# (label, theorem, function, sense, box)
CASES = [
    ("AA-square-concave", "AA", "square", "concave", None),
    ("GH-cosh-concave", "GH", "cosh", "concave", ("1", "4")),
]
BUDGETS = [8256, 12_288, 100_000]
SEEDS = range(1, 21)
EVALUATIONS = re.compile(r"\((\d+) evaluations\)")


def reference_search(tid, fn, sense, box, seed, budget, margin):
    """Scan, then shrink pass after pass until the budget is gone.

    ``margin(x, y, z)`` is the one-point relative margin. Returns the witness,
    the evaluations used, and the count at the end of the first whole pass
    that left the witness unchanged (None if no such pass ran).
    """
    f = builtin_functions()[fn]
    dom = f.sampling_domain(None if box is None else
                            Interval(float(box[0]), float(box[1]),
                                     closed_lo=True, closed_hi=True))
    lo, hi = dom.sampling_bounds()
    rng = np.random.default_rng(seed)
    best, used = None, 0
    while used < budget and best is None:
        n = min(8192, budget - used)
        x, y, z = rng.uniform(lo, hi, size=(3, n))
        used += n
        margins = theorem_margins(TheoremId(tid), identity_weight(), f,
                                  x, y, z, sense)
        bad = margins < -DEFAULT_TOL
        if bad.any():
            idx = np.flatnonzero(bad)
            norms = np.maximum.reduce([np.abs(x[idx]), np.abs(y[idx]),
                                       np.abs(z[idx])])
            i = idx[int(np.argmin(norms))]
            best = [float(x[i]), float(y[i]), float(z[i])]
    assert best is not None, "the reference scan found no violation"
    stalled = None
    while used < budget:
        start, whole = list(best), True
        improved = False
        for i in range(3):
            for step in (0.5, 0.8, 0.95):
                if used >= budget:
                    whole = False
                    break
                trial = list(best)
                trial[i] = lo + step * (trial[i] - lo)
                used += 1
                if margin(*trial) < -DEFAULT_TOL:
                    best = trial
                    improved = True
                    break
        if whole and best == start and stalled is None:
            stalled = used
        if not improved:
            break
    return best, used, stalled


def _search(tmp_path, tid, fn, sense, box, seed, budget, capsys):
    path = tmp_path / "search.json"
    box_argv = ["--lo", box[0], "--hi", box[1]] if box else []
    code = cli.main(["search", "--theorem", tid, "--fn", fn, "--sense", sense,
                     *box_argv, "--budget", str(budget), "--seed", str(seed),
                     "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    printed = int(EVALUATIONS.search(out).group(1))
    return json.loads(path.read_text()), printed


@pytest.mark.parametrize("label,tid,fn,sense,box", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", SEEDS)
def test_shrink_matches_reference(label, tid, fn, sense, box, seed, tmp_path,
                                  capsys):
    f, h = builtin_functions()[fn], identity_weight()
    cache = {}  # margins are a pure function of the point: reuse them

    def margin(x, y, z):
        key = (x, y, z)
        if key not in cache:
            cache[key] = float(theorem_margins(
                TheoremId(tid), h, f, np.array([x]), np.array([y]),
                np.array([z]), sense)[0])
        return cache[key]

    saved = []
    for budget in BUDGETS:
        best, used, stalled = reference_search(tid, fn, sense, box, seed,
                                               budget, margin)
        doc, printed = _search(tmp_path, tid, fn, sense, box, seed, budget,
                               capsys)
        w = doc["witnesses"][0]
        assert [w["x"], w["y"], w["z"]] == best
        assert doc["min_margin"] == margin(*best)
        assert printed == doc["samples"] <= used
        # the search stops at the end of the first pass that repeats itself,
        # strictly before the reference wherever the reference ran on
        assert doc["samples"] == (used if stalled is None else stalled)
        saved.append(used - doc["samples"])
    assert max(saved) > 0, "no budget reached the early stop"


@pytest.mark.parametrize("budget", [8193, 8200, 8256, 8300, 9000])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_budget_is_a_hard_cap(budget, seed, capsys):
    code = cli.main(["search", "--theorem", "AA", "--fn", "square", "--sense",
                     "concave", "--budget", str(budget), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert int(EVALUATIONS.search(out).group(1)) <= budget


def test_shrink_stops_long_before_a_large_budget(monkeypatch, capsys):
    calls = []
    real = cli.theorem_margins

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "theorem_margins", counting)
    code = cli.main(["search", "--theorem", "AA", "--fn", "square", "--sense",
                     "concave", "--budget", "100000", "--seed", "42"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) < 1000
