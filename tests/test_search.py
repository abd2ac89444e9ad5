"""The witness shrink of ``meanconvex search``.

The reference below is the per-trial shrink loop that ran passes until the
budget was gone, with the budget checked before every trial. A pass depends
only on the witness, so once a pass leaves it unchanged every later pass
repeats that pass: ``search`` must stop there with the same witness and
margin, after no more evaluations than the reference.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra.numpy import arrays

from meanconvex import cli, popoviciu
from meanconvex.catalog import builtin_functions
from meanconvex.errors import DomainError
from meanconvex.intervals import Interval
from meanconvex.popoviciu import TheoremId, search_theorem, theorem_margins
from meanconvex.weights import (DEFAULT_TOL, identity_weight, power_weight,
                                reciprocal_weight)

# (label, theorem, function, sense, box)
CASES = [
    ("AA-square-concave", "AA", "square", "concave", None),
    ("GH-cosh-concave", "GH", "cosh", "concave", ("1", "4")),
]
BUDGETS = [8256, 12_288, 100_000]
SEEDS = range(1, 21)
EVALUATIONS = re.compile(r"\((\d+) evaluations\)")


def reference_search(tid, fn, sense, box, seed, budget, margin, h=identity_weight()):
    """Scan under weight h, then shrink pass after pass until the budget is gone.

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
        margins = theorem_margins(TheoremId(tid), h, f, x, y, z, sense)
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


def _search(tmp_path, tid, fn, sense, box, seed, budget, capsys, *weight_argv):
    path = tmp_path / "search.json"
    box_argv = ["--lo", box[0], "--hi", box[1]] if box else []
    code = cli.main(["search", "--theorem", tid, "--fn", fn, "--sense", sense,
                     *box_argv, "--budget", str(budget), "--seed", str(seed),
                     *weight_argv, "--json", str(path)])
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


# weights besides identity that ``search --weight`` takes, with their argv and
# two cases each that the scan refutes under that weight
POWER2 = (power_weight(2.0), ["--weight", "power", "--weight-param", "2"])
RECIPROCAL = (reciprocal_weight(), ["--weight", "reciprocal"])
WEIGHTED_CASES = [
    (*POWER2, "AG-square-concave", "AG", "square", "concave", None),
    (*POWER2, "GH-cosh-concave", "GH", "cosh", "concave", ("1", "4")),
    (*RECIPROCAL, "AA-square-concave", "AA", "square", "concave", None),
    (*RECIPROCAL, "GH-cosh-convex", "GH", "cosh", "convex", ("1", "4")),
]


@pytest.mark.parametrize("h,weight_argv,label,tid,fn,sense,box", WEIGHTED_CASES,
                         ids=[f"{c[0].name}-{c[2]}" for c in WEIGHTED_CASES])
@pytest.mark.parametrize("seed", range(1, 6))
def test_shrink_matches_reference_under_weights(h, weight_argv, label, tid, fn, sense,
                                                box, seed, tmp_path, capsys):
    margin = functools.lru_cache(maxsize=None)(
        _one_point_margin(tid, h, builtin_functions()[fn], sense))
    for budget in BUDGETS:
        best, used, stalled = reference_search(tid, fn, sense, box, seed, budget,
                                               margin, h)
        doc, printed = _search(tmp_path, tid, fn, sense, box, seed, budget, capsys,
                               *weight_argv)
        w = doc["witnesses"][0]
        assert doc["config"]["weight"] == h.name
        assert [w["x"], w["y"], w["z"]] == best
        assert doc["min_margin"] == margin(*best)
        assert printed == doc["samples"] == (used if stalled is None else stalled)


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
    real = popoviciu.theorem_margins

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(popoviciu, "theorem_margins", counting)
    code = cli.main(["search", "--theorem", "AA", "--fn", "square", "--sense",
                     "concave", "--budget", "100000", "--seed", "42"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) < 1000


@pytest.mark.parametrize("label,tid,fn,sense,box", CASES, ids=[c[0] for c in CASES])
def test_weight_evaluated_twice_per_kernel_call(label, tid, fn, sense, box, tmp_path,
                                                capsys, monkeypatch):
    # h(3/2) and h(1/2) are read once per theorem_margins call and once for
    # the witness's printed sides; 118 reads when each pass had its own call
    counts = {"margins": 0, "weight": 0}
    margins, weight = popoviciu.theorem_margins, popoviciu.weight_eval

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(popoviciu, "theorem_margins", counting("margins", margins))
    monkeypatch.setattr(popoviciu, "weight_eval", counting("weight", weight))
    _search(tmp_path, tid, fn, sense, box, 1, 12_288, capsys)
    assert counts["weight"] <= 2 * (counts["margins"] + 1) <= 2 * (1 + 12 + 1)


# ---------------------------------------------------------------------------
# Turn i of a pass tries coordinate i at the three steps, the coordinates
# before i where the pass moved them and the ones after i at the pass start.
# One theorem_margins call evaluates the turns of the passes to come while the
# walk repeats its last turn outcomes, as (P, 3 turns, 3 steps) arrays. The
# batch walks the reference only if no margin depends on where in an array it
# was computed: in a broadcast grid or in the batched turns alike.

STEPS = (0.5, 0.8, 0.95)


def _one_point_margin(tid, h, f, sense):
    return lambda x, y, z: float(theorem_margins(
        TheoremId(tid), h, f, np.array([x]), np.array([y]), np.array([z]),
        sense)[0])


def _turns(lo, start, at):
    """The (3 turns, 3 steps, 3 coordinates) trial points of a pass from
    start with turn outcomes at (3: the coordinate stays), and its end."""
    best, rows = list(start), []
    for i, k in enumerate(at):
        rows.append([best[:i] + [lo + s * (best[i] - lo)] + best[i + 1:] for s in STEPS])
        if k < 3:
            best[i] = rows[-1][k][i]
    return rows, best


@pytest.mark.parametrize("fn", sorted(builtin_functions()))
def test_lattice_margins_equal_one_point_margins(fn):
    # the lattice shortcut walks the reference only if no entry depends on
    # where in the array it was computed
    f = builtin_functions()[fn]
    lo, hi = f.sampling_domain(None).sampling_bounds()
    values = [[lo + s * (c - lo) for s in STEPS] + [c]
              for c in (lo + (hi - lo) * w for w in (0.3, 0.6, 0.9))]
    finite = 0
    for tid, h, sense in itertools.product(
            TheoremId, (identity_weight(), power_weight(2.0), reciprocal_weight()),
            ("convex", "concave")):
        lattice = theorem_margins(tid, h, f, *np.ix_(*values), sense)
        margin = _one_point_margin(tid, h, f, sense)
        points = [margin(*p) for p in itertools.product(*values)]
        assert lattice.shape == (4, 4, 4)
        assert lattice.tobytes() == np.array(points).tobytes(), (tid, h.name, sense)
        finite += int(np.isfinite(lattice).sum())
    assert finite > 0


@pytest.mark.parametrize("fn", sorted(builtin_functions()))
def test_batched_turns_equal_one_point_margins(fn, monkeypatch):
    # one call evaluates the turns of several passes; the batch walks the
    # reference only if every row holds the pass's own trial points and no
    # margin depends on the pass, or the place in the batch, it was computed
    # at (three passes: an odd size leaves a partial SIMD vector)
    monkeypatch.setattr(popoviciu, "_PASSES_PER_CALL", 3)
    calls = []
    real = popoviciu.theorem_margins

    def recording(tid, h, f, x, y, z, sense):
        calls.append((x, y, z))
        return real(tid, h, f, x, y, z, sense)

    monkeypatch.setattr(popoviciu, "theorem_margins", recording)
    f = builtin_functions()[fn]
    lo, hi = f.sampling_domain(None).sampling_bounds()
    first, guess = [lo + (hi - lo) * w for w in (0.3, 0.6, 0.9)], (0, 1, 2)
    starts, passes = [first], []
    for _ in range(3):
        rows, end = _turns(lo, starts[-1], guess)
        passes.append(rows)
        starts.append(end)
    assert len({tuple(start) for start in starts}) == 4
    passes = np.array(passes)
    finite = 0
    for tid, h, sense in itertools.product(
            TheoremId, (identity_weight(), power_weight(2.0), reciprocal_weight()),
            ("convex", "concave")):
        margins = popoviciu._coming_turns(tid, h, f, sense, lo, first, guess)
        x, y, z = calls.pop()
        assert margins.shape == x.shape == y.shape == z.shape == (3, 3, 3)
        assert all(c.flags.c_contiguous for c in (x, y, z))
        assert np.stack([x, y, z], axis=-1).tobytes() == passes.tobytes()
        margin = _one_point_margin(tid, h, f, sense)
        points = [margin(*point) for point in passes.reshape(-1, 3).tolist()]
        assert margins.tobytes() == np.array(points).tobytes(), (tid, h.name, sense)
        finite += int(np.isfinite(margins).sum())
    assert finite > 0


def reference_pass(bad, left):
    """(at, trials) of one pass walked trial by trial: bad is the pass's
    (3 turns, 3 steps) accept array and left the trials the budget has left."""
    at, trials = [3, 3, 3], 0
    for i in range(3):
        for k in range(3):
            if trials >= left:
                break
            trials += 1
            if bad[i, k]:
                at[i] = k
                break
    return tuple(at), trials


TURNS = (5, 3, 3)  # accept arrays of five passes, decided in one batch


@settings(max_examples=200, deadline=None)
@given(arrays(np.bool_, TURNS))
@example(np.zeros(TURNS, dtype=bool))  # nothing accepts: three trials a turn
def test_turn_outcomes_walk_the_reference(bad):
    # every remaining budget a pass can meet, from none to all nine trials, so
    # the budget also runs out inside turns 1 and 2
    accepts = popoviciu._first_accepts(bad)
    assert accepts.shape == (len(bad), 3)
    for turns, k in zip(bad, accepts.tolist()):
        for left in range(10):
            at, trials = [], 0
            for ki in k:
                outcome, n = popoviciu._take_turn(ki, left - trials)
                at.append(outcome)
                trials += n
            assert (tuple(at), trials) == reference_pass(turns, left)


def _low_edge(fn, box):
    f = builtin_functions()[fn]
    return f.sampling_domain(None if box is None else Interval(
        float(box[0]), float(box[1]), closed_lo=True, closed_hi=True)).sampling_bounds()[0]


def _reference_passes(tid, fn, sense, box, seed, scan):
    """The turn rows of each pass of the reference shrink after a scan of
    `scan` points, walked with one-point margins until a pass repeats itself,
    and the witness it ends at."""
    margin = _one_point_margin(tid, identity_weight(), builtin_functions()[fn], sense)
    best, _, _ = reference_search(tid, fn, sense, box, seed, scan, margin)
    lo, passes, start = _low_edge(fn, box), [], None
    while best != start:
        start, at = best, []
        for i in range(3):
            rows, _ = _turns(lo, best, [3] * 3)
            accepts = [margin(*trial) < -DEFAULT_TOL for trial in rows[i]]
            at.append(accepts.index(True) if any(accepts) else 3)
            rows, best = _turns(lo, start, at + [3] * (2 - i))
        passes.append(np.array(rows))
    return passes, best


@pytest.mark.parametrize("label,tid,fn,sense,box", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_pass_finds_its_own_turns(label, tid, fn, sense, box, seed, tmp_path,
                                       capsys, monkeypatch):
    calls = []
    real = popoviciu.theorem_margins

    def recording(tid, h, f, x, y, z, sense):
        calls.append((x, y, z))
        return real(tid, h, f, x, y, z, sense)

    monkeypatch.setattr(popoviciu, "theorem_margins", recording)
    doc, _ = _search(tmp_path, tid, fn, sense, box, seed, 100_000, capsys)
    scan = [x.size for x, _, _ in calls if x.ndim == 1]
    assert scan[:-1] == [8192] * (len(scan) - 1)
    shrink = calls[len(scan):]
    # a few calls serve the whole shrink (48 to 71 when each pass had its own)
    assert 1 <= len(shrink) <= 12
    # each call holds the turns of whole passes, at most 32 of them
    read, firsts = [], []
    for x, y, z in shrink:
        assert x.shape == y.shape == z.shape and x.shape[1:] == (3, 3)
        assert x.size <= popoviciu._PASSES_PER_CALL * 9 == 288
        read += [rows.tobytes() for rows in np.stack([x, y, z], axis=-1)]
        firsts.append(read[-len(x)])
    passes, witness = _reference_passes(tid, fn, sense, box, seed, sum(scan))
    # in order, every pass finds its own turn rows bit for bit, and every call
    # begins at a pass start: its first turn reads only the start
    at = 0
    for rows in passes:
        while at < len(read) and read[at] != rows.tobytes():
            at += 1
        assert at < len(read), "a pass has no turn rows of its own"
        at += 1
    assert {first[:9 * 8] for first in firsts} <= {rows[0].tobytes() for rows in passes}
    w = doc["witnesses"][0]
    assert [w["x"], w["y"], w["z"]] == witness


@pytest.mark.parametrize("label,tid,fn,sense,box", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_budget_ends_inside_a_later_coordinate(label, tid, fn, sense, box, seed,
                                               tmp_path, capsys):
    f = builtin_functions()[fn]
    one_point = _one_point_margin(tid, identity_weight(), f, sense)
    trials = []

    def margin(x, y, z):
        trials.append(((x, y, z), one_point(x, y, z)))
        return trials[-1][1]

    # the reference would walk on to 100,000: stop it where the search stops
    _, stop = _search(tmp_path, tid, fn, sense, box, seed, 100_000, capsys)
    reference_search(tid, fn, sense, box, seed, stop, margin)
    scan = stop - len(trials)
    doc, _ = _search(tmp_path, tid, fn, sense, box, seed, scan, capsys)
    best = [doc["witnesses"][0][k] for k in "xyz"]
    # the evaluation count after each trial, by the coordinate it moves
    ends = {1: [], 2: []}
    for n, (trial, m) in enumerate(trials, start=scan + 1):
        moved = [i for i in range(3) if trial[i] != best[i]]
        if moved in ([1], [2]):
            ends[moved[0]].append(n)
        if m < -DEFAULT_TOL:
            best = list(trial)
    assert ends[1] and ends[2]
    for budget in {*ends[1][:2], ends[1][-1], *ends[2][:2], ends[2][-1]}:
        best, used, stalled = reference_search(tid, fn, sense, box, seed, budget,
                                               one_point)
        doc, printed = _search(tmp_path, tid, fn, sense, box, seed, budget, capsys)
        w = doc["witnesses"][0]
        assert [w["x"], w["y"], w["z"]] == best
        assert doc["min_margin"] == one_point(*best)
        assert printed == doc["samples"] == (used if stalled is None else stalled)


# ---------------------------------------------------------------------------
# The library entry point: search_theorem gives what the command reports.

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["search-AA-square-concave.json",
                                  "search-GH-cosh-convex.json"])
def test_search_theorem_returns_the_golden_witness(name):
    doc = json.loads((GOLDEN / name).read_text())
    config = doc["config"]
    box = None if config["lo"] is None else Interval(
        config["lo"], config["hi"], closed_lo=True, closed_hi=True)
    report = search_theorem(TheoremId(config["target"].split()[1]), identity_weight(),
                            builtin_functions()[config["fn"]], config["sense"],
                            config["seed"], config["budget"], config["tol"], box)
    (w,) = report.witnesses
    assert (w.x, w.y, w.z, w.t, w.lhs, w.rhs) == tuple(doc["witnesses"][0].values())
    assert report.min_margin == doc["min_margin"]
    assert report.samples == doc["samples"]
    assert (report.status, report.skipped) == (doc["verdict"], doc["skipped"])


@pytest.mark.parametrize("budget", [0, -3])
def test_search_theorem_refuses_a_budget_below_one(budget, monkeypatch):
    calls = []
    monkeypatch.setattr(popoviciu, "theorem_margins", lambda *args: calls.append(args))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
        search_theorem(TheoremId.AA, identity_weight(), builtin_functions()["square"],
                       "concave", 1, budget)
    assert calls == []


@pytest.mark.parametrize("tid", ["GA", "HA"])
def test_search_theorem_refuses_a_g_or_h_argument_mean_reaching_zero(tid, monkeypatch):
    # HA for cosh on [-3, 3] once reported an all-negative witness
    calls = []
    monkeypatch.setattr(popoviciu, "theorem_margins", lambda *args: calls.append(args))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match=rf"^theorem {tid} takes .* but the box "
                                          r"reaches x = -3$"):
        search_theorem(TheoremId(tid), identity_weight(), builtin_functions()["cosh"],
                       "concave", 1, 100_000,
                       box=Interval(-3.0, 3.0, closed_lo=True, closed_hi=True))
    assert calls == []


def test_search_theorem_without_a_violation_holds():
    f, budget = builtin_functions()["square"], 5000
    report = search_theorem(TheoremId.AA, identity_weight(), f, "convex", 42, budget)
    assert report.holds and report.witnesses == []
    assert (report.sense, report.samples, report.skipped) == ("convex", budget, 0)
    # the lowest margin of the one scan batch the budget allows
    lo, hi = f.sampling_domain(None).sampling_bounds()
    x, y, z = np.random.default_rng(42).uniform(lo, hi, size=(3, budget))
    margins = theorem_margins(TheoremId.AA, identity_weight(), f, x, y, z, "convex")
    assert report.min_margin == float(margins.min()) >= -DEFAULT_TOL
