import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanconvex import EQUALITY_FAMILIES, Interval, SamplePlan, catalog, cli, popoviciu
from meanconvex.catalog import (AuditFinding, _positivity_violation,
                                builtin_claims, builtin_functions,
                                make_function, run_audit)
from meanconvex.convexity import FUNCTIONS, PointFunction, verify_extended_class
from meanconvex.errors import MeanConvexError
from meanconvex.means import MeanKind
from meanconvex.popoviciu import verify_theorem
from meanconvex.sampling import SampleBlocks
from meanconvex.weights import _label

PLAN = SamplePlan(grid_axis=9, grid_t=5, n_random=500)
_BOX = Interval(0.1, 10.0, closed_lo=True, closed_hi=True)


class TestBuiltinFunctions:
    def test_expected_names_present(self):
        fs = builtin_functions()
        for name in ("square", "neg_square", "log", "neg_log", "cosh",
                     "arcsin", "arctan", "exp", "exp_neg", "reciprocal",
                     "reciprocal_log", "exp_reciprocal", "identity",
                     "affine", "power", "sqrt", "const"):
            assert name in fs

    def test_reciprocal_value(self):
        assert builtin_functions()["reciprocal"](4.0) == 0.25

    def test_cosh_domain_and_positivity(self):
        cosh = builtin_functions()["cosh"]
        assert not cosh.domain.bounded
        assert cosh.positive_on_domain

    def test_arcsin_unit_domain(self):
        arcsin = builtin_functions()["arcsin"]
        assert (arcsin.domain.lo, arcsin.domain.hi) == (0.0, 1.0)
        # positivity claim holds because 0 itself is excluded
        assert arcsin.positive_on_domain
        assert not arcsin.domain.contains(0.0)

    def test_neg_square_flagged_nonpositive(self):
        assert not builtin_functions()["neg_square"].positive_on_domain

    @pytest.mark.parametrize("name", sorted(builtin_functions()))
    def test_positivity_claim_matches_samples(self, name):
        f = builtin_functions()[name]
        assert (_positivity_violation(f, None, "G") is None) == f.positive_on_domain

    @pytest.mark.parametrize("f,value_mean,text", [
        # 0.1**400 is positive but rounds to +0.0, and power claims f > 0
        (make_function("power", p=400.0), "G", "power[400](0.1) underflows to +0.0 in floats"),
        # a zero from a row that claims no positivity, and a claimed-positive -0.0
        (make_function("const", c=0.0), "H", "const[0](0.1) <= 0"),
        (PointFunction("neg_zero", lambda v: np.full_like(v, -0.0), Interval(0.0, 10.0)), "G",
         "neg_zero(0.1) <= 0"),
        (builtin_functions()["neg_square"], "H", "neg_square(0.1) <= 0"),
        # an arithmetic value mean takes f as it is
        (builtin_functions()["neg_square"], "A", None)],
        ids=["underflow", "zero", "negative-zero", "negative", "value-mean-A"])
    def test_positivity_violation_names_an_underflow(self, f, value_mean, text):
        assert _positivity_violation(f, _BOX, value_mean) == text

    def test_stated_log_domain(self):
        log = builtin_functions()["log"]
        assert log.domain.lo == 1.0
        assert log.positive_on_domain

    @pytest.mark.parametrize("name,params", [
        ("affine", dict(a=0.0, b=0.0)), ("affine", dict(a=1.0, b=0.0)),
        ("affine", dict(a=0.0, b=1.0)), ("affine", dict(a=-1.0, b=0.5)),
        ("const", dict(c=0.0)), ("const", dict(c=-1.0)), ("power", dict(p=-1.5))],
        ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.values())))
    def test_parametric_positivity_claim_matches_samples(self, name, params):
        # affine[0,0] is f = 0, which is not positive anywhere
        f = make_function(name, **params)
        assert (_positivity_violation(f, None, "G") is None) == f.positive_on_domain


class TestMakeFunction:
    def test_power_parameter(self):
        cube = make_function("power", p=3.0)
        assert cube(2.0) == 8.0
        assert cube.name == "power[3]"

    def test_affine_parameters(self):
        f = make_function("affine", a=1.0, b=0.5)
        assert f(2.0) == 2.5

    def test_const_parameter(self):
        f = make_function("const", c=7.0)
        assert float(f(123.0)) == 7.0

    @pytest.mark.parametrize("name,params,label", [
        ("power", dict(p=2.0000001), "power[2.0000001]"),
        ("affine", dict(a=1.0000001, b=0.1 + 0.2), "affine[1.0000001,0.30000000000000004]"),
        ("const", dict(c=7.0000001), "const[7.0000001]"),
        ("power", dict(p=0.5), "power[0.5]"),
        ("affine", dict(a=1.0, b=0.5), "affine[1,0.5]")])
    def test_names_read_parameters_back(self, name, params, label):
        # as weight names do, so functions whose parameters differ past :g
        # never share a name
        f = make_function(name, **params)
        assert f.name == label
        assert [float(v) for v in label[len(name) + 1:-1].split(",")] == list(params.values())

    def test_default_lookup(self):
        assert make_function("square")(3.0) == 9.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_function("sinh")

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(KeyError) as refused:
            make_function("sinh", p=2.0)
        assert refused.value.args == (
            f"unknown function 'sinh'; choose from {sorted(FUNCTIONS)}",)

    @pytest.mark.parametrize("name,params,message", [
        ("square", dict(p=3.0), "'square' takes parameters [], got ['p']"),
        ("power", dict(a=1.0), "'power' takes parameters ['p'], got ['a']"),
        ("affine", dict(a=1.0, c=2.0), "'affine' takes parameters ['a', 'b'], got ['a', 'c']"),
        ("const", dict(p=2.0, c=1.0), "'const' takes parameters ['c'], got ['p', 'c']")],
        ids=["square-p", "power-a", "affine-c", "const-p"])
    def test_refuses_a_parameter_the_row_does_not_take(self, monkeypatch, name, params,
                                                       message):
        # refused before anything is built, as an unknown name is
        built = TestFunctionTable.patch_point_function(monkeypatch)
        with pytest.raises(KeyError) as refused:
            make_function(name, **params)
        assert refused.value.args == (f"function {message}",)
        assert built == []


def _reference_parametric(name, p=None, a=None, b=None, c=None):
    """(name, fn, positivity claim) of a parametric row as make_function
    wrote each formula, default and claim out by hand, or None for the row
    itself. The one change: affine[0,0] is f = 0 and claims no positivity."""
    if name == "power" and p is not None:
        return f"power[{_label(p)}]", lambda v: v**p, True
    if name == "affine" and (a is not None or b is not None):
        a0, b0 = a if a is not None else 2.0, b if b is not None else 3.0
        return (f"affine[{_label(a0)},{_label(b0)}]", lambda v: a0 * v + b0,
                a0 >= 0 and b0 >= 0 and (a0 > 0 or b0 > 0))
    if name == "const" and c is not None:
        return (f"const[{_label(c)}]",
                lambda v: np.full_like(np.asarray(v, dtype=float), c), c > 0)
    return None


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PARAMETER = st.none() | _FINITE | st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5])
_POINTS = np.array([1e-300, 1e-5, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 1e10, 1e300])
# (name, params) of a parametric row, each of its own parameters drawn or unset
_ROW_PARAMETERS = st.sampled_from(["power", "affine", "const"]).flatmap(
    lambda name: st.tuples(st.just(name), st.fixed_dictionaries(
        {k: _PARAMETER for k in FUNCTIONS[name][0].__kwdefaults__})))


class TestParametricRows:
    """The power, affine and const rows take their parameters as keywords, and
    make_function binds them onto the row: same names, claims and bits as the
    formulas written out per name."""

    @settings(max_examples=150, deadline=None)
    @given(row=_ROW_PARAMETERS)
    def test_matches_reference_bit_for_bit(self, row):
        name, params = row
        f, want = make_function(name, **params), _reference_parametric(name, **params)
        if want is None:
            assert (f.name, f.fn, f.domain, f.positive_on_domain) == (name, *FUNCTIONS[name])
            return
        assert (f.name, f.domain, f.positive_on_domain) == \
            (want[0], FUNCTIONS[name][1], want[2])
        points = np.concatenate([_POINTS, -_POINTS]) if name == "const" else _POINTS
        for v in (points, points.reshape(2, -1, 1)):
            with np.errstate(all="ignore"):
                got, ref = np.asarray(f(v)), np.asarray(want[1](v))
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (f.name, params)

    @pytest.mark.parametrize("name", ["power", "affine", "const"])
    def test_defaults_restate_the_row(self, name):
        fn, _, claim = FUNCTIONS[name]
        f = make_function(name, **fn.__kwdefaults__)
        assert f.positive_on_domain == claim
        with np.errstate(all="ignore"):
            assert f(_POINTS).tobytes() == fn(_POINTS).tobytes()


class TestFunctionTable:
    """Every built-in PointFunction is built from the FUNCTIONS table, through
    the name catalog.PointFunction at call time."""

    @staticmethod
    def patch_point_function(monkeypatch):
        """Mark the fn of every PointFunction that catalog builds, as a tracer
        does; returns the names built, in order."""
        built, real = [], catalog.PointFunction

        def marked_point_function(name, fn, domain, positive_on_domain=True):
            built.append(name)

            def marked(v):
                return fn(v)
            marked.marked = True
            return real(name, marked, domain, positive_on_domain)
        monkeypatch.setattr(catalog, "PointFunction", marked_point_function)
        return built

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_make_function_builds_only_the_one_asked_for(self, monkeypatch, name):
        built = self.patch_point_function(monkeypatch)
        make_function(name)
        assert built == [name]

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_built_from_the_table_row(self, name):
        f = make_function(name)
        assert (f.name, f.fn, f.domain, f.positive_on_domain) == (name, *FUNCTIONS[name])
        assert builtin_functions()[name].fn is FUNCTIONS[name][0]

    def test_equality_families_name_table_functions(self):
        for _, f in EQUALITY_FAMILIES.values():
            assert f.fn is FUNCTIONS[f.name][0]
            assert (f.domain, f.positive_on_domain) == FUNCTIONS[f.name][1:]

    def test_domain_cases_take_table_fn(self):
        cases = {e.key: e.payload["f"] for e in builtin_claims()
                 if e.key in ("domain/log-unit-GG", "domain/neg-log-AH")}
        assert [(f.name, f.domain.lo, f.domain.hi) for f in cases.values()] == \
            [("log", 0.0, 1.0), ("neg_log", 1.0, 10.0)]
        for f in cases.values():
            assert f.fn is FUNCTIONS[f.name][0]
            assert not f.positive_on_domain

    def test_every_function_built_through_catalog_name(self, monkeypatch):
        # the benchmark tracer patches catalog.PointFunction to time each f
        self.patch_point_function(monkeypatch)
        fs = [*builtin_functions().values(),
              *(make_function(name) for name in FUNCTIONS),
              make_function("power", p=3.0), make_function("affine", a=1.0),
              make_function("const", c=5.0)]
        fs += [e.payload["f"] for e in builtin_claims() if "f" in e.payload]
        assert all(getattr(f.fn, "marked", False) for f in fs)

    def test_parser_builds_no_function(self, monkeypatch):
        built = self.patch_point_function(monkeypatch)
        cli.build_parser()
        assert built == []


class TestBuiltinClaims:
    def test_at_least_24_entries(self):
        assert len(builtin_claims()) >= 24

    def test_unique_keys(self):
        keys = [e.key for e in builtin_claims()]
        assert len(keys) == len(set(keys))

    def test_known_kinds_and_expectations(self):
        kinds = {"class", "extended-class", "theorem", "equality", "chain",
                 "hlawka", "direction-probe"}
        expectations = {"holds", "refuted", "equality", "suspect",
                        "domain-violation"}
        for e in builtin_claims():
            assert e.kind in kinds
            assert e.expected in expectations
            assert e.statement

    def test_every_equality_family_covered(self):
        keys = {e.key for e in builtin_claims() if e.kind == "equality"}
        assert len(keys) == 7

    def test_class_positivity_claims_match_samples(self):
        # the expected domain-violation of a class entry is read from this claim
        for e in builtin_claims():
            if e.kind == "class":
                f, box = e.payload["f"], e.payload["box"]
                assert (_positivity_violation(f, box, "G") is None) == f.positive_on_domain

    def test_every_chained_corollary_covered(self):
        chains = {e.payload["corollary"] for e in builtin_claims()
                  if e.kind == "chain"}
        assert len(chains) == 13

    def test_payload_is_its_runners_keywords(self):
        # run_audit calls runner(plan, tol, **payload), so a missing or
        # misspelled key is a TypeError, not a silent default
        for e in builtin_claims():
            params = inspect.signature(catalog._DISPATCH[e.kind]).parameters
            assert list(params)[:2] == ["plan", "tol"]
            assert sorted(e.payload) == sorted(list(params)[2:]), e.key
            assert all(p.default is p.empty for p in params.values()), e.key

    def test_only_hg_chain_is_measured(self):
        chains = [e for e in builtin_claims() if e.kind == "chain"]
        measured = {e.key for e in chains if not e.payload["enforce_hypotheses"]}
        assert measured == {"chain/HG-chain-square"}
        for e in chains:
            assert e.expected == ("suspect" if e.key in measured else "holds")


class TestRunAudit:
    @pytest.fixture(scope="class")
    @staticmethod
    def findings():
        return run_audit(PLAN)

    def test_covers_every_entry(self, findings):
        assert len(findings) == len(builtin_claims())
        assert [f.key for f in findings] == [e.key for e in builtin_claims()]

    def test_no_disagreements(self, findings):
        bad = [f for f in findings if not f.agree]
        assert bad == [], [f"{f.key}: {f.outcome} ({f.detail})" for f in bad]

    def test_equality_residuals_tiny(self, findings):
        for f in findings:
            if f.kind == "equality":
                assert f.outcome == "equality"
                assert f.min_margin <= 1e-12

    def test_refuted_claims_detected(self, findings):
        refuted = {f.key for f in findings if f.outcome == "refuted"}
        assert "class/square-AA-concave" in refuted
        assert "theorem/AA-square-flipped" in refuted

    def test_domain_violations_detected(self, findings):
        flagged = {f.key for f in findings if f.outcome == "domain-violation"}
        assert "domain/neg-square-AG" in flagged
        assert "domain/log-unit-GG" in flagged
        assert "domain/neg-log-AH" in flagged

    def test_suspect_entries_measured_not_asserted(self, findings):
        probes = [f for f in findings if f.expected == "suspect"]
        assert probes
        for f in probes:
            assert f.outcome == "measured"
            assert f.agree

    def test_deterministic(self):
        assert run_audit(PLAN) == run_audit(PLAN)

    def test_every_sampled_finding_counts_its_whole_stream(self):
        # usable plus skipped is the stream size: (x, y, t) for classes, else
        # triples; equality/exp-reciprocal-HG skips 469 of its triples
        plan = catalog._AUDIT_PLAN
        sizes = {"class": 13**2 * 9 + 2000, "extended-class": 13**2 * 9 + 2000}
        sampled = [f for f in run_audit(plan) if f.samples]
        assert {f.kind for f in sampled} == {
            "class", "extended-class", "theorem", "equality", "chain", "hlawka",
            "direction-probe"}
        for f in sampled:
            assert f.samples + f.skipped == sizes.get(f.kind, 13**3 + 2000), f.key
        skipped = {f.key: f.skipped for f in sampled}
        assert skipped["equality/exp-reciprocal-HG"] == 469

    @pytest.mark.parametrize("kind", ["class", "extended-class", "theorem", "chain",
                                      "hlawka", "direction-probe"])
    @pytest.mark.parametrize("rename,error", [
        ({"box": "bx"}, "unexpected keyword argument 'bx'"),
        ({"box": None}, "missing 1 required positional argument: 'box'")],
        ids=["misspelled", "missing"])
    def test_box_key_fails_loudly(self, kind, rename, error):
        # a row whose box key is misspelled or missing must not run on f's
        # default domain
        entry = next(e for e in builtin_claims() if e.kind == kind)
        payload = {rename.get(k, k): v for k, v in entry.payload.items()}
        payload.pop(None, None)
        with pytest.raises(TypeError, match=error):
            catalog._DISPATCH[kind](PLAN, 1e-9, **payload)

    def test_refuted_extended_row_names_its_witness(self):
        # neg_square is not s-convex; like a class row, the extended row
        # reports where, not only its min margin
        f = builtin_functions()["neg_square"]
        outcome, detail, margin, samples, skipped = catalog._DISPATCH[
            "extended-class"](catalog._AUDIT_PLAN, 1e-9, class_tag="K_s2", f=f,
                              box=catalog._BOX_01_10)
        verdict = verify_extended_class("K_s2", MeanKind.ARITHMETIC, f,
                                        catalog._AUDIT_PLAN, 1e-9, s=0.5,
                                        box=catalog._BOX_01_10)
        w = verdict.witnesses[0]
        assert outcome == "refuted" and margin == verdict.min_margin < 0
        assert detail == f"violated at x={w.x:.6g}, y={w.y:.6g}, t={w.t:.6g}"
        assert detail == "violated at x=0.1, y=0.1, t=1e-06"
        assert samples + skipped == 13**2 * 9 + 2000

    def test_a_runner_that_raises_is_a_disagreement(self, monkeypatch):
        # the audit never raises: the error becomes a finding, and an error
        # agrees with no expected outcome
        def raising(plan, tol, **payload):
            raise MeanConvexError("boom")

        monkeypatch.setitem(catalog._DISPATCH, "hlawka", raising)
        got = [(f.outcome, f.agree, f.detail, f.min_margin, f.samples, f.skipped)
               for f in run_audit(PLAN) if f.kind == "hlawka"]
        assert got == [("error", False, "MeanConvexError: boom", None, 0, 0)] * 2

    @pytest.mark.parametrize("family", sorted(EQUALITY_FAMILIES))
    def test_equality_at_a_tol_equal_to_its_residual(self, family):
        # a residual equal to tol is within it, and one float below it is not
        resid = popoviciu.equality_max_residual(family, PLAN)[0]
        assert resid > 0.0
        assert catalog._audit_equality(PLAN, resid, family)[0] == "equality"
        assert catalog._audit_equality(PLAN, np.nextafter(resid, 0.0), family)[0] == \
            "not-equality"

    def test_hlawka_rows_honour_tol(self, findings):
        # at the default tol both rows pass; at tol 0 the float rounding of
        # the sides fails them, and the detail names the first such triple
        hlawka = {f.key: f for f in findings if f.kind == "hlawka"}
        assert [(f.outcome, f.samples) for f in hlawka.values()] == \
            [("holds", 9**3 + 500), ("equality", 9**3 + 500)]
        exact = {f.key: f for f in run_audit(PLAN, tol=0.0) if f.kind == "hlawka"}
        assert [f.outcome for f in exact.values()] == ["refuted", "not-equality"]
        for f in exact.values():
            x, y, z = map(float, f.detail.removeprefix("violated at (").rstrip(")")
                          .split(", "))
            assert all(abs(v) <= 100.0 for v in (x, y, z))


class TestDirectionProbes:
    PROBES = [e for e in builtin_claims() if e.kind == "direction-probe"]
    # the audit plan's triples are one chunk; the second plan's are two
    PLANS = [catalog._AUDIT_PLAN, SamplePlan(grid_axis=21, n_random=6000)]

    @pytest.mark.parametrize("plan", PLANS, ids=["audit-plan", "two-chunks"])
    @pytest.mark.parametrize("entry", PROBES, ids=lambda e: e.key)
    def test_probe_evaluates_its_sides_once(self, entry, plan, monkeypatch):
        # both senses reduce one evaluation of the sides, and no witness is
        # decoded: a probe row reports min margins only
        p = entry.payload
        reports = [verify_theorem(p["tid"], p["h"], p["f"], sense, plan, 1e-9,
                                  box=p["box"]) for sense in ("convex", "concave")]
        want = ("measured",
                "; ".join(f"{r.sense}: min margin {r.min_margin:.3e}" for r in reports),
                None, min(r.samples for r in reports),
                max(r.skipped for r in reports))
        chunks = len(plan.triple_blocks(p["f"].sampling_domain(p["box"]))._chunks)
        calls = []
        sides = popoviciu._sides_arrays
        monkeypatch.setattr(popoviciu, "_sides_arrays",
                            lambda *args: calls.append(args[0]) or sides(*args))
        monkeypatch.setattr(SampleBlocks, "point", _no_point)
        assert catalog._audit_probe(plan, 1e-9, **p) == want
        assert calls == [p["tid"]] * chunks
        assert chunks == (1 if plan is catalog._AUDIT_PLAN else 2)

    def test_probes_refute_a_sense(self):
        # verify_theorem decodes witnesses for these probe senses, so the
        # no-witness check above has something to catch
        refuted = {(e.key, sense) for e in self.PROBES for sense in ("convex", "concave")
                   if not verify_theorem(e.payload["tid"], e.payload["h"], e.payload["f"],
                                         sense, catalog._AUDIT_PLAN,
                                         box=e.payload["box"]).holds}
        assert refuted
        assert {key for key, _ in refuted} >= {"probe/GH-cosh"}


def _no_point(*args):
    raise AssertionError("a witness was decoded")
