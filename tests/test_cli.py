import csv
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from meanconvex import cli
from meanconvex.cli import main
from meanconvex.weights import WEIGHT_BUILDERS

FAST = ["--grid", "7", "--grid-t", "5", "--random", "200"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_holding_theorem_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "AA",
                           "--fn", "square", "--lo", "0.1", "--hi", "10",
                           *FAST)
        assert code == 0
        assert "holds-on-samples" in out

    def test_refuted_theorem_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "AA",
                           "--fn", "square", "--sense", "concave",
                           "--lo", "0.1", "--hi", "10", *FAST)
        assert code == 1
        assert "refuted" in out
        assert "witness" in out

    def test_class_target(self, capsys):
        code, out, _ = run(capsys, "verify", "--arg", "A", "--val", "G",
                           "--fn", "cosh", "--lo", "0.1", "--hi", "5", *FAST)
        assert code == 0

    def test_json_report_schema(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--theorem", "AA",
                         "--fn", "square", "--sense", "concave",
                         "--lo", "0.1", "--hi", "10", "--json", str(path),
                         *FAST)
        assert code == 1
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "refuted"
        assert doc["samples"] > 0
        assert set(doc["witnesses"][0]) == {"x", "y", "z", "t", "lhs", "rhs"}
        assert "timing" not in doc and "elapsed" not in doc

    def test_json_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(capsys, "verify", "--theorem", "AA", "--fn", "square",
                "--sense", "concave", "--lo", "0.1", "--hi", "10",
                "--seed", "7", "--json", str(p), *FAST)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_witnesses(self, capsys, tmp_path):
        path = tmp_path / "witnesses.csv"
        run(capsys, "verify", "--theorem", "AA", "--fn", "square",
            "--sense", "concave", "--lo", "0.1", "--hi", "10",
            "--csv", str(path), *FAST)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "z", "t", "lhs", "rhs"]
        assert len(rows) > 1
        assert float(rows[1][4]) < float(rows[1][5])  # lhs < rhs

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEANCONVEX_SEED", "99")
        path = tmp_path / "r.json"
        run(capsys, "verify", "--theorem", "AA", "--fn", "square",
            "--lo", "0.1", "--hi", "10", "--json", str(path), *FAST)
        assert json.loads(path.read_text())["config"]["seed"] == 99

    def test_flag_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEANCONVEX_SEED", "99")
        path = tmp_path / "r.json"
        run(capsys, "verify", "--theorem", "AA", "--fn", "square",
            "--lo", "0.1", "--hi", "10", "--seed", "5", "--json", str(path),
            *FAST)
        assert json.loads(path.read_text())["config"]["seed"] == 5


class TestAuditCommand:
    def test_exit_zero_and_entry_count(self, capsys):
        code, out, _ = run(capsys, "audit")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert len(lines) >= 24
        assert "0 disagreement(s)" in out


class TestSearchCommand:
    def test_finds_violation(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        code, out, _ = run(capsys, "search", "--theorem", "AA",
                           "--fn", "square", "--sense", "concave",
                           "--lo", "0.1", "--hi", "10",
                           "--budget", "20000", "--json", str(path))
        assert code == 0
        assert "violation" in out
        doc = json.loads(path.read_text())
        w = doc["witnesses"][0]
        assert w["lhs"] < w["rhs"]

    def test_no_violation_exits_one(self, capsys):
        code, out, _ = run(capsys, "search", "--theorem", "AA",
                           "--fn", "square", "--lo", "0.1", "--hi", "10",
                           "--budget", "5000")
        assert code == 1
        assert "no violation" in out

    @pytest.mark.parametrize("flag", [["--grid", "5"], ["--grid-t", "3"],
                                      ["--random", "7"]])
    def test_plan_flags_are_usage_errors(self, capsys, flag):
        # the scan draws from the seed alone, so plan sizes would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["search", "--theorem", "GH", "--fn", "cosh", "--lo", "1",
                  "--hi", "4", "--sense", "convex", "--budget", "8192", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestClassifyCommand:
    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "classify", "--fn", "sqrt",
                           "--lo", "0.01", "--hi", "1", "--grid", "7",
                           "--random", "200")
        assert code == 0
        assert "subadditive" in out

    def test_grid_t_is_a_usage_error(self, capsys):
        # pairs are sampled without a t axis, so a t grid would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--fn", "sqrt", "--grid-t", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_domain_clamps_infinite_edge(self, capsys):
        # square lives on (0, inf), so a box from -inf samples (0, 3]
        code, out, _ = run(capsys, "classify", "--fn", "square", "--lo=-inf",
                           "--hi", "3", "--grid", "7", "--random", "200")
        assert code == 0
        assert out.startswith("square on [0, 3]: superadditive")

    def test_analytic_power_table(self, capsys):
        code, out, _ = run(capsys, "classify", "--power-exponent", "2")
        assert code == 0
        assert "superadditive" in out


class TestMeansCommand:
    def test_prints_all_three(self, capsys):
        code, out, _ = run(capsys, "means", "--x", "1", "--y", "4",
                           "--t", "0.25")
        assert code == 0
        assert "A-mean" in out and "G-mean" in out and "H-mean" in out
        assert "holds" in out

    def test_weight_pole_exits_two(self, capsys):
        code, _, err = run(capsys, "means", "--x", "1", "--y", "4",
                           "--t", "0", "--weight", "reciprocal")
        assert code == 2
        assert "error" in err


class TestParserReuse:
    """main builds its parser once per process; later calls reuse it."""

    BOX = ["--lo", "0.1", "--hi", "10"]
    CALLS = [
        ["verify", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         *BOX, *FAST, "--json", "{json}"],
        ["means", "--x", "1", "--y", "4", "--weight", "power", "--weight-param", "2"],
        ["verify", "--arg", "A", "--fn", "square", *BOX],  # parser.error: exit 2
        ["search", "--theorem", "GH", "--fn", "cosh", "--lo", "1", "--hi", "4",
         "--sense", "convex", "--budget", "8192", "--json", "{json}"],
        ["classify", "--fn", "sqrt", "--lo", "0.01", "--hi", "1", "--grid", "7",
         "--random", "200"],
        ["audit", "--json", "{json}"],
        ["verify", "--arg", "G", "--val", "G", "--fn", "square", *BOX, *FAST,
         "--json", "{json}"],
    ]

    def _run_all(self, capsys, monkeypatch, tmp_path):
        tmp_path.mkdir()
        results = []
        for k, argv in enumerate(self.CALLS):
            path = tmp_path / f"{k}.json"
            monkeypatch.setenv("MEANCONVEX_SEED", str(k + 1))
            try:
                code = main([a.replace("{json}", str(path)) for a in argv])
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            err = [ln for ln in out.err.splitlines() if not ln.startswith("elapsed:")]
            report = path.read_bytes() if path.exists() else None
            if report is not None:
                assert json.loads(report)["config"]["seed"] == k + 1
            results.append((code, out.out, err, report))
        return results

    def test_same_output_as_fresh_parser(self, capsys, monkeypatch, tmp_path):
        from meanconvex import cli

        cli._parser.cache_clear()
        reused = self._run_all(capsys, monkeypatch, tmp_path / "reused")
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._run_all(capsys, monkeypatch, tmp_path / "fresh")
        assert reused == fresh
        assert [code for code, *_ in reused] == [1, 0, 2, 0, 0, 0, 0]


class TestBadInput:
    """Usage and domain errors print one `error:` line and exit 2."""

    LOG_BOX = ["--fn", "log", "--lo", "0.1", "--hi", "0.5"]
    MISSING_DIR = "/nonexistent-meanconvex-dir"
    # f <= 0 somewhere in the box under a G or H value mean
    NONPOSITIVE = [
        ["verify", "--arg", "A", "--val", "H", "--fn", "neg_square", "--lo", "0.1",
         "--hi", "10", *FAST],
        ["verify", "--theorem", "AH", "--fn", "affine", "--a", "-1", "--b", "0",
         "--lo", "0.1", "--hi", "10"],
        ["verify", "--theorem", "AG", "--fn", "neg_square", "--lo", "0.1",
         "--hi", "10", *FAST],
    ]

    WEIGHT_PARAMS = [
        ["verify", "--arg", "A", "--val", "A", "--fn", "square", "--weight", "power",
         "--weight-param", value] for value in ("nan", "inf")
    ]

    # a sampling domain left unbounded by an infinite --lo or --hi
    INFINITE_EDGES = [
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "1", "--hi", "inf",
         "--grid", "3", "--random", "5"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--hi", "inf"],
        ["verify", "--arg", "A", "--val", "A", "--fn", "cosh", "--lo=-inf", "--hi", "3"],
        ["classify", "--fn", "exp", "--lo=-inf"],
    ]
    # a function parameter flag that the chosen --fn does not take
    STRAY_FN_PARAMS = [
        ["verify", "--theorem", "AA", "--fn", "square", "--p", "3", "--lo", "0.1",
         "--hi", "10", *FAST],
        ["verify", "--theorem", "AA", "--fn", "power", "--a", "3", "--lo", "0.1",
         "--hi", "10", *FAST],
        ["search", "--theorem", "AA", "--fn", "affine", "--c", "2"],
        ["classify", "--fn", "const", "--b", "1"],
        ["classify", "--p", "2"],
    ]
    # a negative seed, which numpy's generator refuses
    NEGATIVE_SEEDS = [
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "0.1", "--hi", "10",
         "--seed", "-1", *FAST],
        ["audit", "--seed", "-1"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--seed", "-1"],
        ["classify", "--fn", "sqrt", "--lo", "0.01", "--hi", "1", "--seed", "-1"],
    ]
    # a non-finite function parameter
    NONFINITE_FN_PARAMS = [
        ["search", "--theorem", "AA", "--fn", "power", "--p", "inf", "--sense",
         "concave", "--budget", "50"],
        ["verify", "--theorem", "AA", "--fn", "const", "--c", "nan", "--lo", "0.1",
         "--hi", "10", *FAST],
        ["verify", "--arg", "A", "--val", "A", "--fn", "affine", "--a", "inf",
         "--lo", "0.1", "--hi", "10", *FAST],
        ["classify", "--fn", "affine", "--b", "nan"],
    ]
    # the weights whose builder refuses the --weight-param given (or missing)
    WEIGHT_MISUSE = {("identity", True): "takes no", ("reciprocal", True): "takes no",
                     ("power", False): "needs"}

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "20"],
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "5", "--hi", "1"],
        ["search", "--theorem", "AA", "--fn", "square", "--lo", "20"],
        ["verify", "--theorem", "AA", *LOG_BOX],
        ["verify", "--arg", "A", "--val", "A", *LOG_BOX],
        ["search", "--theorem", "AA", *LOG_BOX],
        ["classify", *LOG_BOX],
        ["verify", "--theorem", "AA", "--fn", "square", "--grid", "-1"],
        ["verify", "--theorem", "AA", "--fn", "square", "--grid", "0", "--random", "0"],
        ["classify", "--fn", "square", "--grid", "-1"],
        ["verify", "--theorem", "AA", "--fn", "square", "--weight", "power"],
        # a class checks h > 0 at t = 1/2 as a theorem does
        ["verify", "--arg", "A", "--val", "A", "--fn", "square", "--weight", "constant",
         "--weight-param", "-1"],
        ["means", "--weight", "power", "--x", "1", "--y", "4"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--budget", "0"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--budget", "-5"],
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "0.1", "--hi", "10",
         "--tol", "-1"],
        ["verify", "--arg", "A", "--val", "A", "--fn", "square", "--tol", "nan"],
        ["search", "--theorem", "AA", "--fn", "square", "--tol", "-1"],
        ["classify", "--fn", "square", "--tol", "-1"],
        ["audit", "--tol", "-1"],
        # an infinite tolerance would pass every claim and miss every violation
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "0.1", "--hi", "10",
         "--sense", "concave", "--tol", "inf"],
        ["audit", "--tol", "inf"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--tol", "inf"],
        *WEIGHT_PARAMS,
        # an output path in a missing directory, refused before any computation
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "0.1", "--hi", "10",
         "--json", f"{MISSING_DIR}/report.json"],
        ["audit", "--json", f"{MISSING_DIR}/audit.json"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave",
         "--csv", f"{MISSING_DIR}/witness.csv"],
        *NONPOSITIVE,
        *INFINITE_EDGES,
        *STRAY_FN_PARAMS,
        *NEGATIVE_SEEDS,
        # a non-finite --p once ran the search and reported no violation (the
        # other NONFINITE_FN_PARAMS exited 2 already, but blamed the samples)
        NONFINITE_FN_PARAMS[0],
        # a geometric mean past the largest float
        ["means", "--weight", "power", "--weight-param", "-1", "--t", "1e-6",
         "--x", "0.001", "--y", "1000"],
        # a weighted or classic mean whose product or denominator leaves the
        # float range, once printed as 0 or inf with exit 0
        ["means", "--weight", "power", "--weight-param", "-1", "--t", "1e-6",
         "--x", "1e303", "--y", "1e-300"],
        ["means", "--x", "1e-200", "--y", "1e-200"],
        ["means", "--x", "1e308", "--y", "1e-300"],
        ["means", "--x", "nan", "--y", "4"],
        ["means", "--x", "inf", "--y", "4"],
        ["classify", "--power-exponent", "nan"],
        ["classify", "--power-exponent", "inf"],
    ], ids=" ".join)
    def test_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["-1", "abc", ""])
    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "AA", "--fn", "square", "--lo", "0.1", "--hi", "10",
         *FAST],
        ["audit"],
        ["search", "--theorem", "AA", "--fn", "square", "--sense", "concave"],
        ["classify", "--fn", "sqrt", "--lo", "0.01", "--hi", "1"],
    ], ids=lambda argv: argv[0])
    def test_bad_seed_environment_named(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("MEANCONVEX_SEED", value)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: MEANCONVEX_SEED must be an integer >= 0, got {value!r}\n"

    @pytest.mark.parametrize("argv", NEGATIVE_SEEDS, ids=" ".join)
    def test_negative_seed_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        assert err == "error: --seed must be an integer >= 0, got '-1'\n"

    @pytest.mark.parametrize("argv", NONFINITE_FN_PARAMS, ids=" ".join)
    def test_nonfinite_fn_param_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        flag = next(a for a in argv if a in ("--p", "--a", "--b", "--c"))
        value = argv[argv.index(flag) + 1]
        assert err == f"error: {flag} must be finite, got {value}\n"

    def test_output_path_checked_before_computation(self, capsys, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(cli, "verify_theorem",
                            lambda *args, **kwargs: pytest.fail("verify ran"))
        for flag, path in (("--json", tmp_path), ("--csv", tmp_path / "no" / "w.csv")):
            code, out, err = run(capsys, "verify", "--theorem", "AA", "--fn", "square",
                                 flag, str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {flag} {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", WEIGHT_PARAMS, ids=" ".join)
    def test_nonfinite_weight_param_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        assert err == f"error: --weight-param must be finite, got {argv[-1]}\n"

    @pytest.mark.parametrize("param", [[], ["--weight-param", "2"]],
                             ids=["no-param", "param-2"])
    @pytest.mark.parametrize("weight", sorted(WEIGHT_BUILDERS))
    def test_weight_param_as_builder_takes_it(self, capsys, weight, param):
        code, out, err = run(capsys, "verify", "--theorem", "AA", "--fn", "square",
                             "--lo", "0.1", "--hi", "10", *FAST, "--weight", weight,
                             *param)
        misuse = self.WEIGHT_MISUSE.get((weight, bool(param)))
        if misuse:
            assert (code, out) == (2, "")
            assert err == f"error: --weight {weight} {misuse} --weight-param\n"
        else:
            assert code in (0, 1)
            assert f"[{weight}" in out

    @pytest.mark.parametrize("argv", INFINITE_EDGES, ids=" ".join)
    def test_infinite_edge_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        assert re.match(r"error: sampling box \[-?\S+, -?\S+\] on \w+: cannot sample "
                        r"an unbounded interval", err)

    @pytest.mark.parametrize("argv", STRAY_FN_PARAMS, ids=" ".join)
    def test_stray_fn_param_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        flag = next(a for a in argv if a in ("--p", "--a", "--b", "--c"))
        owner = {"--p": "power", "--a": "affine", "--b": "affine", "--c": "const"}[flag]
        assert err == f"error: {flag} goes only with --fn {owner}\n"

    @pytest.mark.parametrize("argv", NONPOSITIVE, ids=" ".join)
    def test_nonpositive_f_named(self, capsys, argv):
        _, _, err = run(capsys, *argv)
        assert re.match(r"error: \S+\(0\.1\) <= 0, but value mean [GH] needs f > 0$",
                        err)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line(capsys, tmp_path, monkeypatch, line):
    # each example runs as printed; `# exit N` states its exit code, and an
    # example without one must at least not be a usage error
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "meanconvex"
    try:
        code = main(argv[1:])
    except SystemExit as exc:
        code = exc.code
    stated = re.fullmatch(r"\s*exit (\d+)\s*", comment)
    if stated:
        assert code == int(stated.group(1))
    else:
        assert code != 2
