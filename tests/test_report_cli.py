import argparse
import ast
import concurrent.futures
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nugamma
from nugamma import cffit, cli, randsum
from nugamma.cli import run
from nugamma.dist import SymmetrizedGamma
from nugamma.errors import FitError, OutOfRegimeError
from nugamma.parallel import child_rng
from nugamma.report import (
    ReportDocument,
    make_document,
    numstr,
    render_csv,
    render_json,
    render_table,
    svg_line_chart,
)

import oracles


def _cli_subprocess(args):
    """The CLI in a fresh interpreter, so an escaped traceback would show."""
    src = os.path.dirname(os.path.dirname(nugamma.__file__))
    return subprocess.run([sys.executable, "-m", "nugamma.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)


def _scipy_modules_after(commands):
    """Per command, in one fresh interpreter: "name exit-code [scipy modules loaded so far]"."""
    code = (
        "import io, sys, contextlib\n"
        "from nugamma.cli import run\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = run(argv)\n"
        "    print(argv[0], code, [p for p in sys.modules if p.split('.')[0] == 'scipy'])\n"
    )
    src = os.path.dirname(os.path.dirname(nugamma.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    return out.stdout.splitlines()


def _run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--format", "json", "--out", str(out)])
    assert code == 0, args
    return json.loads(out.read_text())


class TestRenderers:
    def _doc(self):
        payload = [{"x": 1.0, "y": 5.898426157339282e-05, "note": "a,b"},
                   {"x": 2.0, "y": None, "note": "plain"}]
        return make_document("demo", {"seed": 1}, payload, ["tolerance note"])

    def test_json_roundtrip(self):
        doc = self._doc()
        body = json.loads(render_json(doc))
        assert body["command"] == "demo"
        assert body["payload"][0]["y"] == 5.898426157339282e-05
        assert body["payload"][1]["y"] is None
        assert body["provenance"] == ["tolerance note"]

    def test_csv_quotes_and_numbers(self):
        text = render_csv(self._doc())
        assert "5.898426157339282e-05" in text
        assert '"a,b"' in text
        assert text.startswith("# command: demo")

    def test_identical_numeric_content_across_formats(self):
        doc = self._doc()
        token = numstr(5.898426157339282e-05)
        assert token in render_json(doc)
        assert token in render_csv(doc)
        assert token in render_table(doc)

    def test_payload_bytes_excludes_timestamp(self):
        doc1 = self._doc()
        doc2 = ReportDocument(command=doc1.command, config=doc1.config,
                              payload=doc1.payload, provenance=doc1.provenance,
                              produced_at="2000-01-01T00:00:00+00:00")
        assert doc1.payload_bytes() == doc2.payload_bytes()

    def test_nonfinite_becomes_null(self):
        doc = make_document("demo", {}, [{"v": float("inf")}], [])
        assert json.loads(render_json(doc))["payload"][0]["v"] is None

    @pytest.mark.parametrize("value, json_text, csv_cell", [
        (np.float64(0.1), "0.1", "0.1"),
        (np.float32(0.1), "0.10000000149011612", "0.10000000149011612"),
        (np.int64(-7), "-7", "-7"),
        (np.bool_(True), "true", "true"),
        (np.array(2.5), "2.5", "2.5"),
        (np.array([[1.0, 2.5], [3.0, 4.0]]), "[[1.0, 2.5], [3.0, 4.0]]",
         '"[[1.0, 2.5], [3.0, 4.0]]"'),
        (np.float64("nan"), "null", ""),
        (np.float64("-inf"), "null", ""),
        (np.array([[np.nan, 1.0], [np.inf, 2.0]]), "[[null, 1.0], [null, 2.0]]",
         '"[[None, 1.0], [None, 2.0]]"'),
    ], ids=["float64", "float32", "int64", "bool_", "0-d", "2-d", "nan", "-inf", "2-d-nonfinite"])
    def test_numpy_values_become_plain(self, value, json_text, csv_cell):
        # the finite cases give the text they gave when report imported numpy;
        # a numpy bool_ and a 0-d array then failed to serialize, and numpy
        # nan and inf reached the JSON document as NaN and the CSV as nan
        doc = make_document("demo", {}, [{"v": value}], [])
        assert json.dumps(doc.payload, allow_nan=False) == f'[{{"v": {json_text}}}]'
        assert doc.payload_bytes() == f'[{{"v": {json_text}}}]'.encode()
        assert render_csv(doc).splitlines()[-1] == csv_cell

    def test_svg_chart_structure(self):
        svg = svg_line_chart([("a", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])],
                             "title", "x", "y")
        assert svg.startswith("<svg")
        assert "<polyline" in svg and "</svg>" in svg


class TestExitCodes:
    def test_usage_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_usage_bad_flag_value(self, capsys):
        assert run(["table1", "--k-sigmas", "not-a-number"]) == 1

    def test_usage_negative_domain(self, capsys):
        assert run(["table1", "--m-list", "-5"]) == 1

    def test_data_missing_file(self, capsys):
        assert run(["audit", "/no/such/file.csv"]) == 2

    @pytest.mark.parametrize("option", [["--factor", "0.5"], ["--levels", "-1"]], ids=" ".join)
    def test_audit_options_checked_before_the_file(self, option, capsys):
        # these once read the file first, and a missing one exited 2
        assert run(["audit", "/no/such/file.csv", *option]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [["table1", "--m-list", "inf"], ["fig1", "--m", "inf"],
                                      ["hill", "--m", "inf"], ["table3", "--m", "inf"]],
                             ids=" ".join)
    def test_infinite_m_is_usage_error(self, args):
        # these exited 3, or 1 with a message about k, some after numpy warnings
        out = _cli_subprocess(args)
        assert out.returncode == 1
        assert out.stderr.startswith("usage error: m must be ") and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args, code, prefix", [
        (["bounds", "--sigma", "inf"], 1, "usage error: d and sigma must be finite"),
        (["bounds", "--d-list", "inf"], 1, "usage error: d and sigma must be finite"),
        (["table3", "--Delta", "inf"], 1, "usage error: need 0 < delta < Delta < inf"),
        (["table3", "--Delta", "1e300"], 3, "numeric error: every row failed"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_nonfinite_or_overflowing_inputs_fail_in_one_line(self, args, code, prefix):
        # these exited 0 with blank or meaningless rows, or after numpy
        # warnings and LAPACK messages
        out = _cli_subprocess(args)
        assert out.returncode == code
        assert out.stderr.startswith(prefix) and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    def test_bounds_at_underflowing_scales(self):
        # d^2 and sigma^2 underflowed to 0: exit 3 with a ZeroDivisionError
        out = _cli_subprocess(["bounds", "--sigma", "1e-171", "--d-list", "1e-170"])
        assert out.returncode == 0 and "Traceback" not in out.stderr
        assert "0.0044444444444444444" in out.stdout and "0.01 " in out.stdout

    def test_data_constant_series(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("x\n1.0\n1.0\n1.0\n1.0\n")
        assert run(["audit", str(p)]) == 2

    def test_numeric_underflow_window(self, capsys):
        assert run(["table3", "--delta", "1e-200", "--Delta", "1e-150",
                    "--n-list", "1"]) == 3

    def test_usage_counts_below_one(self, capsys):
        assert run(["fig2", "--reps", "0"]) == 1
        assert run(["randsum", "--reps", "0"]) == 1
        assert run(["hill", "--sims", "0"]) == 1
        assert run(["bounds", "--workers", "0"]) == 1
        assert run(["bounds", "--format", "yaml"]) == 1
        capsys.readouterr()
        # these once failed in tail_ratio_curve's grid check and in numpy,
        # and hill --n -5 in hill_k with a TypeError traceback
        assert run(["fig1", "--points", "0"]) == 1
        assert run(["fig1", "--points", "-3"]) == 1
        assert run(["hill", "--n", "0"]) == 1
        assert run(["hill", "--n", "-5"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "usage error: argument --points: must be >= 1, got 0",
            "usage error: argument --points: must be >= 1, got -3",
            "usage error: argument --n: must be >= 1, got 0",
            "usage error: argument --n: must be >= 1, got -5"]

    # 1e17 float64 values are 711 PiB, beyond any address space, so the
    # allocation is refused before a page is touched
    @pytest.mark.parametrize("args", [["table3", "--grid-size", "100000000000000000"],
                                      ["fig1", "--points", "100000000000000000"],
                                      ["hill", "--n", "100000000000000000", "--sims", "1"]],
                             ids=" ".join)
    def test_unallocatable_size_is_usage_error(self, args):
        # these printed numpy's MemoryError traceback
        out = _cli_subprocess(args)
        assert out.returncode == 1
        assert out.stderr.startswith("usage error: Unable to allocate ")
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ["table1", "--m-list", ","], ["bounds", "--d-list", ","], ["table3", "--n-list", ","],
        ["randsum", "--p-schedule", ","], ["audit", "returns.csv", "--levels", ","],
        ["table3", "--n-list", "10.7"], ["table3", "--n-list", "inf"],
    ], ids=" ".join)
    def test_usage_list_without_values(self, args, capsys):
        # an empty list once ran to an empty table, 10.7 fitted n = 10, and
        # inf escaped as an OverflowError traceback
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_every_row_failed(self, monkeypatch):
        def fit(m, n, window, method):
            if n < 2:
                raise FitError(f"bad {n}")
            return cffit.StableFit(alpha=1.5, lam=0.5, residual=0.0, method=method)

        monkeypatch.setattr(cffit, "fit_stable_to_cf", fit)
        window = cffit.FitWindow(0.005, 0.5)
        assert cli._fit_rows(20.0, [1, 2], window, "ls-cf") == [
            {"n": 1, "alpha": None, "lambda": None, "residual": None, "method": "ls-cf",
             "error": "bad 1"},
            {"n": 2, "alpha": 1.5, "lambda": 0.5, "residual": 0.0, "method": "ls-cf"}]
        with pytest.raises(FitError, match="^every row failed; first: bad 0$"):
            cli._fit_rows(20.0, [0, 1], window, "ls-cf")

    @pytest.mark.parametrize("args", [["table1", "--m-list", "0.001"], ["fig1", "--m", "0.001"]])
    def test_density_reaches_m_1e_3(self, args, tmp_path):
        # the Bessel factor of m = 0.001 overflowed double precision, and these
        # exited 3.  fig1's ratio is blank only where P{X > 1.5 x} underflows
        # (x >= 40 at the default window).
        rows = _run_json(tmp_path, args)["payload"]
        values = [r.get("probability", r.get("ratio")) for r in rows]
        defined = [v for v in values if v is not None]
        assert values[0] is not None and len(defined) >= min(len(values), 39)
        assert all(np.isfinite(v) and v > 0 for v in defined)

    @pytest.mark.parametrize("command", [["table1"], ["table3"], ["fig1"], ["bounds"],
                                         ["audit", "returns.csv"], ["hill"]], ids=" ".join)
    def test_reps_only_where_it_is_read(self, command, capsys):
        # these accepted --reps and ignored it
        assert run([*command, "--reps", "500"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: unrecognized arguments: --reps 500\n"

    def test_fig2_single_replicate_is_usage_error(self):
        # one draw spans no central interval: this ran to 512 rows at one x
        out = _cli_subprocess(["fig2", "--reps", "1", "--n", "20"])
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("usage error: need n >= 1 and replicates >= 2")
        assert out.stderr.count("\n") == 1

    def test_fig2_exponent_zero_is_usage_error(self):
        # formerly a ZeroDivisionError traceback
        out = _cli_subprocess(["fig2", "--exponent", "0", "--reps", "10", "--n", "20"])
        assert out.returncode == 1
        assert "Traceback" not in out.stderr and "exponent_alpha" in out.stderr

    @pytest.mark.parametrize("body", [b'x\n1\n"' + b"9" * 200000 + b'"\n', b"x\n1\n\xff\n2\n"],
                             ids=["long-field", "undecodable"])
    def test_unreadable_csv_is_data_error(self, tmp_path, body):
        # a quoted field over csv's default limit of 131072 characters was a
        # _csv.Error traceback, and undecodable bytes a usage error
        p = tmp_path / "bad.csv"
        p.write_bytes(body)
        out = _cli_subprocess(["audit", str(p)])
        assert out.returncode == 2
        assert out.stderr.startswith("data error: ") and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("cell", [b'"' + b"9" * 200000 + b'"', b"9" * 200000, b"0" * 200000],
                             ids=["quoted", "unquoted", "zeros"])
    def test_over_long_cell_is_data_error(self, tmp_path, cell):
        # unquoted, the digits once read as one skipped row and the zeros as 0.0
        p = tmp_path / "long.csv"
        p.write_bytes(b"t,ret\n0,0.5\n1," + cell + b"\n2,-0.5\n3,1.5\n")
        out = _cli_subprocess(["audit", str(p), "--column", "ret"])
        assert out.returncode == 2
        assert out.stderr.startswith("data error: malformed CSV") and "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ["audit", "--factor", "0.5"], ["audit", "--levels", "-1"], ["audit", "--levels", "nan"],
        ["audit", "--factor", "nan"], ["fig1", "--factor", "nan"], ["fig1", "--x-max", "inf"],
    ], ids=" ".join)
    def test_bad_tail_option_is_usage_error(self, tmp_path, args):
        # these exited 0: audit wrote the error into its notes, fig1 took nan
        # as a factor, and an infinite x range printed numpy warnings
        if args[0] == "audit":
            p = tmp_path / "r.csv"
            x = child_rng(0x5EED, 5).normal(size=200)
            p.write_text("ret\n" + "".join(f"{v!r}\n" for v in x.tolist()))
            args = ["audit", str(p), *args[1:]]
        out = _cli_subprocess(args)
        assert out.returncode == 1
        assert out.stderr.startswith("usage error: ") and out.stderr.count("\n") == 1

    @pytest.mark.parametrize("args, prefix", [
        pytest.param(args, prefix, id=" ".join(args)) for args, prefix in [
            (["table1", "--m-list", "1e-300"], "usage error: m=1e-300 is outside"),
            (["fig1", "--m", "1e-5"], "usage error: m=1e-05 is outside"),
            (["randsum", "--component", "sg", "--m", "3", "--p-schedule", "1e-18"],
             "usage error: p=1e-18 is below"),
            (["randsum", "--component", "sg", "--m", "3", "--p-schedule", "1e-300"],
             "usage error: p=1e-300 is below"),
        ]])
    def test_outside_the_tested_domain_is_usage_error(self, args, prefix, capsys):
        # table1 printed 2.0 and fig1 a curve, both with exit 0; randsum said
        # "shape < 0" or numpy's "lam value too large"
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1

    def test_out_of_domain_m_refused_before_any_draw(self, monkeypatch, capsys):
        # the KS target's CDF table refused m = 20000 only after stage 0 drew
        monkeypatch.setattr(randsum, "random_sum_draws",
                            lambda *a, **k: pytest.fail("a stage drew before the m check"))
        with pytest.raises(OutOfRegimeError, match="m=20000 is outside"):
            randsum.theorem1_experiment(20000, randsum.Component.uniform_var2(),
                                        [0.01, 0.001], 100000, 1)
        assert run(["randsum", "--m", "20000", "--reps", "100000",
                    "--p-schedule", "0.01,0.001"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: m=20000 is outside")
        assert err.count("\n") == 1

    def test_randsum_over_draw_budget_is_usage_error(self, capsys):
        assert run(["randsum", "--reps", "100000", "--p-schedule", "0.01,0.000001"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_stray_arithmetic_error_is_numeric(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(randsum, "prelimit_experiment", boom)
        assert run(["fig2", "--reps", "10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: OverflowError") and "Traceback" not in err

    def test_unconverged_fit_is_numeric(self, monkeypatch, capsys, stalled_minimize):
        monkeypatch.setattr(randsum, "minimize", stalled_minimize)
        assert run(["fig2", "--reps", "30", "--n", "200"]) == 3
        monkeypatch.setattr(cffit, "minimize", stalled_minimize)
        assert run(["table3", "--n-list", "1,10"]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_cold_start_loads_only_what_the_command_runs(self, tmp_path):
        # import time is setup time: the parser needs no numpy and no module
        # of the package beyond its defaults, bounds is arithmetic, and the
        # pool machinery loads only when a pool starts
        src = os.path.dirname(os.path.dirname(nugamma.__file__))
        code = ("import sys; from nugamma.cli import run\n"
                "def loaded():\n"
                "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'nugamma'),\n"
                "          [m for m in ('numpy', 'multiprocessing', 'concurrent.futures.process')\n"
                "           if m in sys.modules])\n"
                "loaded(); run(['bounds', '--out', 'bounds.txt']); loaded()")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
                             cwd=tmp_path)
        assert out.stdout.splitlines() == [
            str(["nugamma", "nugamma.cli", "nugamma.conventions", "nugamma.errors"]) + " []",
            str(["nugamma", "nugamma.bounds", "nugamma.cli", "nugamma.conventions",
                 "nugamma.errors", "nugamma.report"]) + " []"]
        assert (tmp_path / "bounds.txt").read_text().startswith("bounds\n")

    def test_no_command_loads_scipy(self, tmp_path):
        # the density's Bessel factor and the tables' tails are the package's
        # own numpy rules, and both fits use the package Nelder-Mead, so no
        # subcommand loads any scipy module; the first line would also list
        # any that the import of nugamma.cli loaded
        csv_path = tmp_path / "r.csv"
        cells = map(repr, np.linspace(-3.0, 3.0, 200).tolist())
        csv_path.write_text("ret\n" + "\n".join(cells) + "\n")
        commands = [["table1"], ["table3", "--method", "both"], ["fig1"], ["bounds"],
                    ["audit", str(csv_path)], ["randsum", "--reps", "400"],
                    ["randsum", "--component", "sg", "--reps", "400"],
                    ["fig2", "--reps", "200", "--n", "300"], ["hill", "--sims", "2", "--n", "500"]]
        assert _scipy_modules_after(commands) == [f"{argv[0]} 0 []" for argv in commands]


class TestTable1Command:
    def test_strict_sigma_flag_changes_threshold(self, tmp_path):
        body = _run_json(tmp_path, ["table1", "--m-list", "10", "--strict-sigma"])
        assert body["payload"][0]["probability"] == pytest.approx(
            oracles.SG_EXCEED_TRUE_SIGMA[10], rel=1e-6)

    def test_single_row(self, tmp_path):
        body = _run_json(tmp_path, ["table1", "--m-list", "10"])
        assert len(body["payload"]) == 1


class TestTable3Command:
    def test_default_rows(self, tmp_path):
        body = _run_json(tmp_path, ["table3", "--n-list", "1,100"])
        rows = body["payload"]
        assert rows[0]["alpha"] == pytest.approx(1.26906, abs=0.05)
        assert rows[1]["lambda"] == pytest.approx(0.961771, abs=0.1)
        assert rows[0]["method"] == "ls-cf"

    def test_both_methods_mode(self, tmp_path):
        body = _run_json(tmp_path, ["table3", "--n-list", "1", "--method", "both"])
        assert set(body["payload"]) == {"ls-cf", "loglog-regression"}


class TestFig1Command:
    def test_fixture_points(self, tmp_path):
        body = _run_json(tmp_path, ["fig1"])
        rows = {row["x"]: row["ratio"] for row in body["payload"]}
        for x, expect in oracles.TAIL_RATIO_M50.items():
            assert rows[x] == pytest.approx(expect, rel=1e-6)

    def test_factor_one_identity_curve(self, tmp_path):
        body = _run_json(tmp_path, ["fig1", "--factor", "1.0", "--points", "9"])
        assert all(row["ratio"] == pytest.approx(1.0) for row in body["payload"])

    def test_factor_below_one_rejected(self, capsys):
        assert run(["fig1", "--factor", "0.5"]) == 1

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "c.svg"
        code = run(["fig1", "--points", "10", "--svg", str(svg),
                    "--out", str(tmp_path / "o.txt")])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text



CHART_CASES = [
    (["table1", "--m-list", "10,20"], "m", ["probability"]),
    (["table3", "--n-list", "1,10", "--method", "both"], "n", ["alpha"]),
    (["fig1", "--points", "10"], "x", ["ratio"]),
    (["fig2", "--reps", "30", "--n", "200"], "x", ["empirical", "stable_fit"]),
    (["hill", "--sims", "2", "--n", "500"], "k", ["mean_gamma_hat"]),
    (["bounds", "--d-list", "1,2,10"], "d", ["bound"]),
    (["audit", "{csv}"], "x", ["ratio"]),
    (["randsum", "--reps", "500", "--p-schedule", "0.2"], "p", ["ks_distance"]),
]


class TestCharts:
    """Every chart is a view of payload rows: one line per y column, its
    legend the column name, the x axis labelled with the x column."""

    @pytest.mark.parametrize("args, x, ys", CHART_CASES, ids=[c[0][0] for c in CHART_CASES])
    def test_svg_lines_follow_columns(self, tmp_path, args, x, ys):
        csv_path = tmp_path / "returns.csv"
        x_sample = SymmetrizedGamma(10.0).sample(child_rng(0x5EED, 78), 500)
        csv_path.write_text("ret\n" + "\n".join(repr(float(v)) for v in x_sample) + "\n")
        svg = tmp_path / "c.svg"
        argv = [a.format(csv=csv_path) for a in args]
        assert run(argv + ["--svg", str(svg), "--out", str(tmp_path / "o.txt")]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == len(ys)
        assert f'font-size="13">{x}</text>' in text
        for y in ys:
            assert f'font-size="12">{y}</text>' in text


class TestFig2Command:
    def test_small_noisy_run_is_well_formed(self, tmp_path):
        body = _run_json(tmp_path, ["fig2", "--reps", "30", "--n", "200"])
        fit = body["payload"]["fit"][0]
        assert set(fit) == {"alpha", "lambda", "ks", "residual"}
        assert 0.8 <= fit["alpha"] <= 2.0
        assert len(body["payload"]["ecdf"]) == 512

    def test_clt_exponent_alpha_near_two(self, tmp_path):
        # 4000 replicates: at 400, one seed in six fits alpha below 1.9
        body = _run_json(tmp_path, ["fig2", "--reps", "4000", "--n", "2000",
                                    "--m", "1", "--exponent", "2.0"])
        assert body["payload"]["fit"][0]["alpha"] > 1.9


class TestHillCommand:
    def test_defaults_small(self, tmp_path):
        body = _run_json(tmp_path, ["hill", "--n", "400", "--sims", "3"])
        rows = body["payload"]
        assert [r["k"] for r in rows] == [20, 54, 120]
        for r in rows:
            assert r["alpha_implied"] == pytest.approx(1.0 / r["mean_gamma_hat"], rel=1e-12)

    def test_single_sim_reproducible(self, tmp_path):
        a = _run_json(tmp_path, ["hill", "--n", "300", "--sims", "1"], "a.json")
        b = _run_json(tmp_path, ["hill", "--n", "300", "--sims", "1"], "b.json")
        assert a["payload"] == b["payload"]

    def test_small_n_ks(self, tmp_path):
        body = _run_json(tmp_path, ["hill", "--n", "100", "--sims", "2"])
        assert [r["k"] for r in body["payload"]] == [10, 21, 39]


class TestBoundsCommand:
    def test_reference_rows(self, tmp_path):
        body = _run_json(tmp_path, ["bounds", "--d-list", "10,40"])
        gauss = [r for r in body["payload"] if r["kind"] == "gauss-unimodal"]
        assert gauss[0]["bound"] == pytest.approx(1.0 / 225.0, rel=1e-12)
        assert gauss[0]["expected_exceedances"] == pytest.approx(222.222, abs=5e-3)
        assert gauss[1]["expected_exceedances"] == pytest.approx(13.889, abs=5e-3)

    def test_out_of_regime_row(self, tmp_path):
        body = _run_json(tmp_path, ["bounds", "--d-list", "1"])
        rows = body["payload"]
        gauss = [r for r in rows if r["kind"] == "gauss-unimodal"][0]
        cheb = [r for r in rows if r["kind"] == "chebyshev"][0]
        assert gauss["bound"] is None and "error" in gauss
        assert cheb["bound"] == 1.0


class TestAuditCommand:
    def _write_sample(self, tmp_path, n=4000, m=10.0):
        x = SymmetrizedGamma(m).sample(child_rng(0x5EED, 77), n)
        p = tmp_path / "returns.csv"
        p.write_text("ret\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        return p, x

    def test_round_trip(self, tmp_path):
        p, x = self._write_sample(tmp_path)
        body = _run_json(tmp_path, ["audit", str(p)])
        summary = body["payload"]["summary"][0]
        assert summary["n"] == 4000
        assert summary["kurtosis"] > 10.0
        assert len(body["payload"]["hill"]) == 3
        assert len(body["payload"]["exceedances"]) == 3

    def test_headerless_autodetect(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(str(v) for v in np.linspace(-2, 2, 50)) + "\n")
        body = _run_json(tmp_path, ["audit", str(p)])
        assert body["payload"]["summary"][0]["n"] == 50

    def test_skipped_rows_reported(self, tmp_path):
        p = tmp_path / "messy.csv"
        p.write_text("x\n1.0\nbad\n2.0\n-1.0\n0.5\n")
        body = _run_json(tmp_path, ["audit", str(p)])
        assert body["payload"]["summary"][0]["skipped_rows"] == 1

    def test_strict_mode_data_error(self, tmp_path, capsys):
        p = tmp_path / "messy.csv"
        p.write_text("x\n1.0\nbad\n2.0\n")
        assert run(["audit", str(p), "--strict"]) == 2


class TestRandsumCommand:
    def test_small_schedule(self, tmp_path):
        body = _run_json(tmp_path, ["randsum", "--reps", "2000",
                                    "--p-schedule", "0.2,0.02"])
        rows = body["payload"]
        assert len(rows) == 2
        assert rows[0]["ks_distance"] > rows[1]["ks_distance"]
        assert rows[0]["ks_critical_1pct"] == pytest.approx(1.6276 / np.sqrt(2000), rel=1e-3)

    def test_single_replicate(self, tmp_path):
        body = _run_json(tmp_path, ["randsum", "--reps", "1", "--p-schedule", "0.5"])
        assert len(body["payload"]) == 1

    def test_sg_component_flag(self, tmp_path):
        body = _run_json(tmp_path, ["randsum", "--reps", "500",
                                    "--p-schedule", "0.2", "--component", "sg"])
        assert body["payload"][0]["ks_distance"] < 0.1


class TestOptions:
    # options that shape the run rather than the result: no handler need read them
    RUN_LEVEL = {"help", "seed", "workers", "format", "out", "svg"}

    @staticmethod
    def _subcommands():
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_every_option_is_read_by_its_handler(self):
        # an option that its handler never reads is a flag that does nothing
        for name, q in self._subcommands().items():
            tree = ast.parse(inspect.getsource(q.get_default("handler")))
            read = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"}
            unread = {a.dest for a in q._actions} - self.RUN_LEVEL - read
            assert not unread, f"{name} never reads {sorted(unread)}"

    def test_config_echoes_the_parsed_options(self, tmp_path):
        parser = cli.build_parser()
        defaults = {"fig2": 1000, "randsum": 100000}
        for name in self._subcommands():
            argv = [name, "returns.csv"] if name == "audit" else [name]
            cfg = cli._config_echo(parser.parse_args(argv))
            assert list(cfg) == sorted(cfg) and {"command", "handler", "out"}.isdisjoint(cfg)
            assert cfg.get("replicates") == defaults.get(name), name
        fig2 = _run_json(tmp_path, ["fig2", "--reps", "30", "--n", "200"], "fig2.json")
        sums = _run_json(tmp_path, ["randsum", "--reps", "300", "--p-schedule", "0.5"])
        assert fig2["config"]["replicates"] == 30 and sums["config"]["replicates"] == 300


class TestDeterminismAcrossWorkers:
    def test_payload_bytes_identical(self, tmp_path):
        # > 2.5 chunks, so --workers 3 starts a pool; acceptance criterion 13
        # runs randsum, hill, fig2 and table1 at --workers 1 against 3
        args = ["randsum", "--reps", "10500", "--p-schedule", "0.2,0.05"]
        a = _run_json(tmp_path, args + ["--workers", "1"], "w1.json")
        b = _run_json(tmp_path, args + ["--workers", "3"], "w3.json")
        assert json.dumps(a["payload"]) == json.dumps(b["payload"])

    def test_fig2_runs_in_process(self, tmp_path, monkeypatch):
        # O(1) work per replicate: no pool, whatever --workers says
        def no_pool(*args, **kwargs):
            raise AssertionError("fig2 started a process pool")

        # parallel imports the pool class where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        args = ["fig2", "--reps", "10500", "--n", "300"]  # > 2.5 chunks
        a = _run_json(tmp_path, args + ["--workers", "1"], "w1.json")
        b = _run_json(tmp_path, args + ["--workers", "2"], "w2.json")
        assert json.dumps(a["payload"]) == json.dumps(b["payload"])
