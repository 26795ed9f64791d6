import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nugamma
from nugamma import cli, parallel, randsum
from nugamma.cli import run
from nugamma.dist import SymmetrizedGamma
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

    def test_data_constant_series(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("x\n1.0\n1.0\n1.0\n1.0\n")
        assert run(["audit", str(p)]) == 2

    def test_numeric_underflow_window(self, capsys):
        assert run(["table3", "--delta", "1e-200", "--Delta", "1e-150",
                    "--n-list", "1"]) == 3

    def test_usage_counts_below_one(self, capsys):
        assert run(["hill", "--reps", "0"]) == 1
        assert run(["hill", "--sims", "0"]) == 1
        assert run(["bounds", "--workers", "0"]) == 1
        assert run(["bounds", "--format", "yaml"]) == 1

    @pytest.mark.parametrize("args", [["table1", "--m-list", "0.001"], ["fig1", "--m", "0.001"]])
    def test_numeric_density_overflow(self, args, capsys):
        # the Bessel factor of m = 0.001 overflows double precision
        assert run(args) == 3

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
        monkeypatch.setattr(cli.cffit, "minimize", stalled_minimize)
        assert run(["table3", "--n-list", "1,10"]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_import_skips_scipy_stats_and_interpolate(self):
        # nor any other scipy module: each loads where it is first used
        src = os.path.dirname(os.path.dirname(nugamma.__file__))
        code = ("import sys, nugamma.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_commands_without_quadrature_or_fits_skip_their_imports(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        cells = map(repr, np.linspace(-3.0, 3.0, 200).tolist())
        csv_path.write_text("ret\n" + "\n".join(cells) + "\n")
        # audit last: it needs scipy.special, which stays loaded
        commands = [["bounds"], ["hill", "--sims", "2", "--n", "500"], ["audit", str(csv_path)]]
        code = (
            "import io, sys, contextlib\n"
            "from nugamma.cli import run\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = run(argv)\n"
            "    print(argv[0], code, [p for p in ('scipy.integrate', 'scipy.optimize',\n"
            "                                      'scipy.special') if p in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(nugamma.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
        assert out.stdout.splitlines() == ["bounds 0 []", "hill 0 []",
                                           "audit 0 ['scipy.special']"]


class TestTable1Command:
    def test_reference_values(self, tmp_path):
        body = _run_json(tmp_path, ["table1"])
        rows = body["payload"]
        assert len(rows) == 10
        for row in rows:
            ref = oracles.TABLE1_REFERENCE[int(row["m"])]
            assert row["probability"] == pytest.approx(ref, rel=5e-5)

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


class TestDeterminismAcrossWorkers:
    @pytest.mark.parametrize("args", [
        ["randsum", "--reps", "600", "--p-schedule", "0.2,0.05"],
        ["hill", "--n", "500", "--sims", "6"],
        ["fig2", "--reps", "40", "--n", "300"],
        ["table1", "--m-list", "10,20"],
        ["randsum", "--reps", "10500", "--p-schedule", "0.2,0.05"],  # > 2.5 chunks
    ])
    def test_payload_bytes_identical(self, tmp_path, args):
        a = _run_json(tmp_path, args + ["--workers", "1"], "w1.json")
        b = _run_json(tmp_path, args + ["--workers", "3"], "w3.json")
        assert json.dumps(a["payload"]) == json.dumps(b["payload"])

    def test_fig2_runs_in_process(self, tmp_path, monkeypatch):
        # O(1) work per replicate: no pool, whatever --workers says
        def no_pool(*args, **kwargs):
            raise AssertionError("fig2 started a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        args = ["fig2", "--reps", "10500", "--n", "300"]  # > 2.5 chunks
        a = _run_json(tmp_path, args + ["--workers", "1"], "w1.json")
        b = _run_json(tmp_path, args + ["--workers", "2"], "w2.json")
        assert json.dumps(a["payload"]) == json.dumps(b["payload"])
