import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covspec
from covspec.cli import ConfigError, _build_parser, _write_csv, main, parse_config
from covspec.functionals import FunctionalSpec
from covspec.model import DirectionSpec, ModelConfig, PopulationSpec
from covspec.spectrum import SpectralMeasure

BASE = {
    "n": 100, "N": 500, "entries": "real-gaussian",
    "population": {"atoms": [{"t": 1.0, "w": 1.0}]},
    "direction": {"kind": "e", "index": 0},
    "seed": 7,
}


def _config(tmp_path, **overrides):
    doc = dict(BASE)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


class TestParseConfig:
    def test_spec_example(self):
        rc = parse_config(json.dumps(BASE))
        assert rc.model.n == 100 and rc.model.N == 500
        assert rc.model.ratio == pytest.approx(0.2)
        assert rc.model.seed == 7
        assert rc.model.direction == DirectionSpec.basis(0)
        assert rc.command == "simulate"
        assert rc.reps is None

    def test_n_must_be_positive(self):
        with pytest.raises(ConfigError, match="n must be >= 1"):
            parse_config(json.dumps(dict(BASE, n=0)))

    def test_custom_direction_normalized(self):
        doc = dict(BASE, n=2, direction={"kind": "custom", "vector": [3.0, 4.0]})
        rc = parse_config(json.dumps(doc))
        from covspec.model import realize_direction
        np.testing.assert_allclose(realize_direction(rc.model.direction, 2), [0.6, 0.8])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps(dict(BASE, bogus=1)))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps(dict(BASE, population={"atoms": [], "extra": 1})))

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match=r"^command must be one of \('simulate', "
                                              r"'density', 'clt', 'bridge', 'figures'\)$"):
            parse_config(json.dumps(dict(BASE, command="plot")))

    def test_bad_enum(self):
        with pytest.raises(ConfigError, match="entries"):
            parse_config(json.dumps(dict(BASE, entries="cauchy")))

    def test_missing_field(self):
        doc = dict(BASE)
        del doc["population"]
        with pytest.raises(ConfigError, match="population"):
            parse_config(json.dumps(doc))

    def test_functional_strings(self):
        rc = parse_config(json.dumps(dict(BASE, functionals=["poly:0,1", "log"])))
        assert rc.functionals[0].coeffs == (0.0, 1.0)
        assert rc.functionals[1].kind == "log"
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(BASE, functionals=["exp"])))

    def test_non_finite_coefficients_refused(self):
        for coeffs in ([np.nan], [1.0, np.inf], [0.0, -np.inf, 1.0]):
            with pytest.raises(ValueError, match="^polynomial coefficients must be finite"):
                FunctionalSpec.poly(coeffs)
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite"):
            FunctionalSpec.parse("poly:1e400")  # parses to inf
        assert FunctionalSpec.poly([0.0, 1e300]).coeffs == (0.0, 1e300)


class TestDispatch:
    def test_simulate_outputs(self, tmp_path):
        cfgfile = _config(tmp_path, n=20, N=100, seed=3)
        code = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        assert header == ["lambda", "weight", "uniform_weight"]
        assert rows.shape == (20, 3)
        assert abs(rows[:, 1].sum() - 1.0) <= 1e-10
        assert np.all(np.diff(rows[:, 0]) >= 0)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["c_n"] == pytest.approx(0.2)
        np.testing.assert_allclose(summary["W_n"], np.sum(np.log(rows[:, 0])), rtol=1e-12)
        np.testing.assert_allclose(summary["moments_weighted"], summary["moments_power"],
                                   rtol=1e-8)

    def test_simulate_byte_identical(self, tmp_path):
        cfgfile = _config(tmp_path, n=10, N=20)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out2)]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600], ids=["2^600", "2^-600"])
    def test_simulate_custom_direction_far_from_unit_scale(self, tmp_path, scale):
        # the squares of scale * (1, 1, 0, 0) overflow or underflow; a power of two
        # changes no bit of the direction, so no byte of the output
        outs = [tmp_path / "unit", tmp_path / "scaled"]
        for s, out in zip((1.0, scale), outs):
            cfgfile = _config(tmp_path, n=4, N=20,
                              direction={"kind": "custom", "vector": [s, s, 0.0, 0.0]})
            assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
        for name in ("spectrum.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_runtime_imports_no_scipy(self, tmp_path):
        # scipy is a test oracle only: importing the CLI and running a
        # density call must leave no scipy module loaded
        cfgfile = _config(tmp_path, n=100, N=200,
                          population={"atoms": [{"t": 1.0, "w": 0.5}, {"t": 3.0, "w": 0.5}]})
        script = (
            "import sys\n"
            "import covspec.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            f"code = covspec.cli.main(['density', '--config', {str(cfgfile)!r}, '--out', {str(tmp_path)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(covspec.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 []"]
        assert (tmp_path / "density.csv").is_file()

    def test_density_reference_value(self, tmp_path):
        cfgfile = _config(tmp_path, n=100, N=400)  # c = 0.25
        code = main(["density", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--grid", "0.5,1.0,1.5"])
        assert code == 0
        header, rows = _read_csv(tmp_path / "density.csv")
        assert header == ["x", "f", "F"]
        at_one = rows[rows[:, 0] == 1.0][0]
        assert abs(at_one[1] - 0.61637) <= 1e-3
        assert 0 < at_one[2] < 1

    def test_clt_report(self, tmp_path):
        cfgfile = _config(tmp_path, n=30, N=60, seed=5)
        code = main(["clt", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "20", "--g", "poly:0,1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["R"] == 20
        assert report["functionals"] == ["poly:0,1"]
        assert abs(report["theory_cov_simplified"][0][0] - 2.0) <= 1e-6
        assert abs(report["theory_cov_contour"][0][0] - 2.0) <= 1e-12
        assert 0 <= report["theory_err"] <= 1e-8

    def test_bridge_output(self, tmp_path):
        cfgfile = _config(tmp_path, n=50, N=100, seed=2)
        code = main(["bridge", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "50", "--grid", "0.25,0.5"])
        assert code == 0
        payload = json.loads((tmp_path / "bb.json").read_text())
        assert payload["grid"] == [0.25, 0.5]
        np.testing.assert_allclose(payload["target_cov"],
                                   [[0.1875, 0.125], [0.125, 0.25]])
        emp = np.array(payload["empirical_cov"])
        assert emp.shape == (2, 2)

    def test_figures_small(self, tmp_path):
        cfgfile = _config(tmp_path)
        for which in (2, 3):
            code = main(["figures", "--config", str(cfgfile), "--out", str(tmp_path),
                         "--which", str(which), "--reps", "80"])
            assert code == 0
            header, rows = _read_csv(tmp_path / f"fig{which}.csv")
            assert header == ["x", "kde"] and rows.shape == (512, 2)
            mass = np.trapezoid(rows[:, 1], rows[:, 0])
            assert abs(mass - 1.0) <= 0.02

    def test_csv_format(self, tmp_path):
        # shortest round-trip text is not the format: 17 significant digits, C spellings
        _write_csv(tmp_path / "t.csv", ["a", "b"],
                   [np.array([0.1, np.inf, 5e-324]), np.array([-0.0, np.nan, 1 / 3])])
        want = (b"a,b\n0.10000000000000001,-0\ninf,nan\n"
                b"4.9406564584124654e-324,0.33333333333333331\n")
        assert (tmp_path / "t.csv").read_bytes() == want

    def test_module_entry_point(self, tmp_path):
        src = str(Path(covspec.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfgfile = _config(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "covspec.cli", "density", "--config",
                               str(cfgfile), "--out", str(tmp_path), "--grid", "0.5,1.0"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        header, rows = _read_csv(tmp_path / "density.csv")
        assert header == ["x", "f", "F"] and rows.shape == (2, 3)

    def test_raw_linalg_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError, here from the support's eigvals, is a failed computation
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        cfgfile = _config(tmp_path)
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in density: Eigenvalues did not converge")

    def test_density_tiny_atom_exit_3(self, tmp_path, capsys):
        # u = t sqrt(c w) squares to 0: the support has no edges; this runs
        # under error::RuntimeWarning, so the path must not divide by zero
        cfgfile = _config(tmp_path, population={"atoms": [{"t": 1e-200, "w": 1.0}]})
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in density: support: no bulk interval")
        assert not (tmp_path / "density.csv").exists()

    def test_density_huge_atom_exit_3(self, tmp_path, capsys):
        # u = t sqrt(c w) squares past the largest float: support refuses it
        # before any product, so no overflow warning raises here
        cfgfile = _config(tmp_path, population={"atoms": [{"t": 1e160, "w": 1.0}]})
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in density: support: c w_k t_k^2 overflows")
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("command, t, output", [("density", 1e200, "density.csv"),
                                                     ("simulate", 1e150, "summary.json")])
    def test_overflowing_atom_exit_3(self, tmp_path, command, t, output):
        # run as a user would: numpy's overflow warnings print, they do not raise
        src = str(Path(covspec.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfgfile = _config(tmp_path, n=20, N=40, population={"atoms": [{"t": t, "w": 1.0}]})
        proc = subprocess.run([sys.executable, "-m", "covspec.cli", command, "--config",
                               str(cfgfile), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert f"numerical failure in {command}: " in proc.stderr
        assert not (tmp_path / output).exists()
        if command == "simulate":
            assert f"non-finite value for {output}" in proc.stderr
            assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("command, flag, output", [("clt", "--reps=4", "report.json"),
                                                       ("density", "--grid=1,2", "density.csv")])
    def test_huge_atom_exit_3_without_warnings(self, tmp_path, command, flag, output):
        # run as a user would, where an overflow warning prints: the support
        # refuses the atom before any replicate or density squares it
        src = str(Path(covspec.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        cfgfile = _config(tmp_path, n=20, N=40, population={"atoms": [{"t": 1e160, "w": 1.0}]})
        proc = subprocess.run([sys.executable, "-m", "covspec.cli", command, "--config",
                               str(cfgfile), "--out", str(tmp_path), flag],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(f"numerical failure in {command}: support: c w_k t_k^2 "
                                      "overflows")
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("t", [1e154, 1.3e154])
    def test_density_near_overflow_atom_without_warnings(self, tmp_path, t):
        # t^2 / (1 + t m)^2 in the Newton derivative overflows here: the step
        # is refused with no warning, and the density is the scaled closed form
        src = str(Path(covspec.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfgfile = _config(tmp_path, n=100, N=200, population={"atoms": [{"t": t, "w": 1.0}]})
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "covspec.cli",
                               "density", "--config", str(cfgfile), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _, rows = _read_csv(tmp_path / "density.csv")
        c, u = 0.5, rows[:, 0] / t
        a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
        closed = np.sqrt(np.maximum((b - u) * (u - a), 0.0)) / (2 * np.pi * c * u)
        assert np.max(np.abs(rows[:, 1] * t - closed)) <= 1e-14

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_exit_2(self, tmp_path):
        cfgfile = _config(tmp_path, n=0)
        assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"population": {"atoms": [{"t": "abc", "w": 1.0}]}},
        {"population": {"atoms": [{"t": None, "w": 1.0}]}},
        {"population": {"atoms": [{"t": 1.0, "w": [1.0]}]}},
        {"population": {"atoms": [{"t": True, "w": 1.0}]}},
        {"direction": {"kind": "e", "index": "x"}},
        {"direction": {"kind": "e", "index": 1.7}},
        {"direction": {"kind": "e", "index": 1.0}},
        {"direction": {"kind": "custom", "vector": [1.0, "a"]}},
        {"direction": {"kind": "custom", "vector": [None]}},
        {"grid": ["a"]},
        {"grid": [0.5, None]},
        {"n": True},
        {"seed": True},
        {"reps": True},
    ], ids=["t-str", "t-null", "w-list", "t-bool", "index-str", "index-frac", "index-float",
            "vector-str", "vector-null", "grid-str", "grid-null", "n-bool", "seed-bool",
            "reps-bool"])
    def test_malformed_number_exit_2(self, tmp_path, capsys, overrides):
        cfgfile = _config(tmp_path, **overrides)
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("overrides", [{"which": 2.0}, {"which": True}, {"out": 5}],
                             ids=["which-float", "which-bool", "out-int"])
    def test_figures_config_type_exit_2(self, tmp_path, capsys, overrides):
        # "which": 2.0 once wrote fig2.0.csv, true ran figure 1, and "out": 5 raised TypeError
        cfgfile = _config(tmp_path, reps=20, **overrides)
        argv = ["figures", "--config", str(cfgfile)]
        if "out" not in overrides:  # --out would replace the config's out
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.glob("fig*.csv"))

    @pytest.mark.parametrize("command, grid", [("density", "nan,1"), ("density", "inf"),
                                               ("density", "1e400"), ("bridge", "0.5,nan")])
    def test_nonfinite_grid_flag_exit_2(self, tmp_path, capsys, command, grid):
        # as the same values under the config's grid key
        cfgfile = _config(tmp_path, n=20, N=40)
        reps = ["--reps", "4"] if command == "bridge" else []  # density takes no --reps
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path),
                     *reps, "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("bb.json"))

    def test_negative_grid_flag_needs_equals(self, tmp_path, capsys):
        # argparse reads a value that starts with "-" and is no plain number as a flag
        cfgfile = _config(tmp_path, n=20, N=40)
        argv = ["density", "--config", str(cfgfile), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--grid", "-1,0.5"])
        assert info.value.code == 2 and "expected one argument" in capsys.readouterr().err
        assert main(argv + ["--grid=-1,0.5"]) == 0
        _, rows = _read_csv(tmp_path / "density.csv")
        assert rows[:, 0].tolist() == [-1.0, 0.5] and rows[0, 1:].tolist() == [0.0, 0.0]

    def test_direction_unlike_population_exit_2(self, tmp_path, capsys):
        # with T = diag(1, 3) the direction e0 sees only the atom 1: W = (1, 0), not (1/2, 1/2)
        atoms = {"atoms": [{"t": 1.0, "w": 0.5}, {"t": 3.0, "w": 0.5}]}
        cfgfile = _config(tmp_path, n=30, N=60, population=atoms)
        assert main(["clt", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: direction e0 puts weights [1.0, 0.0] on the "
                              "population atoms [1.0, 3.0]")
        assert not (tmp_path / "report.json").exists()
        cfgfile = _config(tmp_path, n=30, N=60, population=atoms, direction={"kind": "uniform"})
        assert main(["clt", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "4"]) == 0
        assert (tmp_path / "report.json").is_file()

    @pytest.mark.parametrize("entries", ["rademacher", "uniform-rescaled"])
    def test_clt_non_gaussian_entries_exit_2(self, tmp_path, capsys, entries):
        # the theory has no fourth-cumulant term: it would report the Gaussian covariance
        cfgfile = _config(tmp_path, n=30, N=60, entries=entries)
        assert main(["clt", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "4"]) == 2
        assert capsys.readouterr().err == (
            f"config error: entries {entries!r} have a nonzero fourth cumulant; the clt theory "
            f"assumes E X^4 = 3 (real) or E|X|^4 = 2 (complex)\n")
        assert not (tmp_path / "report.json").exists()

    def test_density_gap_below_the_bulk_is_zero(self, tmp_path):
        # {0, 1, 3} at c = 0.5: a point mass at zero, then the bulk from 0.235
        atoms = {"atoms": [{"t": t, "w": 1 / 3} for t in (0.0, 1.0, 3.0)]}
        cfgfile = _config(tmp_path, n=99, N=198, population=atoms)
        assert main(["density", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--grid=-1,1e-300,0.5"]) == 0
        _, rows = _read_csv(tmp_path / "density.csv")
        assert rows[:2, 1].tolist() == [0.0, 0.0] and rows[2, 1] > 0

    def test_uniform_direction_weights_exact_at_large_n(self):
        from covspec.cli import _check_direction

        pop = PopulationSpec(SpectralMeasure([1.0, 3.0], [0.5, 0.5]))
        for n in (10 ** 5 + 1, 10 ** 6):
            _check_direction(ModelConfig(n=n, N=n, entry_dist="real-gaussian", population=pop,
                                         direction=DirectionSpec.uniform()))

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_workers_env_exit_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("COVSPEC_WORKERS", value)
        cfgfile = _config(tmp_path, n=20, N=40)
        assert main(["clt", "--config", str(cfgfile), "--out", str(tmp_path), "--reps", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "COVSPEC_WORKERS" in err

    def test_failed_replicate_exit_3(self, tmp_path, capsys, monkeypatch):
        # an indefinite matrix in place of the sample covariance fails the Gauss rule's check
        g = np.random.default_rng(1).standard_normal((200, 200))
        monkeypatch.setattr(covspec.harness, "sample_cov_block", lambda *a, **k: [(g + g.T)[None]])
        cfgfile = _config(tmp_path, n=200, N=400)
        code = main(["clt", "--config", str(cfgfile), "--out", str(tmp_path), "--reps", "4"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in clt: replicate 0 failed: ")
        assert "nonnegative definite (min Ritz value" in err

    def test_log_functional_at_c_ge_1_exit_2(self, tmp_path, capsys):
        # a log functional is inadmissible at c >= 1: a config fault the library finds
        cfgfile = _config(tmp_path, n=40, N=20)
        code = main(["clt", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--reps", "4", "--g", "log"])
        assert code == 2
        assert capsys.readouterr().err == ("config error: log functional needs the spectrum "
                                           "bounded away from zero\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, overrides", [
        (["clt", "--reps", "1"], {}),
        (["figures", "--reps", "1"], {}),
        (["bridge", "--reps", "1"], {}),
        (["bridge", "--grid", "1.5"], {}),
        (["bridge", "--grid", "0"], {}),
        (["bridge"], {"entries": "rademacher"}),
        (["clt", "--g", "log"], {"N": 20}),
        (["clt", "--g", "log"], {"population": {"atoms": [{"t": 0.0, "w": 0.5},
                                                          {"t": 1.0, "w": 0.5}]},
                                 "direction": {"kind": "uniform"}}),
        (["density", "--grid", "0,1"], {"n": 40, "N": 20}),
        (["density", "--grid", "0.5,abc"], {}),
        (["simulate"], {"n": 1, "population": {"atoms": [{"t": 1.0, "w": 0.5},
                                                          {"t": 3.0, "w": 0.5}]}}),
        (["simulate"], {"direction": {"kind": "custom", "vector": [1.0, 2.0]}}),
        (["clt"], {"direction": {"kind": "custom", "vector": [0.0] * 20}}),
        (["figures", "--which", "1"], {"population": {"atoms": [{"t": t, "w": 0.2}
                                                                for t in (1, 2, 3, 4, 5)]},
                                       "direction": {"kind": "uniform"}}),
        (["density"], {"population": {"atoms": [{"t": 0.0, "w": 1.0}]}}),
        (["clt"], {"population": {"atoms": [{"t": 0.0, "w": 1.0}]}}),
        (["bridge"], {"population": {"atoms": [{"t": 0.0, "w": 1.0}]}}),
        (["clt"], {"functionals": [5]}),
        (["clt"], {"functionals": "log"}),
        (["clt", "--g", "poly:nan"], {}),
        (["clt", "--g", "poly:1,inf"], {}),
        (["clt", "--g", "poly:1e400"], {}),
        (["simulate"], {"direction": {"kind": "e", "index": 0, "vector": [1.0] * 20}}),
        (["simulate"], {"direction": {"kind": "custom", "index": 0, "vector": [1.0] * 20}}),
    ], ids=["clt-reps-1", "figures-reps-1", "bridge-reps-1", "bridge-grid-1.5", "bridge-grid-0",
            "bridge-rademacher", "clt-log-c-1", "clt-log-atom-0", "density-zero-at-atom",
            "density-grid-str", "simulate-n-below-atoms", "simulate-vector-length",
            "clt-vector-zero", "figures-n-below-atoms", "density-no-positive-atom",
            "clt-no-positive-atom", "bridge-no-positive-atom", "functional-number",
            "functionals-string", "functional-nan", "functional-inf", "functional-1e400",
            "basis-vector", "custom-index"])
    def test_input_fault_exit_2(self, tmp_path, capsys, argv, overrides):
        # every fault of the input exits 2, also where the library finds it, and writes nothing
        cfgfile = _config(tmp_path, **dict({"n": 20, "N": 40}, **overrides))
        out = tmp_path / "out"
        if argv[0] in ("clt", "bridge", "figures") and "--reps" not in argv:
            argv = argv + ["--reps", "4"]
        assert main(argv[:1] + ["--config", str(cfgfile), "--out", str(out)] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("argv", [["density", "--reps", "5"], ["simulate", "--g", "log"],
                                      ["clt", "--grid", "1"], ["bridge", "--g", "log"],
                                      ["figures", "--grid", "1"]],
                             ids=["density-reps", "simulate-g", "clt-grid", "bridge-g",
                                  "figures-grid"])
    def test_flag_the_command_does_not_read_exit_2(self, tmp_path, capsys, argv):
        # a command takes only the flags of the config keys it reads
        cfgfile = _config(tmp_path, n=20, N=40)
        with pytest.raises(SystemExit) as info:
            main(argv[:1] + ["--config", str(cfgfile), "--out", str(tmp_path)] + argv[1:])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_flag_slots(self):
        # --config, --out and one flag per key of the command's COMMANDS entry
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        slots = {name: sorted(flag for action in p._actions if action.dest != "help"
                              for flag in action.option_strings)
                 for name, p in sub.choices.items()}
        assert slots == {"simulate": ["--config", "--out"],
                         "density": ["--config", "--grid", "--out"],
                         "clt": ["--config", "--g", "--out", "--reps"],
                         "bridge": ["--config", "--grid", "--out", "--reps"],
                         "figures": ["--config", "--out", "--reps", "--which"]}
        assert sum(map(len, slots.values())) == 17

    def test_basis_index_checked_at_config_n(self, tmp_path):
        # figure 2 runs at n = 5: the direction, unused there, is checked only against n = 100
        cfgfile = _config(tmp_path, n=100, direction={"kind": "e", "index": 10})
        assert main(["figures", "--config", str(cfgfile), "--out", str(tmp_path),
                     "--which", "2", "--reps", "20"]) == 0
        assert (tmp_path / "fig2.csv").is_file()


class TestScaleEquivariance:
    # T = t I scales A by t, exactly when t is a power of two; every self-check
    # and the support's edge filter work on the matrix's or the atoms' own scale
    @pytest.mark.parametrize("t", [2.0 ** 20, 2.0 ** 40, 2.0 ** -40], ids=["2^20", "2^40", "2^-40"])
    @pytest.mark.parametrize("command", ["simulate", "bridge", "clt"])
    def test_rank_deficient_scaled_population_exit_0(self, tmp_path, command, t):
        # n > N: A has n - N zero eigenvalues, which rounding puts a little below 0
        cfgfile = _config(tmp_path, n=60, N=30, seed=3, population={"atoms": [{"t": t, "w": 1.0}]})
        reps = [] if command == "simulate" else ["--reps", "20"]
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path), *reps]) == 0

    def test_simulate_spectrum_scales(self, tmp_path):
        t = 2.0 ** 20
        spectra = []
        for scale in (1.0, t):
            out = tmp_path / str(scale)
            cfgfile = _config(tmp_path, n=200, N=100, seed=3,
                              population={"atoms": [{"t": scale, "w": 1.0}]})
            assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
            spectra.append(_read_csv(out / "spectrum.csv")[1][:, 0])
        unit, scaled = spectra
        # relative to each eigenvalue, with a floor at the largest for the zero ones
        bound = 1e-12 * t * np.maximum(np.abs(unit), unit.max())
        assert np.all(np.abs(scaled - t * unit) <= bound)

    def test_density_scales(self, tmp_path):
        # H = t {1, 3} at c = 0.5 is the law of H = {1, 3} stretched by t: t f and F agree
        t = 2.0 ** -40
        xs = np.linspace(0.0, 12.0, 97)[1:]
        rows = []
        for scale in (1.0, t):
            out = tmp_path / str(scale)
            atoms = {"atoms": [{"t": scale, "w": 0.5}, {"t": 3.0 * scale, "w": 0.5}]}
            cfgfile = _config(tmp_path, n=100, N=200, population=atoms,
                              grid=(scale * xs).tolist())
            assert main(["density", "--config", str(cfgfile), "--out", str(out)]) == 0
            rows.append(_read_csv(out / "density.csv")[1])
        unit, scaled = rows
        assert np.max(np.abs(t * scaled[:, 1] - unit[:, 1])) <= 1e-14
        assert np.max(np.abs(scaled[:, 2] - unit[:, 2])) <= 1e-14
