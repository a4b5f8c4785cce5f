"""End-to-end tests for the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from solitonlab import cli, numerics
from solitonlab.solitons import SolitonConfig, default_grid, tau_hirota_grid, tau_logdet_grid


@pytest.fixture()
def cfg_file(tmp_path):
    def make(k, c, times=None, name="cfg.json"):
        data = {"k": list(k), "c": list(c)}
        if times:
            data["times"] = times
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return make


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_readme_command_lines_parse():
    # every solitonlab line of README's sh blocks, so that a removed option
    # cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("solitonlab ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


class TestConfigParsing:
    def test_round_trip(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0), {3: 0.25})
        assert cli.parse_config(cli.config_to_json(cfg)) == cfg

    def test_rejects_unknown_field(self):
        from solitonlab.solitons import ConfigError

        with pytest.raises(ConfigError):
            cli.parse_config('{"k": [1], "c": [2], "bogus": 1}')

    def test_rejects_bad_json(self):
        from solitonlab.solitons import ConfigError

        with pytest.raises(ConfigError):
            cli.parse_config("{not json")


class TestPotential:
    def test_csv_shape_and_values(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        code, out = run(capsys, "potential", path, "--grid", "-2", "2", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,U"
        assert len(lines) == 6
        x0, u0 = (float(v) for v in lines[3].split(","))
        assert x0 == 0.0
        assert u0 == pytest.approx(-2.0, abs=1e-12)

    def test_csv_uses_lf_only(self, cfg_file, tmp_path, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        dest = tmp_path / "out.csv"
        code, _ = run(capsys, "potential", path, "--grid", "-1", "1", "3",
                      "--output", str(dest))
        assert code == 0
        raw = dest.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_deterministic_output(self, cfg_file, capsys):
        path = cfg_file([0.7, 1.9], [3.0, 0.5])
        _, a = run(capsys, "potential", path)
        _, b = run(capsys, "potential", path)
        assert a == b

    def test_json_format(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        code, out = run(capsys, "potential", path, "--format", "json",
                        "--grid", "-1", "1", "3")
        assert code == 0
        data = json.loads(out)
        assert data["U"][1] == pytest.approx(-2.0, abs=1e-12)

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(capsys, "potential", "/nonexistent/cfg.json")
        assert code == 2

    def test_unreadable_config_path_is_usage_error(self, tmp_path, capsys):
        # a directory is an OSError other than FileNotFoundError; exit 1
        # would read as a failed verification
        code, out = run(capsys, "verify", str(tmp_path))
        assert code == cli.EXIT_USAGE and out == ""

    def test_invalid_config_is_usage_error(self, cfg_file, tmp_path, capsys):
        path = cfg_file([2.0, 1.0], [1.0, 1.0])  # unordered k
        code, _ = run(capsys, "potential", path)
        assert code == 2
        # non-finite or non-numeric data: never a NaN result, a verification
        # failure or a traceback
        for i, text in enumerate([
            '{"k": [NaN], "c": [1]}', '{"k": [1], "c": [Infinity]}', '{"k": [1], "c": [2], "times": {"3": NaN}}',
            '{"k": 1, "c": 2}', '{"k": [null], "c": [1]}', '{"k": [[1]], "c": [1]}',
            '{"k": [1], "c": [2], "times": {"3": null}}', '{"k": [1], "c": [2], "times": [3]}',
            '{"k": "12", "c": "34"}', '{"k": ["2"], "c": [1]}', '{"k": [1], "c": [true]}',
            '{"k": [1], "c": [2], "times": {"3": "0.1"}}',
        ]):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(text)
            for command in ("potential", "verify"):
                code, out = run(capsys, command, str(bad))
                assert (code, out) == (2, "")

    def test_bad_config_creates_no_output_file(self, cfg_file, tmp_path, capsys):
        # the output file is opened only once the config has parsed
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        for config in (str(tmp_path / "missing.json"), str(bad_json), cfg_file([2.0, 1.0], [1.0, 1.0])):
            target = tmp_path / "o.txt"
            assert cli.main(["potential", config, "--output", str(target)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert not target.exists()

    def test_beyond_enumeration_budget_is_numerical_failure(self, cfg_file, capsys):
        # a valid 25-soliton config is past potential_fn's 2^N budget: a
        # numerical failure (exit 3), not a usage error, and nothing on stdout
        path = cfg_file([0.5 + 0.25 * j for j in range(25)], [1.0] * 25)
        assert cli.main(["potential", path]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == "" and "2^N enumeration budget exceeded: N=25 > 24" in err

    def test_bad_grid_is_usage_error(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        for grid in (["2", "-2", "5"], ["nan", "1", "5"], ["-1", "inf", "5"], ["0", "1", "inf"], ["0", "1", "2.5"]):
            code, out = run(capsys, "potential", path, "--grid", *grid)
            assert (code, out) == (2, "")


class TestEigenAndEvolve:
    def test_eigen_matches_closed_form(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        code, out = run(capsys, "eigen", path, "--index", "1",
                        "--grid", "-1", "1", "3")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        phi0 = float(rows[1][1])
        assert phi0 == pytest.approx(0.5, abs=1e-12)

    def test_beyond_jet_sum_budget_is_numerical_error(self, cfg_file, capsys):
        from solitonlab import solitons as S

        cfg = S.random_config(np.random.default_rng(122), n=13, k_range=(0.2, 8.0))
        path = cfg_file(cfg.k, cfg.c)
        for argv in (["eigen", path, "--index", "2"], ["verify", path]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == cli.EXIT_NUMERICAL
            assert captured.out == ""
            assert "N=13" in captured.err

    def test_eigen_matches_per_point_eigenfunction(self, cfg_file, capsys):
        from solitonlab import solitons as S

        k, c = (0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0)
        path = cfg_file(k, c)
        cfg = SolitonConfig(k, c)
        xs = np.linspace(-9.0, 9.0, 37)
        for index in (1, 4):
            code, out = run(capsys, "eigen", path, "--index", str(index), "--grid", "-9", "9", "37")
            assert code == 0
            lines = ["x,phi,dphi"]
            for x in xs:
                jet = S.eigenfunction(cfg, index, float(x), 1)
                lines.append(",".join(repr(float(v)) for v in (x, jet.coeffs[0], jet.deriv(1))))
            assert out == "\n".join(lines) + "\n"

    def test_eigen_makes_one_core_call(self, cfg_file, capsys, grid_tau_calls):
        # the config's tau and the state's numerator, at order 1, together
        code, _ = run(capsys, "eigen", cfg_file([0.7, 1.3, 2.1], [1.5, 3.0, 0.4]), "--index", "2")
        assert code == 0
        [(rules, order)] = grid_tau_calls
        assert rules[0] is None and len(rules) == 2 and order == 1

    def test_eigen_with_prefactors_beyond_float_range(self, cfg_file, capsys):
        """c_j = 1e40 takes the Hirota prefactors past 1e308: the rows
        are finite, or the run is a numerical failure; never NaN with
        exit 0."""
        path = cfg_file([1.0 + 0.5 * j for j in range(8)], [1e40] * 8)
        for index in ("1", "8"):
            code, out = run(capsys, "eigen", path, "--index", index)
            assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
            if code == cli.EXIT_OK:
                rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
                assert rows.shape == (2001, 3) and np.all(np.isfinite(rows))

    def test_eigen_bad_index(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        code, _ = run(capsys, "eigen", path, "--index", "4")
        assert code == 2

    def test_evolve_blocks(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "evolve", path, "--t-values=-0.1,0,0.1",
                        "--grid", "-1", "1", "3")
        assert code == 0
        blocks = [line for line in out.splitlines() if line.startswith("# t=")]
        assert len(blocks) == 3
        assert out.count("x,U") == 3

    def test_evolve_t0_matches_potential(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        _, ref = run(capsys, "potential", path, "--grid", "-1", "1", "5")
        _, ev = run(capsys, "evolve", path, "--t-values", "0",
                    "--grid", "-1", "1", "5")
        assert ev.splitlines()[1:] == ref.splitlines()

    def test_evolve_default_grid_covers_every_block(self, cfg_file, capsys):
        # the soliton of depth -2 moves to x = 40 by t = 10; the grid of the
        # config at t = 0 (+-10) held only its far field
        path = cfg_file([1.0], [2.0])
        code, out = run(capsys, "evolve", path, "--t-values=10")
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[2:]])
        assert rows.shape == (2001, 2) and (rows[0, 0], rows[-1, 0]) == (-46.0, 46.0)
        assert rows[:, 1].min() < -1.99 and abs(rows[np.argmin(rows[:, 1]), 0] - 40.0) < 0.05

    def test_evolve_blocks_share_the_widest_default_grid(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        _, out = run(capsys, "evolve", path, "--t-values=0,10")
        lines = out.splitlines()
        xs = [[line.split(",")[0] for line in lines[b + 2 : b + 2003]] for b in (0, 2003)]
        assert lines[2003] == "# t=10.0" and xs[0] == xs[1] and (xs[0][0], xs[0][-1]) == ("-46.0", "46.0")

    def test_evolve_overflow_is_numerical_error(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, _ = run(capsys, "evolve", path, "--t-values", "1e6")
        assert code == 3
        # no block is printed when a later one fails, on any grid
        for grid in ((), ("--grid", "-1", "1", "3")):
            assert run(capsys, "evolve", path, "--t-values=0,1e6", *grid) == (3, "")
        # a flow that takes c_2 below exp(-700), not to 0 ("must be positive")
        path = cfg_file([1.0, 2.0], [1.0, 1.0], times={"3": -12}, name="underflow.json")
        code, _ = run(capsys, "potential", path)
        assert code == 3


class TestScatterAndSpectrum:
    def test_scatter_reflectionless(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "scatter", path, "--k", "1.3", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["abs_r"] < 1e-6
        assert rep["t_phase_error"] < 1e-5

    def test_scatter_invalid_wavenumber(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        # a wavenumber that is not positive and finite; spectrum takes no
        # step or half-width, the domain rule and the step doubling pick them
        for argv in (
            ["scatter", path, "--k", "-1.0"],
            ["scatter", path, "--k", "inf"],
            ["scatter", path, "--k", "nan"],
            ["spectrum", path, "--step", "0.05"],
            ["spectrum", path, "--halfwidth", "12"],
        ):
            code, _ = run(capsys, *argv)
            assert code == 2

    def test_spectrum_energies(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "spectrum", path, "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert np.allclose(rep["energies"], [-4.0, -1.0], atol=5e-3)
        assert rep["expected"] == [-1.0, -4.0]

    def test_spectrum_default_step_reports_accepted_step(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "spectrum", path, "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert np.max(np.abs(np.array(rep["energies"]) - [-4.0, -1.0])) <= 1e-9
        # the step doubling starts at numerics._MIN_STEPS steps over
        # [-L, L] and settles after at least two more levels
        nsteps = 2.0 * rep["domain_halfwidth"] / rep["grid_step"]
        assert nsteps == pytest.approx(round(nsteps), abs=1e-9)
        levels = round(nsteps) // numerics._MIN_STEPS
        assert levels >= 4 and levels & (levels - 1) == 0

    def test_spectrum_undecayed_is_numerical_error(self, cfg_file, capsys, monkeypatch):
        # no soliton potential is 0 at the widest default half-width
        monkeypatch.setattr(numerics, "DECAY_TOL", 0.0)
        path = cfg_file([0.05], [1.0])
        code, _ = run(capsys, "spectrum", path)
        assert code == 3

    @pytest.mark.parametrize(
        "k, c, expected",
        [([1.0], [1e30], [-1.0]), ([0.7, 1.3], [1e-25, 1.0], [-1.69, -0.49])],
    )
    def test_spectrum_finds_cores_far_from_the_origin(self, cfg_file, capsys, k, c, expected):
        # cores near x = 34 and x = -41, beyond +-12/k_1: the domain rule
        # widens the half-width to hold them (the energies were [] and [-1.69])
        path = cfg_file(k, c)
        code, out = run(capsys, "spectrum", path, "--format", "json")
        assert code == 0
        assert np.max(np.abs(np.array(json.loads(out)["energies"]) - expected)) <= 1e-9

    def test_scatter_and_potential_see_a_far_core(self, cfg_file, capsys):
        path = cfg_file([1.0], [1e30])  # U = -2 sech^2(x - 34.2...)
        code, out = run(capsys, "scatter", path, "--k", "1", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert abs(complex(rep["t_re"], rep["t_im"]) - 1j) <= 1e-8  # t = (i - 1)/(i + 1)
        code, out = run(capsys, "potential", path, "--format", "json")
        assert code == 0
        assert min(json.loads(out)["U"]) == pytest.approx(-2.0, abs=1e-3)

    def test_default_domain_widens_until_decayed(self, cfg_file, capsys):
        # |U(+-12/k_1)| = 1.8e-7 for this config, above the 1e-8 decay check
        k1 = 3.3554874394253624
        path = cfg_file([k1], [0.12711115168446616])
        code, out = run(capsys, "spectrum", path, "--format", "json")
        assert code == 0
        (energy,) = json.loads(out)["energies"]
        assert energy == pytest.approx(-k1 * k1, abs=1e-4)
        code, out = run(capsys, "scatter", path, "--k", "1.0", "--format", "json")
        assert code == 0
        assert json.loads(out)["abs_r"] < 1e-6


class TestTransform:
    def test_darboux_ground_composes(self, cfg_file, tmp_path, capsys):
        # deleting the top state of the sech^2 N=2 config gives the N=1 one
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "transform", path, "--scheme", "darboux-ground")
        assert code == 0
        after = cli.parse_config(out)
        assert after.k == (1.0,)
        assert after.c[0] == pytest.approx(2.0, rel=1e-12)
        # the emitted JSON is itself a valid CLI input
        path2 = tmp_path / "after.json"
        path2.write_text(out)
        code2, out2 = run(capsys, "transform", str(path2), "--scheme", "darboux-ground")
        assert code2 == 0
        assert json.loads(out2)["k"] == []

    def test_krein_adler_violation_is_usage_error(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        code, _ = run(capsys, "transform", path, "--scheme", "krein-adler",
                      "--delete", "2")
        assert code == 2

    def test_krein_adler_unsafe_reports_singular(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        code, out = run(capsys, "transform", path, "--scheme", "krein-adler",
                        "--delete", "2", "--unsafe")
        assert code == 0
        assert json.loads(out)["singular"] is True

    def test_am_add_rescales_exactly(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        code, out = run(capsys, "transform", path, "--scheme", "am-add",
                        "--e", "1=4.0")
        assert code == 0
        after = cli.parse_config(out)
        assert after.k == (1.0, 2.0)
        assert after.c[0] == pytest.approx(6.0 * 4.0 / 5.0, rel=1e-15)
        assert after.c[1] == 12.0

    def test_unknown_scheme_is_usage_error(self, cfg_file, capsys):
        # argparse's choices refuse it before cmd_transform runs
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        assert run(capsys, "transform", path, "--scheme", "bogus") == (2, "")

    def test_am_add_requires_e(self, cfg_file, capsys):
        path = cfg_file([1.0], [2.0])
        code, _ = run(capsys, "transform", path, "--scheme", "am-add")
        assert code == 2
        for e in ("nan", "inf", "1e400", "0"):
            code, out = run(capsys, "transform", path, "--scheme", "am-add", "--e", f"1={e}")
            assert (code, out) == (2, "")


class TestVerify:
    def test_verify_passes(self, cfg_file, capsys):
        path = cfg_file([0.6, 1.4, 2.3], [1.0, 4.0, 0.7])
        code, out = run(capsys, "verify", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert len(rep["reports"]) >= 6
        for r in rep["reports"]:
            assert set(r) >= {"name", "tag", "tolerance", "max_abs_deviation", "pass"}

    def test_verify_impossible_tol_fails(self, cfg_file, capsys):
        path = cfg_file([0.6, 1.4, 2.3], [1.0, 4.0, 0.7])
        code, out = run(capsys, "verify", path, "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_verify_empty_config(self, cfg_file, capsys):
        path = cfg_file([], [])
        code, out = run(capsys, "verify", path)
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("argv", [
        ["verify"], ["evolve", "--t-values=0"], ["transform", "--scheme", "darboux-ground"],
        ["hirota-check"], ["phase-shift"],
    ])
    def test_format_is_usage_error_where_output_has_one_form(self, cfg_file, capsys, argv):
        # these print one fixed form, so a --format they would ignore is refused
        path = cfg_file([1.0, 2.0], [1.0, 1.0])
        code, _ = run(capsys, argv[0], path, *argv[1:], "--format", "json")
        assert code == 2


class TestChecks:
    def test_hirota_check(self, cfg_file, capsys):
        path = cfg_file([0.5, 1.1, 2.0, 3.1], [0.3, 2.0, 5.0, 1.0])
        code, out = run(capsys, "hirota-check", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["max_log_deviation"] < 1e-11
        assert rep["route"] == "cauchy-elimination"
        cfg = SolitonConfig((0.5, 1.1, 2.0, 3.1), (0.3, 2.0, 5.0, 1.0))
        xs = default_grid(cfg)
        ld, _ = tau_logdet_grid(cfg, None, xs)
        lh, _ = tau_hirota_grid(cfg, None, xs)
        dev = np.abs(ld - lh)
        assert rep["worst_x"] in xs
        assert dev[np.flatnonzero(xs == rep["worst_x"])[0]] == dev.max() == rep["max_log_deviation"]

    def test_hirota_check_empty_config(self, cfg_file, capsys):
        code, out = run(capsys, "hirota-check", cfg_file([], []))
        assert code == 0
        rep = json.loads(out)
        assert (rep["max_log_deviation"], rep["worst_x"], rep["pass"]) == (0.0, None, True)

    def test_phase_shift(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [1.0, 1.0])
        code, out = run(capsys, "phase-shift", path, "--T", "3.0")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_phase_shift_config_with_times_is_usage_error(self, cfg_file, capsys):
        path = cfg_file([1.0, 2.0], [1.0, 1.0], times={"3": 0.5, "5": 0.01})
        assert run(capsys, "phase-shift", path) == (2, "")

    @pytest.mark.parametrize("T", ["-3", "0", "nan", "inf", "-inf", "x"])
    def test_phase_shift_T_must_be_positive_and_finite(self, cfg_file, capsys, T):
        # --T -3 would compare the states after and before the collision
        # the wrong way round and report a valid config as failing
        path = cfg_file([1.0, 2.0], [6.0, 12.0])
        assert run(capsys, "phase-shift", path, f"--T={T}") == (2, "")

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "1e400", "-inf", "x"])
    @pytest.mark.parametrize("command", ["verify", "hirota-check", "phase-shift"])
    def test_tol_must_be_positive_and_finite(self, cfg_file, capsys, command, tol):
        path = cfg_file([1.0, 2.0], [1.0, 1.0])
        assert run(capsys, command, path, f"--tol={tol}") == (2, "")

    def test_usage_error_on_unknown_command(self, capsys):
        assert cli.main(["bogus"]) == 2
