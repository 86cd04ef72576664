"""Command-line interface: config handling, exit codes, artifacts, checks."""
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io

from biotsplit import biot, cli
from biotsplit.benchmark import PRESETS, make_case, write_json
from biotsplit.cli import (CHECK_NAMES, RATE_FLOORS, ConfigError, _check_contraction,
                           _check_rates, main, parse_config)

TINY = ["--preset", "nu03", "--T", "2e-3", "--n0", "4", "--levels", "2"]


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark defaults\n"
        "algorithm = te\n"
        "n0 = 4          # coarse start\n"
        "levels = 2\n"
        "dt = 2e-3\n"
        "T = 4e-3\n"
        "check = korn, rates\n")
    config = parse_config(["--config", str(cfg), "--algorithm", "coupled"])
    assert config.algorithm == "coupled"  # flag wins
    assert config.n0 == 4
    assert config.levels == 2
    assert config.dt == 2e-3
    assert config.checks == ("korn", "rates")


def test_checks_merge_without_duplicates(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("check = korn\n")
    config = parse_config(["--config", str(cfg), "--check", "korn",
                           "--check", "energy"])
    assert config.checks == ("korn", "energy")
    assert set(config.checks) <= set(CHECK_NAMES)
    cfg.write_text("check = rates, rates\n")
    assert parse_config(["--config", str(cfg)]).checks == ("rates",)


def test_unknown_config_key_reports_file_and_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n0 = 4\ncolour = blue\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*colour"):
        parse_config(["--config", str(cfg)])
    assert main(["--config", str(cfg)]) == 2


def test_malformed_config_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dt = fast\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1.*dt"):
        parse_config(["--config", str(cfg)])
    cfg.write_text("just a line without equals\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(["--config", str(cfg)])
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(["--config", str(tmp_path / "missing.cfg")])


def test_unknown_check_in_config_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("check = vibes\n")
    assert main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["lev", "out-csv", "config"])
def test_config_key_must_name_a_setting_exactly(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n0 = 4\n{key} = 3\n")
    with pytest.raises(ConfigError, match=rf"bad\.cfg:2: unknown key '{key}'"):
        parse_config(["--config", str(cfg)])
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_config_file_and_flags_give_the_same_settings(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algorithm = iterative\npreset = c00\nE = 2\nnu = 0.25\nalpha = 0.5\n"
                   "c0 = 0.1\nK = 3\ndt = 2e-3\nT = 4e-3\nn0 = 4\nlevels = 3\n"
                   "iter = 5\ntol = 1e-9\ncheck = korn, rates\nout_csv = t.csv\n"
                   "out_json = r.json\ndump_matrix = m.mtx\n")
    flags = ["--algorithm", "iterative", "--preset", "c00", "--E", "2", "--nu", "0.25",
             "--alpha", "0.5", "--c0", "0.1", "--K", "3", "--dt", "2e-3", "--T", "4e-3",
             "--n0", "4", "--levels", "3", "--iter", "5", "--tol", "1e-9",
             "--check", "korn", "--check", "rates", "--out-csv", "t.csv",
             "--out-json", "r.json", "--dump-matrix", "m.mtx"]
    assert vars(parse_config(["--config", str(cfg)])) == vars(parse_config(flags))


@pytest.mark.parametrize("flags", [["--dt", "fast"], ["--check", "vibes"],
                                   ["--algorithm", "adi"], ["--lev", "3"]],
                         ids=["dt", "check", "algorithm", "abbreviation"])
def test_bad_flag_is_one_error_line_and_exit_2(capsys, flags):
    assert main(TINY + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_help_names_every_algorithm_preset_and_check(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for name in (*biot.STEPPERS, *PRESETS, *CHECK_NAMES):
        assert name in text, name


@pytest.mark.parametrize("line, message", [("algorithm = adi", "unknown algorithm 'adi'"),
                                           ("preset = nope", "unknown preset 'nope'")],
                         ids=["algorithm", "preset"])
def test_unknown_algorithm_or_preset_in_config_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "--n0", "4", "--levels", "2"]) == 2
    assert message in capsys.readouterr().err


def test_levels_floor_enforced(capsys):
    assert main(["--preset", "nu03", "--n0", "4", "--levels", "1"]) == 2
    assert "levels" in capsys.readouterr().err


def test_invalid_physical_parameter_exits_2(capsys):
    assert main(TINY + ["--nu", "0.6"]) == 2
    assert "Poisson" in capsys.readouterr().err
    for flag in (["--dt", "nan"], ["--E", "nan"], ["--K", "inf"]):
        assert main(TINY + flag) == 2
        assert "must be finite" in capsys.readouterr().err
    assert main(TINY + ["--T", "0.0105", "--dt", "0.003"]) == 2
    assert "multiple" in capsys.readouterr().err


def test_nan_rate_fails_rate_check():
    finest = {k: floor + 0.5 for k, floor in RATE_FLOORS.items()}
    study = SimpleNamespace(rates=lambda: [None, finest])
    assert _check_rates(study)[0]
    finest["h1_p"] = float("nan")
    ok, detail = _check_rates(study)
    assert not ok
    assert list(detail["violations"]) == ["h1_p"]


def test_iterative_needs_iter_or_tol(capsys):
    assert main(TINY + ["--algorithm", "iterative"]) == 2
    assert "exactly one of iters or tol" in capsys.readouterr().err
    for flags in (["--iter", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                  ["--iter", "3", "--tol", "1e-8"]):
        assert main(TINY + ["--algorithm", "iterative", *flags]) == 2, flags
        assert "error:" in capsys.readouterr().err
    for algorithm in ("coupled", "te"):  # settings of an algorithm that does not iterate
        assert main(TINY + ["--algorithm", algorithm, "--tol", "nan", "--iter", "0"]) == 2
        assert "iterative algorithm only" in capsys.readouterr().err


def test_tiny_run_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "report.json"
    code = main(TINY + ["--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("level,inv_h,")
    assert csv_path.read_text().splitlines()[0].startswith("level,inv_h,")
    report = json.loads(json_path.read_text())
    assert report["algorithm"] == "coupled"
    assert report["config"]["preset"] == "nu03"
    assert sorted(report["config"]) == sorted(
        ["algorithm", "preset", "E", "nu", "alpha", "c0", "K", "dt", "T", "n0", "levels",
         "iter", "tol", "checks", "out_csv", "out_json", "dump_matrix"])
    assert len(report["levels"]) == 2
    assert report["solver"]["tainted"] is False


def test_checks_pass_on_sound_configuration(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = main(TINY + ["--check", "energy", "--check", "korn",
                        "--out-json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "check energy: PASS" in out
    assert "check korn: PASS" in out
    report = json.loads(json_path.read_text())
    assert report["checks"]["energy"]["passed"] is True
    assert report["checks"]["korn"]["passed"] is True
    assert report["failures"] == []


def test_contraction_check_with_c0_zero_writes_its_report(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = main(["--preset", "c00", "--n0", "4", "--levels", "2",
                 "--check", "contraction", "--out-json", str(json_path)])
    assert code == 0
    assert "check contraction: PASS" in capsys.readouterr().out
    report = json.loads(json_path.read_text())
    assert report["checks"]["contraction"]["passed"] is True


def test_contraction_check_passes_when_the_error_reaches_the_noise_floor(tmp_path, capsys):
    # nu -> 1/2 gives rho = 6e-3: three sweeps reach the solver-noise floor,
    # so fewer than 20 ratios are measured
    json_path = tmp_path / "report.json"
    code = main(["--preset", "nu0499", "--n0", "4", "--levels", "2",
                 "--check", "contraction", "--out-json", str(json_path)])
    assert code == 0
    assert "check contraction: PASS" in capsys.readouterr().out
    detail = json.loads(json_path.read_text())["checks"]["contraction"]
    assert detail["passed"] is True and detail["num_ratios"] < 20


def test_contraction_check_fails_on_a_ratio_above_rho(monkeypatch):
    monitor = cli.contraction_monitor

    def stalled(system, state, imax):
        report = monitor(system, state, imax=imax)
        e = report.xi_errors.copy()
        e[2] = e[1]  # one sweep that does not contract; the bounds only loosen
        return dataclasses.replace(report, xi_errors=e)

    monkeypatch.setattr(cli, "contraction_monitor", stalled)
    ok, detail = _check_contraction(make_case("nu0499"), 4)
    assert detail["max_ratio"] == 1.0 > detail["rho"]
    assert detail["num_ratios"] < 20 and detail["pressure_bound_ok"] and detail["strain_bound_ok"]
    assert ok is False


def test_unserializable_report_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_json({"passed": np.bool_(True)}, str(path))
    assert not path.exists()


def test_rate_floor_violation_fails_run(tmp_path, capsys):
    # a single huge time step leaves the time error dominant, so the
    # spatial refinement cannot show its full order
    json_path = tmp_path / "report.json"
    code = main(["--preset", "nu03", "--dt", "0.5", "--T", "1.0",
                 "--n0", "8", "--levels", "2", "--check", "rates",
                 "--out-json", str(json_path)])
    assert code == 1
    assert "check rates: FAIL" in capsys.readouterr().out
    report = json.loads(json_path.read_text())
    assert report["checks"]["rates"]["passed"] is False
    assert report["failures"][0]["check"] == "rates"
    assert report["checks"]["rates"]["violations"]  # names the offending columns


def test_iterative_run_with_fixed_count(capsys):
    code = main(TINY + ["--algorithm", "iterative", "--iter", "3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("level,")


def test_dump_matrix_is_symmetric_matrix_market(tmp_path, capsys):
    path = tmp_path / "coupled.mtx"
    assert main(TINY + ["--dump-matrix", str(path)]) == 0
    capsys.readouterr()
    A = scipy.io.mmread(str(path)).tocsr()
    # vector P2 block + two P1 blocks on the 4x4 mesh
    nv, ne = 25, 56
    expected = 2 * (nv + ne) + nv + nv
    assert A.shape == (expected, expected)
    assert abs(A - A.T).max() < 1e-12


def test_dump_matrix_needs_no_extra_factorization(tmp_path, capsys, monkeypatch):
    calls = []
    original = biot.lu_factor

    def counted(A, order):
        calls.append(A.shape)
        return original(A, order)
    monkeypatch.setattr(biot, "lu_factor", counted)
    assert main(TINY + ["--dump-matrix", str(tmp_path / "coupled.mtx")]) == 0
    capsys.readouterr()
    assert len(calls) == 2  # one coupled LU per study level


@pytest.mark.parametrize("flag", ["--out-csv", "--out-json", "--dump-matrix"])
def test_unwritable_report_returns_1_with_one_error_line(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "report"
    assert main(TINY + [flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["check =", "check = ,", "out_csv =   # no file"])
def test_empty_config_value_is_an_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n0 = 4\n{line}\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: empty value for key"):
        parse_config(["--config", str(cfg)])
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_c0_zero_contraction_check_measures_increases_against_the_scale(monkeypatch):
    # with ||xi^n|| = 1e-3 an increase of 1e-14 is above the 1e-12 * scale
    # allowance that criterion 06 uses
    monitor = cli.contraction_monitor

    def creeping(system, state, imax):
        report = monitor(system, state, imax=imax)
        e = report.xi_errors.copy()
        e[1] = e[0] + 1e-14  # the first sweep gains 1e-14; the rest still contract
        return dataclasses.replace(report, xi_errors=e, scale=1e-3)

    monkeypatch.setattr(cli, "contraction_monitor", creeping)
    ok, detail = _check_contraction(make_case("c00"), 4)
    assert detail["nonincreasing"] is False and detail["reduction_reached_at"] > 0
    assert ok is False
