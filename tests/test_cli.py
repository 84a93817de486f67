import dataclasses

import pytest

from biofilm1d import cli as cli_module, configio
from biofilm1d.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                           cli)
from biofilm1d.output import BOUNDARY_NAME, MANIFEST_NAME
from biofilm1d.presets import build_preset
from biofilm1d.stepper import run
from biofilm1d.traces import RampTrace


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = build_preset("case1").cfg
    nm = dataclasses.replace(cfg.numerics, N=24, dt_max=5e-4)
    cfg = dataclasses.replace(cfg, numerics=nm, horizon=0.02,
                              snapshot_times=(0.02,))
    path = tmp_path / "tiny.cfg"
    configio.save(cfg, path)
    return path


class TestRunCommand:
    def test_run_with_config_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli(["run", "--config", str(tiny_config), "--out", str(out)]) == EXIT_OK
        assert (out / BOUNDARY_NAME).exists()
        assert (out / MANIFEST_NAME).exists()
        assert "content sha256" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--t1", "0.001"), ("--ramp", "corrected")])
    def test_run_rejects_preset_option_with_config(self, tiny_config, tmp_path, capsys,
                                                   flag, value):
        # a scenario file sets its own arrival; the option would be dropped
        out = tmp_path / "results"
        argv = ["run", "--config", str(tiny_config), flag, value, "--out", str(out)]
        assert cli(argv) == EXIT_USAGE
        assert f"argument {flag}: not allowed with argument --config" in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_preset_options(self, tmp_path, monkeypatch):
        # the preset's 10 d run cut to 0.02 d: the options reach the cfg and
        # the manifest, whatever the horizon
        received = []

        def short_run(cfg):
            received.append(cfg)
            return run(dataclasses.replace(cfg, horizon=0.02, snapshot_times=(0.02,)))

        monkeypatch.setattr(cli_module, "run_scenario", short_run)
        out = tmp_path / "results"
        argv = ["run", "--preset", "case1", "--t1", "0.3", "--ramp", "corrected",
                "--out", str(out)]
        assert cli(argv) == EXIT_OK
        [cfg] = received
        assert cfg.bulk.psi_star[2] == RampTrace(100.0, 0.3, "corrected")
        manifest = (out / MANIFEST_NAME).read_text()
        assert "t1 = 0.3 d: " in manifest
        assert "psi3 ramp variant = corrected: " in manifest

    def test_run_requires_scenario(self, tmp_path):
        assert cli(["run", "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_manifest_independent_of_config_location(self, tiny_config, tmp_path):
        text = tiny_config.read_bytes()
        manifests = []
        for where in ("a", "a_much_longer_directory_name/nested"):
            path = tmp_path / where / "tiny.cfg"
            path.parent.mkdir(parents=True)
            path.write_bytes(text)
            out = tmp_path / f"out_{len(manifests)}"
            assert cli(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
            manifests.append((out / MANIFEST_NAME).read_bytes())
        assert manifests[0] == manifests[1]
        assert b"configuration loaded from file tiny.cfg\n" in manifests[0]

    def test_run_rejects_invalid_config(self, tiny_config, tmp_path):
        bad = tiny_config.read_text().replace("scenario.delta = 2000.0",
                                              "scenario.delta = -1.0")
        bad_path = tiny_config.parent / "bad.cfg"
        bad_path.write_text(bad)
        code = cli(["run", "--config", str(bad_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION


    def test_run_rejects_file_name_with_line_break(self, tiny_config, tmp_path, capsys):
        # the file name becomes a manifest note, which must stay one line
        path = tmp_path / "x\ncontent-sha256 = forged.cfg"
        path.write_bytes(tiny_config.read_bytes())
        out = tmp_path / "o"
        assert cli(["run", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert "line break" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_an_io_failure(self, tiny_config, tmp_path, capsys):
        # the output directory cannot be made below a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "results"
        code = cli(["run", "--config", str(tiny_config), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(f"io error: could not create {out}: ")


class TestValidateCommand:
    def test_ok_config(self, tiny_config, capsys):
        assert cli(["validate", "--config", str(tiny_config)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_negative_delta_rejected(self, tiny_config, capsys):
        bad = tiny_config.read_text().replace("scenario.delta = 2000.0",
                                              "scenario.delta = -5.0")
        path = tiny_config.parent / "neg.cfg"
        path.write_text(bad)
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "delta" in capsys.readouterr().out

    def test_infinite_horizon_rejected(self, tiny_config, capsys):
        text = tiny_config.read_text()
        assert "scenario.horizon = 0.02\n" in text
        path = tiny_config.parent / "forever.cfg"
        path.write_text(text.replace("scenario.horizon = 0.02", "scenario.horizon = inf"))
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "scenario.horizon: must be finite" in capsys.readouterr().out

    def test_infinite_bulk_trace_rejected(self, tiny_config, capsys):
        text = tiny_config.read_text()
        assert "bulk.s.1 = constant,100.0\n" in text
        path = tiny_config.parent / "flood.cfg"
        path.write_text(text.replace("bulk.s.1 = constant,100.0",
                                     "bulk.s.1 = table,0.0:100.0;1.0:inf"))
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "bulk.s.1: must be finite" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_production_rejected(self, tiny_config, capsys, value):
        text = tiny_config.read_text()
        assert "stoichiometry.kind = builtin3x3\n" in text
        path = tiny_config.parent / "network.cfg"
        path.write_text(text.replace("stoichiometry.kind = builtin3x3\n", (
            "stoichiometry.kind = custom\n"
            "stoichiometry.substrate_of = 1, 2, 3\n"
            "stoichiometry.production.1 = -1, 0, 0\n"
            "stoichiometry.production.2 = 0, -1, 0\n"
            f"stoichiometry.production.3 = {value}, 0.3, -0.9\n")))
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "stoichiometry.production.3: must be finite" in capsys.readouterr().out

    @pytest.mark.parametrize("ramp", ["ramp,100.0,0.0,printed", "ramp,100.0,-1.0,printed",
                                      "ramp,100.0,0.2,sideways"])
    def test_ramp_that_run_cannot_evaluate_rejected(self, tiny_config, capsys, ramp):
        text = tiny_config.read_text()
        assert "bulk.psi.3 = ramp,100.0,0.2,printed\n" in text
        path = tiny_config.parent / "ramp.cfg"
        path.write_text(text.replace("ramp,100.0,0.2,printed", ramp))
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert f"bad trace descriptor '{ramp}'" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("scenario.delta == oops\n")
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert cli(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(path) in err


class TestUsageErrors:
    def test_unknown_flag(self):
        assert cli(["run", "--nope", "x"]) == EXIT_USAGE

    def test_unknown_preset(self, tmp_path):
        assert cli(["run", "--preset", "case9", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert cli([]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["run", "oracle", "window"])
    def test_preset_options_documented(self, capsys, command):
        assert cli([command, "--help"]) == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())
        assert "--t1 T1 arrival time of the third bulk species (presets)" in out
        assert "arrival-ramp denominator variant" in out


class TestAnalysisCommands:
    def test_window_reports_contractive_horizon(self, capsys):
        assert cli(["window", "--preset", "case1", "--span", "0.01"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "T_star" in out and "a = " in out
        # the reported window satisfies its own contraction condition
        factor = float(out.split("contraction factor there: ")[1].split(")")[0])
        assert 0.0 <= factor < 1.0

    def test_numerical_failure_exit_code(self, capsys):
        # a multi-day oracle horizon sits far outside the contraction window
        import numpy as np
        with np.errstate(all="ignore"):
            code = cli(["oracle", "--preset", "case1", "--horizon", "5.0",
                        "--grid", "20"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_oracle_cross_validation(self, capsys):
        code = cli(["oracle", "--preset", "case1", "--horizon", "0.004",
                    "--grid", "16"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fixed point reached" in out
        assert "cross-validation" in out


class TestAnalysisArguments:
    @pytest.mark.parametrize("flag, value", [
        ("--grid", "0"), ("--grid", "-3"), ("--grid", "1.5"),
        ("--horizon", "-1"), ("--horizon", "0"), ("--horizon", "nan"),
        ("--horizon", "inf"),
    ])
    def test_bad_oracle_argument_is_a_usage_error(self, capsys, flag, value):
        # the last occurrence of a flag wins
        argv = ["oracle", "--preset", "case1", "--horizon=0.004", "--grid=16",
                f"{flag}={value}"]
        assert cli(argv) == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.05", "nan", "inf", "-inf"])
    def test_bad_window_span_is_a_usage_error(self, capsys, value):
        assert cli(["window", "--preset", "case1", f"--span={value}"]) == EXIT_USAGE
        assert "argument --span" in capsys.readouterr().err

    @pytest.mark.parametrize("t1", ["nan", "inf"])
    def test_invalid_oracle_config_fails_before_iterating(self, capsys, t1):
        code = cli(["oracle", "--preset", "case1", "--horizon", "0.02",
                    "--grid", "10", "--t1", t1])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert "must be finite" in captured.err
        assert "iterate distances" not in captured.out
