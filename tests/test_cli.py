import contextlib
import dataclasses
import functools
import io
import math
import os
import re
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import parse_sweep_table
from qlandauer.cli import (
    CLI_DEFAULTS,
    COMMAND_KEYS,
    CONFIG_KEYS,
    GRID_POINTS_LIMIT,
    load_config,
    parse_and_dispatch,
    parse_config_file,
    provenance_line,
)
from qlandauer.protocol import ExperimentConfig, Imperfections

FLOAT_KEYS = [key for key, kind in CONFIG_KEYS.items() if kind is float]

# A valid value other than the default for every config key.
NON_DEFAULT = {
    "theta_c": 1.0, "nbar0": 0.3, "t_op": 30.0, "t_pulse": 10.0,
    "n_max": 40, "shots": 7, "seed": 11, "readout_points": 40,
    "readout_span": 150.0, "n_fit": 9,
    "init_fidelity": 0.99, "detection_epsilon": 0.001, "cool_nbar": 0.01,
    "nbar_min": 0.1, "nbar_max": 1.0, "nbar_points": 3,
    "theta_min": 0.1, "theta_max": 3.0, "theta_points": 5,
}

# For each key, a value that changes the output of every command taking it,
# and the other keys (set where a command takes them) it needs for that:
# t_op acts only off the pi pulse (at the pi pulse and the default span it
# only rescales time), init_fidelity only off theta_c = pi/2, n_max only
# where the thermal tail it cuts is large, seed only with shots.
WITNESSES = {
    "theta_c": ("1.0", {}), "nbar0": ("0.3", {}), "t_pulse": ("20", {}),
    "t_op": ("30", {"t_pulse": "20"}),
    "n_max": ("3", {"nbar0": "0.5"}), "shots": ("100", {}),
    "seed": ("7", {"shots": "100"}), "readout_points": ("40", {}),
    "readout_span": ("150", {}), "n_fit": ("9", {}),
    "init_fidelity": ("0.99", {"theta_c": "1.0"}), "detection_epsilon": ("0.01", {}),
    "cool_nbar": ("0.2", {}),
    "nbar_min": ("0.1", {}), "nbar_max": ("1.0", {}), "nbar_points": ("3", {}),
    "theta_min": ("0.1", {}), "theta_max": ("3.0", {}), "theta_points": ("5", {}),
}

# Every (command, key) a command takes, but seed where no shots are drawn:
# every command takes it so that one seed flag serves them all.
TAKEN_KEYS = [(command, key) for command, keys in COMMAND_KEYS.items() for key in keys
              if key != "seed" or "shots" in keys]


def flag(key):
    return f"--{key.replace('_', '-')}"


@functools.lru_cache(maxsize=None)
def _stdout(argv):
    """Exit code and stdout after the provenance line of one CLI run."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = parse_and_dispatch(list(argv))
    return code, out.getvalue().partition("\n")[2]


def differs_beyond_roundoff(a, b):
    """Whether two outputs differ in a word, or in a number by more than
    1e-12 (relative, or absolute near zero)."""
    words_a, words_b = re.findall(r"[^\s,=]+", a), re.findall(r"[^\s,=]+", b)
    if len(words_a) != len(words_b):
        return True
    for x, y in zip(words_a, words_b):
        try:
            if not math.isclose(float(x), float(y), rel_tol=1e-12, abs_tol=1e-12):
                return True
        except ValueError:
            if x != y:
                return True
    return False


def run_cli(argv, capsys):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_keys(text):
    """The keys of a structured output, in order, after its provenance line."""
    return [line.split(" = ", 1)[0] for line in text.splitlines()[1:]]


def summary_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


class TestVerify:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert summary_value(out, "verified") == "yes"
        assert abs(float(summary_value(out, "residual"))) < 1e-9
        assert abs(float(summary_value(out, "heat_conservation_residual"))) < 1e-12

    def test_heat_off_the_conservation_law_fails(self, capsys, monkeypatch):
        # a heat 1e-6 off the conservation law, with the equality residual
        # left as it was: only the heat check can see it
        import qlandauer.cli as cli_mod

        original = cli_mod.run_erasure

        def heat_off(config):
            ledger, initial, final = original(config)
            return dataclasses.replace(ledger, delta_q=ledger.delta_q + 1e-6), initial, final

        monkeypatch.setattr(cli_mod, "run_erasure", heat_off)
        code, out, err = run_cli(["verify"], capsys)
        assert code == 2
        assert abs(float(summary_value(out, "residual"))) < 1e-9
        assert float(summary_value(out, "heat_conservation_residual")) == pytest.approx(1e-6)
        assert summary_value(out, "verified") == "no"
        assert "heat conservation residual" in err and "equality" not in err

    @pytest.mark.parametrize("argv", [
        ["verify"], ["readout"], ["run"],
        ["sweep-temp", "--nbar-points", "3"], ["sweep-theta", "--theta-points", "3"],
    ])
    def test_equality_off_fails_every_ledger_command(self, argv, capsys, monkeypatch):
        # a residual of 1e-3 in every ledger: each command that computes one
        # fails the equality check, names it, and still writes its output
        import qlandauer.protocol as protocol_mod

        original = protocol_mod.landauer_ledger

        def residual_off(*args):
            return dataclasses.replace(original(*args), residual=1e-3)

        monkeypatch.setattr(protocol_mod, "landauer_ledger", residual_off)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "equality residual 1.000e-03 exceeds 1e-09" in err
        assert out.startswith(f"# qlandauer {argv[0]} config=")

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "2", "--nbar0", "2"],
        ["readout", "--n-max", "3", "--nbar0", "2"],
        ["run", "--n-max", "3", "--nbar0", "2"],
        ["sweep-temp", "--n-max", "2", "--nbar-points", "3"],
        ["sweep-theta", "--n-max", "2", "--nbar0", "3", "--theta-points", "3"],
    ])
    def test_exit_2_names_every_failed_check(self, argv, capsys, monkeypatch):
        # a short truncation and an equality residual of 1e-3 in one run:
        # the one stderr line names both
        import qlandauer.protocol as protocol_mod

        original = protocol_mod.landauer_ledger

        def residual_off(*args):
            return dataclasses.replace(original(*args), residual=1e-3)

        monkeypatch.setattr(protocol_mod, "landauer_ledger", residual_off)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "equality residual 1.000e-03 exceeds 1e-09" in err
        assert f"n_max = {argv[2]} leaves thermal tail mass" in err
        assert out.startswith(f"# qlandauer {argv[0]} config=")

    def test_negative_nbar_names_key(self, capsys):
        code, _, err = run_cli(["verify", "--nbar0", "-1"], capsys)
        assert code == 1
        assert "nbar0" in err

    def test_divergent_structured_ok(self, capsys):
        code, out, _ = run_cli(["verify", "--nbar0", "0"], capsys)
        assert code == 0
        assert summary_value(out, "lhs") == "divergent"
        assert summary_value(out, "relative_entropy_nats") == "divergent"
        assert abs(float(summary_value(out, "delta_s_nats")) - math.log(2)) < 1e-10

    def test_out_of_range_theta_names_key(self, capsys):
        code, out, err = run_cli(["verify", "--theta-c", "7"], capsys)
        assert code == 1
        assert "theta_c" in err
        assert out == ""

    def test_negative_pulse_length_names_key(self, capsys):
        code, out, err = run_cli(["verify", "--t-pulse", "-1"], capsys)
        assert code == 1
        assert "t_pulse must be >= 0" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-310"])
    def test_bad_t_op_names_key(self, value, capsys):
        code, out, err = run_cli(["verify", "--t-op", value], capsys)
        assert code == 1
        assert "t_op must be" in err and "Traceback" not in err
        assert out == ""

    def test_defaults_report_tail_mass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert 0.0 < float(summary_value(out, "truncation_tail_mass")) <= 1e-12
        assert summary_value(out, "verified") == "yes"

    def test_short_truncation_fails(self, capsys):
        # the residual stays tiny at any n_max; only the tail mass shows the cut
        code, out, err = run_cli(["verify", "--n-max", "2", "--nbar0", "2"], capsys)
        assert code == 2
        assert abs(float(summary_value(out, "residual"))) < 1e-9
        assert abs(float(summary_value(out, "truncation_tail_mass")) - 8.0 / 27.0) < 1e-12
        assert summary_value(out, "verified") == "no"
        assert "n_max = 2" in err and "tail mass" in err

    # From 2^53 up nbar/(1+nbar) rounds to 1: no truncation holds the
    # reservoir, and a given n_max made it uniform, not thermal.  Without the
    # check readout raised OverflowError in default_n_fit and verify printed
    # temperature_micro_kelvin = inf.
    @pytest.mark.parametrize("key", ["nbar0", "cool_nbar"])
    @pytest.mark.parametrize("value", [repr(2.0**53), "1e308"])
    def test_gibbs_ratio_of_one_names_key(self, key, value, capsys, monkeypatch):
        def no_erasure(config):
            raise AssertionError("erasure ran on an nbar that no truncation holds")

        monkeypatch.setattr("qlandauer.protocol.run_erasure", no_erasure)
        monkeypatch.setattr("qlandauer.cli.run_erasure", no_erasure)
        for command, keys in COMMAND_KEYS.items():
            if key not in keys:
                continue
            for n_max in ([], ["--n-max", "100"]):
                code, out, err = run_cli([command, flag(key), value, *n_max], capsys)
                assert code == 1, (command, n_max)
                assert err == (f"error: {key} = {float(value)} needs infinite n_max: "
                               "nbar/(1+nbar) rounds to 1\n")
                assert out == ""

    def test_gibbs_ratio_below_one_accepted(self, capsys):
        assert ExperimentConfig(nbar0=9e15, imperfections=Imperfections(cool_nbar=9e15))
        code, out, err = run_cli(["verify", "--nbar0", "9e15", "--n-max", "100"], capsys)
        assert code == 2
        assert float(summary_value(out, "truncation_tail_mass")) == pytest.approx(1.0)
        assert "n_max = 100 leaves thermal tail mass" in err

    @pytest.mark.parametrize("command", ["verify", "crossings"])
    def test_mass_on_level_n_max_fails(self, command, capsys):
        # at nbar0 0.01 n_max 5 leaves a tail of 9.4e-13 but 9.4e-11 on level
        # 5, which the red pulse leaves dark; n_max 6 leaves 9.3e-13 on it
        code, _, err = run_cli([command, "--nbar0", "0.01", "--n-max", "5"], capsys)
        assert code == 2
        assert err == ("numerical failure: n_max = 5 leaves thermal tail mass 9.420e-13 and "
                       "mass 9.420e-11 on level 5, beyond 1e-12; raise n_max or leave it unset\n")
        code, _, err = run_cli([command, "--nbar0", "0.01", "--n-max", "6"], capsys)
        assert code == 0 and err == ""

    def test_unbounded_nbar_names_key(self, capsys):
        code, out, err = run_cli(["verify", "--nbar0", "1e308"], capsys)
        assert code == 1
        assert "nbar" in err and "Traceback" not in err
        assert out == ""

    def test_subnormal_occupation_verifies(self, capsys):
        # 1/nbar0 overflows; the temperature must not collapse to 0
        code, out, err = run_cli(["verify", "--nbar0", "1e-310"], capsys)
        assert code == 0, err
        assert float(summary_value(out, "temperature_t0")) > 0.0
        assert summary_value(out, "verified") == "yes"

    def test_high_occupation_verifies(self, capsys):
        code, out, _ = run_cli(["verify", "--nbar0", "2000"], capsys)
        assert code == 0
        assert summary_value(out, "n_max") == "55276"
        assert summary_value(out, "verified") == "yes"


class TestArgumentValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_names_key(self, key, value, capsys):
        command = next(name for name, keys in COMMAND_KEYS.items() if key in keys)
        code, out, err = run_cli([command, f"--{key.replace('_', '-')}={value}"], capsys)
        assert code == 1
        assert key in err and "finite" in err and "Traceback" not in err
        assert out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(["bogus"], capsys)
        assert code == 1
        assert "bogus" in err

    def test_unknown_override_key(self, capsys):
        code, _, err = run_cli(["verify", "--not-a-key", "1"], capsys)
        assert code == 1
        assert "not-a-key" in err

    @pytest.mark.parametrize("argv", [
        ["sweep-temp", "--format", "structured"],
        ["crossings", "--format", "table"],
        ["readout", "--format", "table"],
        ["run", "--format", "structured"],
        ["verify", "--omega-z", "7"],
        ["run", "--omega-z", "7"],
        ["verify", "--strict"],
        ["verify", "--format", "table"],
        ["readout", "--strict"],
        ["run", "--strict"],
        ["sweep-temp", "--t-pulse", "1"],
        ["sweep-theta", "--theta-c", "1"],
        ["crossings", "--t-pulse", "1"],
        ["sweep-temp", "--nbar0", "5"],
        ["verify", "--shots", "5"],
        ["verify", "--nbar-min", "1"],
        ["crossings", "--shots", "7"],
        ["readout", "--omega-z", "1"],
        *([command, removed, "0.9"] for command in COMMAND_KEYS
          for removed in ("--phi", "--eta", "--omega")),
        *([command, "--t-op", "30"] for command in ("sweep-temp", "sweep-theta", "crossings")),
        ["sweep-temp", "--init-fidelity", "0.9"],
    ])
    def test_flag_not_taken_by_subcommand(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "unrecognized arguments" in err and argv[1] in err
        assert out == ""

    def test_negative_seed_names_key(self, capsys):
        code, out, err = run_cli(["readout", "--shots", "100", "--seed", "-5"], capsys)
        assert code == 1
        assert "seed" in err and "Traceback" not in err
        assert out == ""

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "subcommand" in err

    # Each of these ended in a traceback, a warning or an error naming no key.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, names", [
        (["readout", "--shots", "100000000000000000000"], ["shots"]),
        (["readout", "--nbar0", "1e308"], ["nbar", "n_max"]),
        (["readout", "--readout-span", "1.7e308", "--n-max", "380"], ["t_op", "1.7e+308"]),
        (["verify", "--t-op", "1e-300", "--t-pulse", "1e9"], ["t_op", "1e+09"]),
        (["readout", "--t-op", "1e-300", "--readout-span", "1e10"], ["t_op", "1e+10"]),
    ])
    def test_extreme_value_gives_one_named_error(self, argv, names, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in names)
        assert out == ""

    @pytest.mark.parametrize("command, key", [
        ("sweep-temp", "nbar_points"), ("sweep-theta", "theta_points")])
    def test_grid_above_limit_names_key(self, command, key, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the size check")

        for name in ("geomspace", "linspace"):
            monkeypatch.setattr(np, name, no_grid)
        assert load_config(None, {key: GRID_POINTS_LIMIT})[1][key] == GRID_POINTS_LIMIT
        code, out, err = run_cli([command, flag(key), str(GRID_POINTS_LIMIT + 1)], capsys)
        assert code == 1
        assert err == (f"error: {key} must be >= 1 and <= {GRID_POINTS_LIMIT}, "
                       f"got {GRID_POINTS_LIMIT + 1}\n")
        assert out == ""


# Edge values for the property below: zero, the smallest subnormal, 2^53
# (where nbar/(1+nbar) first rounds to 1), values near the ends of the double
# range, NaN and infinities, and for ints 2^63 (past numpy's int64) and 10^25.
EDGE_VALUES = {
    float: [0.0, 5e-324, 1e-300, 0.5, 1.0, 20.0, 2.0**53, 1e300, 1.7e308, -1.0,
            math.nan, math.inf, -math.inf],
    int: [0, 1, 2, 50, 2**63, 10**25, -1],
}
# The commands that run no phonon fit.  Each sweep always sets its grid size,
# to at most 5 points or a size refused before the grid is built.
NO_FIT_COMMANDS = ("verify", "crossings", "sweep-temp", "sweep-theta")


@st.composite
def edge_argv(draw, command):
    keys = COMMAND_KEYS[command]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    argv = [command]
    for key in dict.fromkeys(chosen + [key for key in keys if key.endswith("_points")]):
        values = EDGE_VALUES[CONFIG_KEYS[key]]
        if key.endswith("_points"):
            values = [v for v in values if not 5 < v <= GRID_POINTS_LIMIT]
        argv.append(f"{flag(key)}={draw(st.sampled_from(values))!r}")
    return argv


class TestEveryInput:
    # No draw needs n_max above about 600 (nbar0 20); 2^53 and above need an
    # infinite one and are refused before anything is allocated.
    @settings(max_examples=500)
    @given(argv=st.sampled_from(NO_FIT_COMMANDS).flatmap(edge_argv))
    # unchecked, this printed temperature_micro_kelvin = inf
    @example(argv=["verify", "--nbar0=1e+308", "--n-max=100"])
    def test_result_or_one_named_error(self, argv):
        command = argv[0]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = parse_and_dispatch(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if code == 0:
            for word in re.findall(r"[^\s,=]+", out.partition("\n")[2]):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(word)), (argv, word)
            sides = []
            if command == "verify":
                sides = [(summary_value(out, "lhs"), summary_value(out, "rhs"))]
            elif command != "crossings":
                sides = [(row.lhs, row.rhs) for row in parse_sweep_table(out)[1]]
            for lhs, rhs in sides:
                if lhs not in (None, "divergent"):
                    assert abs(float(lhs) - float(rhs)) < 1e-9, (argv, lhs, rhs)


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        code, out, _ = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 0
        assert float(summary_value(out, "t_op_us")) == 33.0
        assert float(summary_value(out, "pulse_duration_us")) == 33.0
        assert float(summary_value(out, "nbar0")) == 0.074

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\ntheta_c = 1.5708\nnbar0 = 0.2  # inline comment\n",
            encoding="utf-8")
        values = parse_config_file(str(path))
        assert values == {"theta_c": 1.5708, "nbar0": 0.2}

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nbar0 = 0.1\nthis is not a pair\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.cfg:2"):
            parse_config_file(str(path))

    def test_phase_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "phase.cfg"
        path.write_text("phi = 0.2\n", encoding="utf-8")
        code, out, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 1
        assert "unknown config key 'phi'" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_trap_frequency_key_is_unknown(self, command, tmp_path, capsys):
        # the display lines are printed at omega_z / 2pi = 1.01 MHz
        path = tmp_path / "trap.cfg"
        path.write_text("omega_z = 7.0\n", encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1
        assert err == "error: " + str(path) + ":1: unknown config key 'omega_z'\n"
        assert out == ""

    def test_unknown_key_reports_name_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="frobnicate"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("command", ["verify", "crossings"])
    def test_bad_grid_in_file_rejected_by_every_command(self, command, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        path.write_text("theta_max = 4\n", encoding="utf-8")
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 1
        assert "theta_max" in err and "Traceback" not in err
        assert out == ""

    def test_cli_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("nbar0 = 0.1\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["verify", "--config", str(path), "--nbar0", "0.2"], capsys)
        assert code == 0
        assert float(summary_value(out, "nbar0")) == 0.2

    def test_override_theta_c(self, capsys):
        code, out, _ = run_cli(["verify", "--theta-c", "1.5708"], capsys)
        assert code == 0
        assert float(summary_value(out, "theta_c")) == 1.5708


class TestProvenance:
    def test_digest_tracks_config(self):
        _, values = load_config(None, {})
        _, again = load_config(None, {})
        for command, keys in COMMAND_KEYS.items():
            assert provenance_line(command, values) == provenance_line(command, again)
            for key in keys:
                changed = dict(values, **{key: NON_DEFAULT[key]})
                assert provenance_line(command, changed) != provenance_line(command, values)

    @pytest.mark.parametrize("command", list(COMMAND_KEYS))
    def test_unread_keys_leave_output_unchanged(self, command, tmp_path, capsys):
        path = tmp_path / "unread.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in NON_DEFAULT.items()
                                if key not in COMMAND_KEYS[command]), encoding="utf-8")
        code, plain, _ = run_cli([command], capsys)
        assert code == 0
        code, with_file, _ = run_cli([command, "--config", str(path)], capsys)
        assert code == 0
        assert with_file == plain


    @pytest.mark.parametrize("command, key", TAKEN_KEYS)
    def test_every_taken_key_can_change_output(self, command, key):
        value, context = WITNESSES[key]
        argv = [command] + [arg for other, text in context.items()
                            if other in COMMAND_KEYS[command] for arg in (flag(other), text)]
        base_code, base = _stdout(tuple(argv))
        code, changed = _stdout(tuple(argv + [flag(key), value]))
        assert base_code in (0, 2) and code in (0, 2)
        assert differs_beyond_roundoff(base, changed), argv + [flag(key), value]

    def test_readme_key_table_matches_command_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        documented = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) != 4 or not cells[0].startswith("`"):
                continue
            names = re.findall(r"`(\w+)((?:/\w+)*)`", cells[0])
            commands = (set(COMMAND_KEYS) if cells[3] == "all"
                        else set(re.findall(r"`([\w-]+)`", cells[3])))
            for stem, suffixes in names:
                base = stem.rsplit("_", 1)[0]
                keys = [stem] + [f"{base}_{s}" for s in suffixes.split("/")[1:]]
                documented.update(dict.fromkeys(keys, commands))
        assert documented == {key: {c for c, keys in COMMAND_KEYS.items() if key in keys}
                              for key in CONFIG_KEYS}


class TestPresets:
    def test_realistic_applies_cooling_floor(self, capsys):
        code, out, _ = run_cli(["verify", "--realistic", "--nbar0", "0.01"], capsys)
        assert code == 0
        assert float(summary_value(out, "nbar0")) == 0.030

    def test_explicit_key_beats_preset(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--realistic", "--nbar0", "0.01", "--cool-nbar", "0"], capsys)
        assert code == 0
        assert float(summary_value(out, "nbar0")) == 0.01

    def test_defaults_are_the_library_defaults(self):
        assert load_config(None, {})[0] == ExperimentConfig()

    def test_each_key_has_one_default(self):
        homes = ({f.name for f in dataclasses.fields(ExperimentConfig)} - {"imperfections"},
                 {f.name for f in dataclasses.fields(Imperfections)}, set(CLI_DEFAULTS))
        assert sum(map(len, homes)) == len(CONFIG_KEYS)
        assert set().union(*homes) == set(CONFIG_KEYS)
        defaults = {**vars(ExperimentConfig()), **vars(Imperfections()), **CLI_DEFAULTS}
        for key, kind in CONFIG_KEYS.items():
            assert defaults[key] is None or isinstance(defaults[key], kind), key

    def test_load_config_surface(self):
        config, values = load_config(None, {}, realistic=True)
        assert config.imperfections.init_fidelity == 0.989
        assert config.imperfections.detection_epsilon == 0.0022
        assert config.imperfections.cool_nbar == 0.030


class TestSweepCommands:
    def test_theta_sweep_changes_sign_twice(self, capsys):
        code, out, _ = run_cli(
            ["sweep-theta", "--nbar0", "0.074", "--theta-points", "25"], capsys)
        assert code == 0
        _, rows = parse_sweep_table(out)
        signs = [row.delta_s > 0 for row in rows]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 2

    def test_temp_sweep_table_parses(self, capsys):
        code, out, _ = run_cli(["sweep-temp", "--nbar-points", "4"], capsys)
        assert code == 0
        _, rows = parse_sweep_table(out)
        assert len(rows) == 4
        assert all(abs(row.residual) < 1e-9 for row in rows)

    def test_grid_past_truncation_limit_rejected(self, capsys):
        code, out, err = run_cli(["sweep-temp", "--nbar-max", "1e308"], capsys)
        assert code == 1
        assert "nbar = " in err and "n_max = " in err and "Traceback" not in err
        assert out == ""

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(["sweep-temp", "--nbar-min", "0"], capsys)
        assert code == 1
        assert "nbar" in err

    @pytest.mark.parametrize("argv, tail", [
        (["sweep-temp", "--n-max", "2"], "2.963e-01"),  # (2/3)^3 at the grid's nbar 2
        (["sweep-theta", "--n-max", "2", "--nbar0", "3", "--theta-points", "3"], "4.219e-01"),
        (["crossings", "--n-max", "2", "--nbar0", "3"], "4.219e-01"),  # (3/4)^3
    ])
    def test_short_truncation_fails(self, argv, tail, capsys):
        # the output is still written, with the lines of an adequate cut
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"n_max = 2 leaves thermal tail mass {tail}" in err
        code, adequate, _ = run_cli([a for a in argv if a not in ("--n-max", "2")], capsys)
        assert code == 0
        assert len(out.splitlines()) == len(adequate.splitlines())

    def test_temp_sweep_truncation_checked_at_hottest_nbar(self, capsys):
        # n_max 12 leaves (1/11)^13 = 2.9e-14 at nbar 0.1 but (2/3)^13 at nbar 2
        code, _, err = run_cli(["sweep-temp", "--n-max", "12", "--nbar-max", "0.1"], capsys)
        assert code == 0 and err == ""
        code, _, err = run_cli(["sweep-temp", "--n-max", "12"], capsys)
        assert code == 2 and "tail mass 5.138e-03" in err


LEDGER_KEYS = [
    "theta_c", "nbar0", "pulse_duration_us", "t_op_us", "n_max",
    "e_initial_q0", "e_final_q0", "delta_q_q0", "temperature_t0", "lhs", "delta_s_nats",
    "mutual_info_nats", "relative_entropy_nats", "rhs", "residual",
]
UNIT_KEYS = ["q0_joule", "t0_micro_kelvin", "temperature_micro_kelvin", "delta_q_joule"]
READOUT_KEYS = [
    "exact_mean_phonon_pre", "fitted_mean_phonon_pre", "exact_mean_phonon",
    "fitted_mean_phonon", "delta_q_estimate", "p_up_final", "shots",
    "fit_converged", "truncation_tail_mass",
]
RUN_KEYS = LEDGER_KEYS + UNIT_KEYS + READOUT_KEYS


class TestOutputKeys:
    @pytest.mark.parametrize("argv, keys", [
        (["verify"], LEDGER_KEYS + ["heat_conservation_residual"] + UNIT_KEYS
         + ["truncation_tail_mass", "verified"]),
        (["run", "--shots", "100"], RUN_KEYS),
        (["run", "--nbar0", "0"], RUN_KEYS),
        (["readout", "--shots", "100"], ["theta_c", "nbar0"] + READOUT_KEYS),
        (["crossings"], ["nbar0", "theta_low", "theta_high"]),
    ])
    def test_structured_keys_in_order(self, argv, keys, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith(f"# qlandauer {argv[0]} config=")
        assert summary_keys(out) == keys

    @pytest.mark.parametrize("options", [["--shots", "100"], ["--realistic"]])
    def test_readout_and_run_share_one_readout_block(self, options, capsys):
        # the same lines, byte for byte, from exact_mean_phonon_pre to the end
        blocks = []
        for command in ("readout", "run"):
            code, out, _ = run_cli([command, *options], capsys)
            assert code == 0
            assert summary_keys(out)[-len(READOUT_KEYS):] == READOUT_KEYS
            blocks.append(out.splitlines()[-len(READOUT_KEYS):])
        assert blocks[0] == blocks[1]

    def test_divergent_run_terms(self, capsys):
        code, out, _ = run_cli(["run", "--nbar0", "0"], capsys)
        assert code == 0
        for key in ("temperature_t0", "lhs", "relative_entropy_nats", "rhs", "residual",
                    "temperature_micro_kelvin"):
            assert summary_value(out, key) == "divergent"
        assert float(summary_value(out, "delta_q_q0")) == pytest.approx(0.5, abs=1e-12)


class TestCrossingsCommand:
    def test_reports_boundaries(self, capsys):
        code, out, _ = run_cli(["crossings"], capsys)
        assert code == 0
        assert 0.49 <= float(summary_value(out, "theta_low")) <= 0.59
        assert 2.76 <= float(summary_value(out, "theta_high")) <= 2.84

    def test_reports_absent(self, capsys):
        code, out, _ = run_cli(["crossings", "--nbar0", "0"], capsys)
        assert code == 0
        assert summary_value(out, "theta_low") == "absent"
        assert summary_value(out, "theta_high") == "absent"


class TestUnitDisplay:
    def test_verify_reports_display_units(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        q0_joule = float(summary_value(out, "q0_joule"))
        t0_kelvin = float(summary_value(out, "t0_micro_kelvin")) * 1e-6
        assert abs(q0_joule - 6.692e-28) < 0.01e-28
        assert abs(t0_kelvin * 1e6 - 48.47) < 0.1
        assert abs(t0_kelvin - q0_joule / 1.380649e-23) < 1e-6 * t0_kelvin
        micro_kelvin = float(summary_value(out, "temperature_micro_kelvin"))
        assert 17.4 < micro_kelvin < 19.0

    def test_display_lines_keep_their_digits(self, capsys):
        # at the trap frequency omega_z / 2pi = 1.01 MHz
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert [summary_value(out, key) for key in UNIT_KEYS] == [
            "6.6923308473994796e-28", "48.47235501129888", "18.11996340891422",
            "3.029799055732303e-28"]


class TestReadoutAndRun:
    @pytest.mark.parametrize("command", ["readout", "run"])
    def test_non_convergence_fails_with_output(self, command, capsys, monkeypatch):
        import qlandauer.readout as readout_mod

        original = readout_mod._simplex_least_squares

        def never_converges(a, y, **kwargs):
            x, _ = original(a, y, **kwargs)
            return x, False

        monkeypatch.setattr(readout_mod, "_simplex_least_squares", never_converges)
        code, out, err = run_cli([command], capsys)
        assert code == 2
        assert "fit" in err and "converging" in err
        assert summary_value(out, "fit_converged") == "no"

    @pytest.mark.parametrize("argv", [
        ["sweep-theta", "--nbar0", "0", "--theta-points", "3"],
    ])
    def test_divergent_terms_are_empty_cells(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for row in parse_sweep_table(out)[1]:
            assert row.temperature is row.lhs is row.relative_entropy is None
            assert row.rhs is row.residual is None

    def test_noiseless_readout_matches_exact(self, capsys):
        code, out, _ = run_cli(["readout"], capsys)
        assert code == 0
        fitted = float(summary_value(out, "fitted_mean_phonon"))
        exact = float(summary_value(out, "exact_mean_phonon"))
        assert abs(fitted - exact) < 1e-3

    def test_removed_decay_keys_refused_by_name(self, tmp_path, capsys):
        # the decay-envelope keys and the drive's eta and omega (one t_op
        # replaces them) are gone: as flags or in a config file they are
        # refused by name before anything runs
        for argv, key, value in (
                (["readout", "--gamma0", "0.001", "--decay-alpha", "1000"], "decay_alpha", "1000"),
                (["verify", "--eta", "0.09"], "eta", "0.09"),
                (["run", "--omega", "1.0"], "omega", "1.0")):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            assert all(arg in err for arg in argv[1::2]) and "Traceback" not in err
            assert out == ""
            path = tmp_path / "removed.cfg"
            path.write_text(f"{key} = {value}\n", encoding="utf-8")
            code, out, err = run_cli([argv[0], "--config", str(path)], capsys)
            assert code == 1
            assert f"unknown config key '{key}'" in err
            assert out == ""

    def test_readout_arrays_above_limit_name_key(self, capsys, monkeypatch):
        import qlandauer.protocol as protocol_mod

        def no_erasure(config):
            raise AssertionError("erasure ran before the readout size check")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        code, out, err = run_cli(["readout", "--readout-points", "400000000"], capsys)
        assert code == 1
        assert "readout_points = 400000000" in err and "limit" in err
        assert out == ""

    @pytest.mark.parametrize("argv, cause", [
        (["--nbar0", "1e10", "--n-max", "100"],
         "n_fit = 50000000000, the default at nbar0 = 10000000000.0, and readout_points = 30 "
         "give readout arrays of 1500000000030 values"),
        (["--n-max", "5000", "--nbar0", "1e5", "--n-fit", "400000"],
         "n_fit = 400000 and readout_points = 30 give readout arrays of 12000030 values"),
    ], ids=["automatic", "given"])
    def test_readout_arrays_set_by_n_fit_name_it(self, argv, cause, capsys, monkeypatch):
        # lowering readout_points cannot help when n_fit sets max(n_max, n_fit)
        import qlandauer.protocol as protocol_mod

        def no_erasure(config):
            raise AssertionError("erasure ran before the readout size check")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        code, out, err = run_cli(["readout", *argv], capsys)
        assert code == 1
        assert err == f"error: {cause}, above the limit 10000000; lower n_fit\n"
        assert out == ""

    def test_zero_temperature_readout_matches_exact(self, capsys):
        # |down,1> is bright under the blue readout only if |up,2> is retained
        code, out, _ = run_cli(["readout", "--nbar0", "0"], capsys)
        assert code == 0
        assert float(summary_value(out, "exact_mean_phonon")) == pytest.approx(0.5, abs=1e-12)
        assert abs(float(summary_value(out, "fitted_mean_phonon")) - 0.5) < 1e-3
        assert summary_value(out, "fit_converged") == "yes"

    def test_run_emits_ledger_and_readout(self, capsys):
        code, out, _ = run_cli(["run", "--shots", "100"], capsys)
        assert code == 0
        assert abs(float(summary_value(out, "residual"))) < 1e-9
        assert float(summary_value(out, "delta_q_estimate")) > 0

    def test_run_evaluates_one_erasure(self, capsys, monkeypatch):
        import qlandauer.protocol as protocol_mod

        calls = []
        original = protocol_mod.landauer_ledger

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol_mod, "landauer_ledger", counting)
        code, _, _ = run_cli(["run"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_too_few_readout_points_rejected_before_erasure(self, capsys, monkeypatch):
        import qlandauer.protocol as protocol_mod

        def no_erasure(config):
            raise AssertionError("erasure ran before the readout check")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        # n_fit 30 at nbar0 6 is more levels than the default 30 points
        code, _, err = run_cli(["readout", "--nbar0", "6"], capsys)
        assert code == 1
        assert "n_fit" in err and "readout_points" in err and "fewer than" in err

    def test_unidentifiable_fit_rejected_before_erasure(self, capsys, monkeypatch):
        # at the default 30 points over 6 t_op the design matrix's condition
        # number is 16.1 at n_fit 15 (nbar0 3), 1.8e6 at 22 (nbar0 4.4),
        # 1.67e10 at 23 (nbar0 4.5) and 1.06e14 at 24 (nbar0 4.8)
        code, out, err = run_cli(["readout", "--nbar0", "3"], capsys)
        assert code == 0, err
        assert summary_value(out, "fit_converged") == "yes"
        import qlandauer.protocol as protocol_mod
        import qlandauer.readout as readout_mod

        def no_erasure(config):
            raise AssertionError("erasure ran before the readout check")

        def no_fit(a, y):
            raise AssertionError("a fit ran on a refused design matrix")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        monkeypatch.setattr(readout_mod, "_simplex_least_squares", no_fit)
        for nbar0, n_fit in (("4.5", 23), ("4.8", 24)):
            code, out, err = run_cli(["readout", "--nbar0", nbar0], capsys)
            assert code == 1
            assert "condition number" in err and "readout_points" in err
            assert f"n_fit = {n_fit} " in err
            assert out == ""

    @pytest.mark.parametrize("command", ["readout", "run"])
    def test_uninformative_detector_rejected_before_erasure(self, command, capsys,
                                                            monkeypatch):
        # at detection_epsilon 1/2 every level reads down with probability 1/2
        import qlandauer.protocol as protocol_mod

        def no_erasure(config):
            raise AssertionError("erasure ran before the readout check")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        code, out, err = run_cli([command, "--detection-epsilon", "0.5"], capsys)
        assert code == 1
        assert "detection_epsilon = 0.5" in err and "no information" in err
        assert "raise readout_points" not in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["readout", "run"])
    def test_defaults_report_tail_mass(self, command, capsys):
        code, out, _ = run_cli([command], capsys)
        assert code == 0
        assert 0.0 < float(summary_value(out, "truncation_tail_mass")) <= 1e-12

    @pytest.mark.parametrize("command", ["readout", "run"])
    def test_short_truncation_fails(self, command, capsys):
        # n_max = 3 at nbar0 = 2 discards (2/3)^4 of the thermal state
        code, out, err = run_cli([command, "--n-max", "3", "--nbar0", "2"], capsys)
        assert code == 2
        assert abs(float(summary_value(out, "truncation_tail_mass")) - 16.0 / 81.0) < 1e-12
        assert "n_max = 3" in err and "tail mass" in err

    @pytest.mark.parametrize("command", ["verify", "readout", "run"])
    def test_n_max_below_floor_names_key(self, command, capsys, monkeypatch):
        # n_max 1 has no |up,2>, so the readout of |down,1> would come out
        # wrong; n_max 1000001 is above N_MAX_LIMIT and would allocate
        # arrays of that length, so both are refused before the erasure
        import qlandauer.cli as cli_mod
        import qlandauer.protocol as protocol_mod

        def no_erasure(config):
            raise AssertionError("erasure ran on a refused n_max")

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        monkeypatch.setattr(cli_mod, "run_erasure", no_erasure)
        for n_max in ("1", "1000001"):
            code, out, err = run_cli([command, "--nbar0", "0", "--n-max", n_max], capsys)
            assert code == 1
            assert f"n_max must be >= 2 and <= 1000000, got {n_max}" in err
            assert "Traceback" not in err
            assert out == ""


class TestDeterminism:
    def test_identical_seed_gives_identical_bytes(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["readout", "--shots", "100", "--seed", "7"]
        assert parse_and_dispatch(args + ["--output", str(out_a)]) == 0
        assert parse_and_dispatch(args + ["--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["readout", "--shots", "100"]
        assert parse_and_dispatch(base + ["--seed", "7", "--output", str(out_a)]) == 0
        assert parse_and_dispatch(base + ["--seed", "8", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "ledger.txt"
        assert parse_and_dispatch(["verify", "--output", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# qlandauer verify")
        assert "residual = " in text

    def test_shorter_output_rewrites_file_in_place(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert parse_and_dispatch(["sweep-temp", "--output", str(target)]) == 0
        target.chmod(0o640)
        before = target.stat()
        code, expected, _ = run_cli(["verify"], capsys)
        assert code == 0 and len(expected) < before.st_size
        assert parse_and_dispatch(["verify", "--output", str(target)]) == 0
        after = target.stat()
        assert target.read_bytes() == expected.encode("utf-8")
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_failed_rewrite_leaves_no_stale_tail(self, tmp_path, capsys):
        # The write fails part way, as on a full disk: here it runs past a
        # file size limit (EFBIG once SIGXFSZ is ignored).  The longer file it
        # was rewriting must not keep its old tail behind the new head.
        resource = pytest.importorskip("resource")
        target = tmp_path / "out.csv"
        target.write_text("~" * 20_000, encoding="utf-8")
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, limits[1]))
        try:
            code, out, err = run_cli(["sweep-temp", "-o", str(target)], capsys)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert code == 1 and out == ""
        assert f"cannot write output file {target}" in err
        assert target.read_bytes() == b""

    def test_output_to_dev_null(self, capsys):
        code, out, err = run_cli(["verify", "-o", os.devnull], capsys)
        assert code == 0 and out == "" and err == ""

    def test_output_through_symlink_rewrites_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("x" * 10_000, encoding="utf-8")
        link.symlink_to(target)
        _, expected, _ = run_cli(["verify"], capsys)
        assert parse_and_dispatch(["verify", "-o", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == expected.encode("utf-8")

    def test_output_opened_without_truncation(self, tmp_path, monkeypatch, capsys):
        # Truncating open is what stalls a rewrite on ext4; the file is cut
        # after writing instead.
        target, calls = tmp_path / "out.csv", []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            calls.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for _ in range(2):
            assert parse_and_dispatch(["verify", "--output", str(target)]) == 0
        capsys.readouterr()
        opened = [flags for path, flags in calls if path == str(target)]
        assert len(opened) == 2
        assert not any(flags & os.O_TRUNC for flags in opened)

    @pytest.mark.parametrize("argv, check_fails", [
        (["verify"], False),
        (["verify", "--n-max", "2", "--nbar0", "2"], True),
    ])
    def test_unwritable_output_names_path(self, argv, check_fails, tmp_path, capsys):
        target = tmp_path / "missing" / "ledger.txt"
        code, out, err = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 1
        assert f"cannot write output file {target}" in err
        assert ("numerical failure" in err and "tail mass" in err) == check_fails
        assert out == ""
