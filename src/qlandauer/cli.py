"""Command-line front end.

Subcommands: verify, sweep-temp, sweep-theta, crossings, readout, run.
Configuration comes from defaults, then an optional flat key = value file,
then command-line overrides, in that precedence; a file may set any key, a
subcommand takes and hashes only the keys it reads, and each of those can
change its output (seed only where shots are drawn).  Exit codes: 0 success,
1 validation error (an output file that cannot be written included), 2
numerical failure (a failed equality check, a truncation check failed by
verify, readout or run, or a non-converged fit under readout or run); a
failed check still writes the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys

import numpy as np

from .info import LandauerLedger, UnitSystem
from .ion import TRUNCATION_TAIL_TOL, PulseParams
from .protocol import (
    NBAR_GRID_DEFAULT,
    THETA_GRID_DEFAULT,
    REALISTIC_IMPERFECTIONS,
    ExperimentConfig,
    Imperfections,
    find_entropy_zero_crossings,
    format_ledger_summary,
    format_sweep_table,
    run_erasure,
    simulated_readout_run,
    sweep_temperature,
    sweep_theta,
)

VERIFY_RESIDUAL_BOUND = 1e-9

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# key -> parser.  Unset keys take the defaults of the ExperimentConfig,
# PulseParams, Imperfections and UnitSystem field of the same name, and of
# the *_GRID_DEFAULT sweep grids.
CONFIG_KEYS = {
    "theta_c": float,
    "nbar0": float,
    "eta": float,
    "omega": float,
    "t_pulse": float,
    "omega_z": float,
    "n_max": int,
    "shots": int,
    "seed": int,
    "readout_points": int,
    "readout_span": float,
    "gamma0": float,
    "decay_alpha": float,
    "n_fit": int,
    "init_fidelity": float,
    "detection_epsilon": float,
    "cool_nbar": float,
    "nbar_min": float,
    "nbar_max": float,
    "nbar_points": int,
    "theta_min": float,
    "theta_max": float,
    "theta_points": int,
}

# The keys each subcommand reads, hence its flags and its provenance hash.  Sweeps
# and crossings set theta_c and a pi pulse at the default drive calibration
# themselves, sweep-temp also nbar0 and a perfect preparation: a pi pulse turns
# every block through the same angle whatever eta and omega, and theta_c = pi/2
# dephases to the even mixture whatever init_fidelity, so neither can change
# their output.
_ERASURE_KEYS = ("n_max", "init_fidelity", "cool_nbar", "seed")
_PULSE_KEYS = ("eta", "omega")
_READOUT_KEYS = ("theta_c", "nbar0", "t_pulse", "shots", "readout_points", "readout_span",
                 "gamma0", "decay_alpha", "n_fit", "detection_epsilon",
                 *_PULSE_KEYS, *_ERASURE_KEYS)
COMMAND_KEYS = {
    "verify": ("theta_c", "nbar0", "t_pulse", "omega_z") + _PULSE_KEYS + _ERASURE_KEYS,
    "sweep-temp": ("nbar_min", "nbar_max", "nbar_points", "n_max", "cool_nbar", "seed"),
    "sweep-theta": ("nbar0", "theta_min", "theta_max", "theta_points") + _ERASURE_KEYS,
    "crossings": ("nbar0",) + _ERASURE_KEYS,
    "readout": _READOUT_KEYS,
    "run": _READOUT_KEYS + ("omega_z",),
}


class CliError(Exception):
    """Validation failure; message names the offending key or value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qlandauer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand")
    for name, keys in COMMAND_KEYS.items():
        sp = sub.add_parser(name, add_help=True)
        sp.add_argument("--config", dest="config_path", default=None,
                        help="flat key = value config file")
        sp.add_argument("--output", "-o", dest="output_path", default=None,
                        help="write results here instead of stdout")
        if name in ("run", "readout"):
            sp.add_argument("--format", choices=("table", "structured"),
                            default="structured", help="output format")
        sp.add_argument("--realistic", action="store_true",
                        help="enable the quoted hardware imperfection preset")
        for key in keys:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=CONFIG_KEYS[key],
                            default=None, metavar=key.upper())
    return parser


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment; unknown keys are errors."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


def _fields(cls) -> list[str]:
    """Names of the dataclass fields of cls that are also config keys."""
    return [f.name for f in dataclasses.fields(cls) if f.name in CONFIG_KEYS]


def load_config(config_path: str | None, overrides: dict,
                realistic: bool = False) -> tuple[ExperimentConfig, dict]:
    """Merge defaults <- config file <- CLI overrides and validate every key.

    Returns the experiment config plus the raw merged key map (the sweep
    grid keys live only in the latter).  With ``realistic`` the quoted
    imperfection preset provides the baseline; explicitly set keys still win.
    """
    base = REALISTIC_IMPERFECTIONS if realistic else Imperfections()
    values = {key: getattr(obj, key)
              for obj in (ExperimentConfig(), PulseParams(), base, UnitSystem())
              for key in _fields(type(obj))}
    values.update(zip(("nbar_min", "nbar_max", "nbar_points"), NBAR_GRID_DEFAULT))
    values.update(zip(("theta_min", "theta_max", "theta_points"), THETA_GRID_DEFAULT))
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        if CONFIG_KEYS[key] is float and value is not None and not math.isfinite(value):
            raise CliError(f"{key} must be finite, got {value}")
    lo, hi = values["nbar_min"], values["nbar_max"]
    if not 0 < lo <= hi:
        raise CliError(f"invalid nbar grid: nbar_min={lo}, nbar_max={hi}")
    lo, hi = values["theta_min"], values["theta_max"]
    if not 0 <= lo <= hi <= math.pi:
        raise CliError(f"invalid theta grid: theta_min={lo}, theta_max={hi}")
    for key in ("nbar_points", "theta_points"):
        if values[key] < 1:
            raise CliError(f"{key} must be >= 1, got {values[key]}")

    try:
        UnitSystem(values["omega_z"])
        config = ExperimentConfig(
            pulse=PulseParams(**{key: values[key] for key in _fields(PulseParams)}),
            imperfections=Imperfections(**{key: values[key] for key in _fields(Imperfections)}),
            **{key: values[key] for key in _fields(ExperimentConfig)},
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return config, values


def provenance_line(command: str, values: dict) -> str:
    """Header line: a hash of the values of the keys ``command`` reads, and the seed."""
    canonical = repr([(key, values[key]) for key in COMMAND_KEYS[command]])
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return f"# qlandauer {command} config={digest} seed={values['seed']}"


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output file {output_path}: {exc.strerror}") from exc


def _check_truncation(config: ExperimentConfig, failures: list[str]) -> str:
    """The truncation_tail_mass line (thermal mass beyond n_max); a tail above
    TRUNCATION_TAIL_TOL is added to ``failures``.  The renormalised Gibbs
    state makes the equality exact at any n_max, so the residual cannot show
    a short one."""
    trunc = config.truncation()
    tail = trunc.tail_mass(config.effective_nbar0)
    if tail > TRUNCATION_TAIL_TOL:
        failures.append(f"n_max = {trunc.n_max} leaves thermal tail mass {tail:.3e} beyond "
                        f"{TRUNCATION_TAIL_TOL}; raise n_max or leave it unset")
    return f"truncation_tail_mass = {tail!r}\n"


def _cmd_verify(config: ExperimentConfig, values: dict, failures: list[str]) -> str:
    ledger, _, _ = run_erasure(config)
    if not ledger.divergent and not abs(ledger.residual) < VERIFY_RESIDUAL_BOUND:
        failures.append(
            f"equality residual {ledger.residual:.3e} exceeds {VERIFY_RESIDUAL_BOUND}")
    text = format_ledger_summary(ledger, config, provenance_line("verify", values),
                                 units=UnitSystem(values["omega_z"]))
    text += _check_truncation(config, failures)
    verdict = "divergent" if ledger.divergent else "no" if failures else "yes"
    return text + f"verified = {verdict}\n"


def _run_summary(row, config: ExperimentConfig, values: dict) -> str:
    # The row carries every ledger term of its erasure; e_initial and e_final
    # are the exact pre- and post-erasure mean phonon numbers.
    ledger = LandauerLedger(
        delta_q=row.exact_mean_phonon - row.exact_mean_phonon_pre,
        e_initial=row.exact_mean_phonon_pre,
        e_final=row.exact_mean_phonon,
        **{key: getattr(row, key) for key in ("temperature", "lhs", "delta_s", "mutual_info",
                                              "relative_entropy", "rhs", "residual")},
    )
    text = format_ledger_summary(ledger, config, provenance_line("run", values),
                                 units=UnitSystem(values["omega_z"]))
    return text + (
        f"exact_mean_phonon_pre = {row.exact_mean_phonon_pre!r}\n"
        f"fitted_mean_phonon_pre = {row.fitted_mean_phonon_pre!r}\n"
        f"exact_mean_phonon_post = {row.exact_mean_phonon!r}\n"
        f"fitted_mean_phonon_post = {row.fitted_mean_phonon!r}\n"
        f"delta_q_estimate_q0 = {row.delta_q_estimate!r}\n"
        f"readout_model_error = {row.readout_model_error!r}\n"
        f"shots = {config.shots!r}\n"
    )


def _readout_summary(row, values: dict) -> str:
    lines = [provenance_line("readout", values)]
    for name in ("value", "nbar0", "exact_mean_phonon_pre", "fitted_mean_phonon_pre",
                 "exact_mean_phonon", "fitted_mean_phonon", "delta_q_estimate",
                 "readout_model_error"):
        val = getattr(row, name)
        lines.append(f"{name} = {'divergent' if val is None else repr(float(val))}")
    return "\n".join(lines) + "\n"


def _cmd_readout(command: str, config: ExperimentConfig, values: dict, fmt: str,
                 failures: list[str]) -> str:
    """readout and run: one erasure plus the phonon readout of both states."""
    row = simulated_readout_run(config)
    if not row.fit_converged:
        failures.append("phonon fit hit the iteration cap without converging")
    tail_line = _check_truncation(config, failures)
    if fmt == "table":
        return format_sweep_table([row], provenance_line(command, values))
    text = (_run_summary(row, config, values) if command == "run"
            else _readout_summary(row, values))
    return text + f"fit_converged = {'yes' if row.fit_converged else 'no'}\n" + tail_line


def _cmd_sweep_temp(config: ExperimentConfig, values: dict) -> str:
    grid = np.geomspace(values["nbar_min"], values["nbar_max"], values["nbar_points"])
    rows = sweep_temperature(config, grid)
    return format_sweep_table(rows, provenance_line("sweep-temp", values))


def _cmd_sweep_theta(config: ExperimentConfig, values: dict) -> str:
    grid = np.linspace(values["theta_min"], values["theta_max"], values["theta_points"])
    rows = sweep_theta(config, grid)
    return format_sweep_table(rows, provenance_line("sweep-theta", values))


def _cmd_crossings(config: ExperimentConfig, values: dict) -> str:
    theta_low, theta_high = find_entropy_zero_crossings(config)
    lines = [
        provenance_line("crossings", values),
        f"nbar0 = {config.effective_nbar0!r}",
        f"theta_low = {'absent' if theta_low is None else repr(theta_low)}",
        f"theta_high = {'absent' if theta_high is None else repr(theta_high)}",
    ]
    return "\n".join(lines) + "\n"


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse arguments, run the subcommand, write results; return exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise CliError("a subcommand is required: " + ", ".join(COMMAND_KEYS))
        overrides = {key: getattr(args, key) for key in COMMAND_KEYS[args.subcommand]}
        config, values = load_config(args.config_path, overrides, args.realistic)
        failures: list[str] = []
        if args.subcommand == "verify":
            text = _cmd_verify(config, values, failures)
        elif args.subcommand in ("readout", "run"):
            text = _cmd_readout(args.subcommand, config, values, args.format, failures)
        elif args.subcommand == "sweep-temp":
            text = _cmd_sweep_temp(config, values)
        elif args.subcommand == "sweep-theta":
            text = _cmd_sweep_theta(config, values)
        else:
            text = _cmd_crossings(config, values)
        # Failed checks are named even when the output cannot be written.
        try:
            _emit(text, args.output_path)
        finally:
            if failures:
                print(f"numerical failure: {'; '.join(failures)}", file=sys.stderr)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_NUMERICAL if failures else EXIT_OK


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
