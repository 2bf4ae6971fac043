"""Command-line front end.

Subcommands: verify, sweep-temp, sweep-theta, crossings, readout, run.
Configuration comes from defaults, then an optional flat key = value file,
then command-line overrides, in that precedence; a file may set any key, a
subcommand takes and hashes only the keys it reads, and each of those can
change its output (seed only where shots are drawn).  Exit codes: 0 success,
1 validation error (an output file that cannot be written included), 2
numerical failure (a failed equality check under every command but
crossings, a failed heat-conservation check under verify, a failed
truncation check under any command, or a non-converged fit under readout or
run); a failed check still writes the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys

import numpy as np

from .info import UnitSystem
from .ion import TRUNCATION_TAIL_TOL, PulseParams, thermal_tail_mass
from .protocol import (
    NBAR_GRID_DEFAULT,
    THETA_GRID_DEFAULT,
    REALISTIC_IMPERFECTIONS,
    ExperimentConfig,
    Imperfections,
    find_entropy_zero_crossings,
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
                 "n_fit", "detection_epsilon", *_PULSE_KEYS, *_ERASURE_KEYS)
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


def _check_truncation(config: ExperimentConfig, failures: list[str]) -> float:
    """The thermal mass beyond n_max; a tail above TRUNCATION_TAIL_TOL is
    added to ``failures``.  The renormalised Gibbs state makes the equality
    exact at any n_max, so the residual cannot show a short one."""
    n_max = config.truncation()
    tail = thermal_tail_mass(config.effective_nbar0, n_max)
    if tail > TRUNCATION_TAIL_TOL:
        failures.append(f"n_max = {n_max} leaves thermal tail mass {tail:.3e} beyond "
                        f"{TRUNCATION_TAIL_TOL}; raise n_max or leave it unset")
    return tail


def _check_equality(residuals, failures: list[str]) -> None:
    """Adds to ``failures`` the non-divergent (not None) equality residuals
    not below VERIFY_RESIDUAL_BOUND, the first by value."""
    bad = [r for r in residuals if r is not None and not abs(r) < VERIFY_RESIDUAL_BOUND]
    if bad:
        more = f" (and {len(bad) - 1} more)" if len(bad) > 1 else ""
        failures.append(f"equality residual {bad[0]:.3e} exceeds {VERIFY_RESIDUAL_BOUND}{more}")


def _summary(provenance: str, pairs) -> str:
    """The structured output: the provenance line, then one ``key = value``
    line per pair; None prints as divergent, a string as it is, anything
    else as its repr."""
    lines = [provenance]
    for key, value in pairs:
        text = "divergent" if value is None else value if isinstance(value, str) else repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _ledger_pairs(config: ExperimentConfig, values: dict, terms, e_initial: float,
                  e_final: float, *after_residual) -> list:
    """The ledger block of verify and run: the erasure's settings, its
    energies and heat, the equality terms of ``terms`` (a LandauerLedger or
    SweepRow), the pairs ``after_residual``, then the Q0/T0 quantities in
    joules and microkelvin."""
    units = UnitSystem(values["omega_z"])
    delta_q = e_final - e_initial
    temperature = terms.temperature
    return [
        ("theta_c", config.theta_c), ("nbar0", config.effective_nbar0),
        ("pulse_duration_us", config.erasure_time), ("eta", config.pulse.eta),
        ("omega_rad_per_us", config.pulse.omega), ("n_max", config.truncation()),
        ("e_initial_q0", e_initial), ("e_final_q0", e_final), ("delta_q_q0", delta_q),
        ("temperature_t0", temperature), ("lhs", terms.lhs),
        ("delta_s_nats", terms.delta_s), ("mutual_info_nats", terms.mutual_info),
        ("relative_entropy_nats", terms.relative_entropy), ("rhs", terms.rhs),
        ("residual", terms.residual), *after_residual,
        ("q0_joule", units.q0_joule), ("t0_micro_kelvin", units.t0_kelvin * 1e6),
        ("temperature_micro_kelvin",
         None if temperature is None else temperature * units.t0_kelvin * 1e6),
        ("delta_q_joule", delta_q * units.q0_joule),
    ]


def _cmd_verify(config: ExperimentConfig, values: dict, failures: list[str]) -> str:
    """One erasure's ledger, checked two ways: the equality residual, and the
    heat against the conservation law.  The red sideband conserves
    n + |up><up| (|up,n_max> is dark, so truncation keeps that), hence
    delta_q = P_up - P'_up exactly, with no entropy code involved."""
    ledger, initial, final = run_erasure(config)
    _check_equality([ledger.residual], failures)
    heat_residual = float(ledger.delta_q - (initial.reduced_qubit()[1]
                                            - final.reduced_qubit()[1]))
    if not abs(heat_residual) < VERIFY_RESIDUAL_BOUND:
        failures.append(f"heat conservation residual {heat_residual:.3e} exceeds "
                        f"{VERIFY_RESIDUAL_BOUND}")
    pairs = _ledger_pairs(config, values, ledger, ledger.e_initial, ledger.e_final,
                          ("heat_conservation_residual", heat_residual))
    tail = _check_truncation(config, failures)
    verdict = "divergent" if ledger.divergent else "no" if failures else "yes"
    return _summary(provenance_line("verify", values),
                    [*pairs, ("truncation_tail_mass", tail), ("verified", verdict)])


def _cmd_readout(command: str, config: ExperimentConfig, values: dict, fmt: str,
                 failures: list[str]) -> str:
    """readout and run: one erasure plus the phonon readout of both states."""
    row = simulated_readout_run(config)
    _check_equality([row.residual], failures)
    if not row.fit_converged:
        failures.append("phonon fit hit the iteration cap without converging")
    tail = _check_truncation(config, failures)
    provenance = provenance_line(command, values)
    if fmt == "table":
        return format_sweep_table([row], provenance)
    if command == "run":
        # The row carries every ledger term of its erasure; its exact mean
        # phonon numbers are the pre- and post-erasure energies.
        pairs = [*_ledger_pairs(config, values, row, row.exact_mean_phonon_pre,
                                row.exact_mean_phonon),
                 ("exact_mean_phonon_pre", row.exact_mean_phonon_pre),
                 ("fitted_mean_phonon_pre", row.fitted_mean_phonon_pre),
                 ("exact_mean_phonon_post", row.exact_mean_phonon),
                 ("fitted_mean_phonon_post", row.fitted_mean_phonon),
                 ("delta_q_estimate_q0", row.delta_q_estimate),
                 ("readout_model_error", row.readout_model_error), ("shots", config.shots)]
    else:
        pairs = [("theta_c", config.theta_c), *((name, getattr(row, name)) for name in (
            "nbar0", "exact_mean_phonon_pre", "fitted_mean_phonon_pre",
            "exact_mean_phonon", "fitted_mean_phonon", "delta_q_estimate",
            "readout_model_error"))]
    return _summary(provenance, [*pairs, ("fit_converged", "yes" if row.fit_converged else "no"),
                                 ("truncation_tail_mass", tail)])


def _cmd_sweep_temp(config: ExperimentConfig, values: dict, failures: list[str]) -> str:
    """The sweep.  A given n_max serves every row, so its tail is checked at
    the hottest effective nbar of the grid; an automatic one fits each row."""
    grid = np.geomspace(values["nbar_min"], values["nbar_max"], values["nbar_points"])
    rows = sweep_temperature(config, grid)
    _check_equality([row.residual for row in rows], failures)
    _check_truncation(dataclasses.replace(config, nbar0=float(grid.max())), failures)
    return format_sweep_table(rows, provenance_line("sweep-temp", values))


def _cmd_sweep_theta(config: ExperimentConfig, values: dict, failures: list[str]) -> str:
    grid = np.linspace(values["theta_min"], values["theta_max"], values["theta_points"])
    rows = sweep_theta(config, grid)
    _check_equality([row.residual for row in rows], failures)
    _check_truncation(config, failures)
    return format_sweep_table(rows, provenance_line("sweep-theta", values))


def _cmd_crossings(config: ExperimentConfig, values: dict, failures: list[str]) -> str:
    theta_low, theta_high = find_entropy_zero_crossings(config)
    _check_truncation(config, failures)
    return _summary(provenance_line("crossings", values), [
        ("nbar0", config.effective_nbar0),
        ("theta_low", "absent" if theta_low is None else theta_low),
        ("theta_high", "absent" if theta_high is None else theta_high)])


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
            text = _cmd_sweep_temp(config, values, failures)
        elif args.subcommand == "sweep-theta":
            text = _cmd_sweep_theta(config, values, failures)
        else:
            text = _cmd_crossings(config, values, failures)
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
