"""Command-line front end.

Subcommands: verify, sweep-temp, sweep-theta, crossings, readout, run.
Configuration comes from defaults, then an optional flat key = value file,
then command-line overrides, in that precedence; a file may set any key, a
subcommand takes and hashes only the keys it reads, and each of those can
change its output (seed only where shots are drawn).  Exit codes: 0 success,
1 validation error (an output file or standard output that cannot be
written included), 2 numerical failure (a failed equality check under every
command but crossings, a failed heat-conservation check under verify, a
failed truncation check under any command, or a non-converged fit under
readout or run); a failed check still writes the output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import math
import os
import stat
import sys

import numpy as np

from .info import UnitSystem
from .ion import TRUNCATION_TAIL_TOL, thermal_tail_mass
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
# Largest nbar_points or theta_points, one erasure and one table row a point:
# measured in a child process, `sweep-temp --nbar-points 100000 -o FILE` peaks
# at 156 MiB resident, 124 MiB above the imported package, and takes 9 s
# (sweep-theta: 148 MiB; Python 3.11, numpy 2.4.6, x86-64 Linux, 2 cores).
GRID_POINTS_LIMIT = 100_000

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# key -> parser.  Unset keys take the defaults of the ExperimentConfig,
# Imperfections and UnitSystem field of the same name, and of the
# *_GRID_DEFAULT sweep grids.
CONFIG_KEYS = {
    "theta_c": float,
    "nbar0": float,
    "t_op": float,
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
# every block through the same angle whatever t_op, and theta_c = pi/2
# dephases to the even mixture whatever init_fidelity, so neither can change
# their output.
_ERASURE_KEYS = ("n_max", "init_fidelity", "cool_nbar", "seed")
_READOUT_KEYS = ("theta_c", "nbar0", "t_op", "t_pulse", "shots", "readout_points",
                 "readout_span", "n_fit", "detection_epsilon", *_ERASURE_KEYS)
COMMAND_KEYS = {
    "verify": ("theta_c", "nbar0", "t_op", "t_pulse", "omega_z") + _ERASURE_KEYS,
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
        sp = sub.add_parser(name, add_help=True, allow_abbrev=False)
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
              for obj in (ExperimentConfig(), base, UnitSystem())
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
        if not 1 <= values[key] <= GRID_POINTS_LIMIT:
            raise CliError(f"{key} must be >= 1 and <= {GRID_POINTS_LIMIT}, got {values[key]}")

    try:
        UnitSystem(values["omega_z"])
        config = ExperimentConfig(
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


def _write_stream(stream, text: str) -> None:
    """Write ``text`` to ``stream`` and flush it; on an OSError, point the
    stream's descriptor at /dev/null and raise it again.

    A failed write leaves the text in the stream, and the interpreter's own
    flush at exit would fail on it again, print "Exception ignored" and exit
    120.  Once the descriptor is /dev/null that flush succeeds, as in the
    Python docs' note on SIGPIPE, so the caller's exit code stands.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _warn(text: str) -> None:
    """Write one line to stderr; one that cannot be written is dropped, so
    the exit code stays the one the line explains."""
    with contextlib.suppress(OSError):
        _write_stream(sys.stderr, text + "\n")


def _emit(text: str, output_path: str | None) -> None:
    """Write ``text`` to stdout, or over the file at ``output_path``; a
    failed write is a CliError either way.

    The file is opened without O_TRUNC and, if it is a regular file, cut at
    the written length after the write.  On ext4 an open with O_TRUNC of a
    file that holds data was measured to wait 50-73 ms (2-core host, disk
    mounted with discard), seconds or minutes after the file was last
    written, so rerunning a sweep onto its own output file paid that wait;
    the cut after the write does not.  A write that fails or is interrupted
    cuts the file to empty, so it never keeps a tail of its earlier contents.
    """
    if output_path is None:
        try:
            _write_stream(sys.stdout, text)
        except OSError as exc:
            raise CliError(f"cannot write standard output: {exc.strerror}") from exc
        return
    try:
        fd = os.open(output_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except BaseException:
            with contextlib.suppress(OSError):  # /dev/null or a FIFO cannot be cut
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
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
        ("pulse_duration_us", config.erasure_time), ("t_op_us", config.t_op),
        ("n_max", config.truncation()), ("e_initial_q0", e_initial), ("e_final_q0", e_final),
        ("delta_q_q0", delta_q), ("temperature_t0", temperature), ("lhs", terms.lhs),
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
    # The row carries every ledger term of its erasure; its exact mean
    # phonon numbers are the pre- and post-erasure energies.
    head = (_ledger_pairs(config, values, row, row.exact_mean_phonon_pre, row.exact_mean_phonon)
            if command == "run" else [("theta_c", config.theta_c), ("nbar0", row.nbar0)])
    readout = [(name, getattr(row, name)) for name in (
        "exact_mean_phonon_pre", "fitted_mean_phonon_pre", "exact_mean_phonon",
        "fitted_mean_phonon", "delta_q_estimate", "p_up_final")]
    return _summary(provenance, [*head, *readout, ("shots", config.shots),
                                 ("fit_converged", "yes" if row.fit_converged else "no"),
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
                _warn(f"numerical failure: {'; '.join(failures)}")
    except (CliError, ValueError) as exc:
        _warn(f"error: {exc}")
        return EXIT_VALIDATION
    return EXIT_NUMERICAL if failures else EXIT_OK


def main() -> None:
    # Moves the import-time heap into the permanent generation, so neither a
    # collection during the command nor those of interpreter finalization
    # walk it again.  After the imports about 21,500 objects are gc-tracked,
    # mostly numpy's, and one full collection of them takes 2.8-3.5 ms.  On
    # one pinned core (Python 3.11, numpy 2.4.6, x86-64 Linux, 2 cores) a
    # process that only imports this module spent 15.3 ms finalizing, 2.7 ms
    # after the freeze, and the six README commands as fresh processes took
    # 707 ms against 796 ms (medians of 20 interleaved pairs).  Only main()
    # freezes: importing the module or calling parse_and_dispatch does not.
    gc.freeze()
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
