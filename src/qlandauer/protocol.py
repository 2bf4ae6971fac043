"""End-to-end erasure experiments: single runs, sweeps, zero crossings.

The pipeline per run: prepare the qubit via carrier rotation (angle theta_c)
on a possibly imperfectly initialized level, dephase, attach the thermal
reservoir, drive the red sideband for t_pulse (by default the pi pulse),
then evaluate the erasure-equality ledger.  Every result is a pure function
of the config (and seed, when shots are drawn), so runs are reproducible
bit for bit and sweep rows may execute in any order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .info import LandauerLedger, landauer_ledger, temperature_from_nbar
from .ion import (
    N_MAX_FLOOR,
    N_MAX_LIMIT,
    T_OP_DEFAULT,
    JointState,
    dephase_qubit,
    evolve,
    n_max_for_nbar,
    thermal_log_weights,
)
from .readout import (
    default_n_fit,
    detection_flip,
    fit_design_matrix,
    fit_phonon_populations,
    model_trace,
    sample_shots,
)

# Default sweep grids: logarithmic in nbar for the temperature sweep,
# linear in theta_c for the initial-state sweep.
NBAR_GRID_DEFAULT = (0.01, 2.0, 25)
THETA_GRID_DEFAULT = (0.0, math.pi, 49)

CROSSING_TOL_RAD = 1e-4

# Largest readout_points * (max(n_max, n_fit) + 1): each readout trace or
# design array holds that many floats, so one is at most 80 MB.
READOUT_CELLS_LIMIT = 10_000_000
# Largest shot count: numpy's Generator.binomial takes an int64.
SHOTS_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class Imperfections:
    """Optional hardware imperfection knobs; all off in the ideal pipeline."""

    init_fidelity: float = 1.0      # weight on the correct level before the carrier
    detection_epsilon: float = 0.0  # symmetric readout misclassification
    cool_nbar: float = 0.0          # occupation floor left by cooling

    def __post_init__(self):
        if not 0.0 <= self.init_fidelity <= 1.0:
            raise ValueError(f"init_fidelity must be in [0, 1], got {self.init_fidelity}")
        if not 0.0 <= self.detection_epsilon <= 1.0:
            raise ValueError(
                f"detection_epsilon must be in [0, 1], got {self.detection_epsilon}"
            )
        if self.cool_nbar < 0:
            raise ValueError(f"cool_nbar must be >= 0, got {self.cool_nbar}")


# Quoted hardware values for the realistic preset.
REALISTIC_IMPERFECTIONS = Imperfections(
    init_fidelity=0.989, detection_epsilon=0.0022, cool_nbar=0.030
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One erasure experiment: preparation angle, reservoir occupation, the
    drive calibration t_op (the pi-pulse time of sideband block 0; the
    erasure and the readout use the same drive), the erasure pulse length,
    truncation, readout settings, imperfections.  Validated on construction
    and on replace."""

    theta_c: float = math.pi / 2
    nbar0: float = 0.074
    t_op: float = T_OP_DEFAULT
    t_pulse: float | None = None        # None -> the pi pulse t_op
    n_max: int | None = None            # None -> automatic sizing from nbar0
    shots: int = 0                      # 0 -> noiseless sentinel
    seed: int = 2024
    readout_points: int = 30
    readout_span: float | None = None   # None -> 6 * t_op
    n_fit: int | None = None            # None -> default_n_fit rule
    imperfections: Imperfections = Imperfections()

    def __post_init__(self):
        for part in (self, self.imperfections):
            for name, value in vars(part).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.theta_c <= math.pi:
            raise ValueError(f"theta_c must lie in [0, pi], got {self.theta_c}")
        if self.nbar0 < 0:
            raise ValueError(f"nbar0 must be >= 0, got {self.nbar0}")
        if self.t_op <= 0:
            raise ValueError(f"t_op must be > 0, got {self.t_op}")
        if self.t_pulse is not None and self.t_pulse < 0:
            raise ValueError(f"t_pulse must be >= 0, got {self.t_pulse}")
        if not 0 <= self.shots <= SHOTS_LIMIT:
            raise ValueError(f"shots must be >= 0 and <= {SHOTS_LIMIT}, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.readout_points < 2:
            raise ValueError(f"readout_points must be >= 2, got {self.readout_points}")
        if self.readout_span is not None and self.readout_span <= 0:
            raise ValueError(f"readout_span must be > 0, got {self.readout_span}")
        if self.n_fit is not None and self.n_fit < 1:
            raise ValueError(f"n_fit must be >= 1, got {self.n_fit}")
        if self.n_max is not None and not N_MAX_FLOOR <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(f"n_max must be >= {N_MAX_FLOOR} and <= {N_MAX_LIMIT}, got {self.n_max}")

    @property
    def erasure_time(self) -> float:
        """Length of the red-sideband erasure pulse, us."""
        return self.t_op if self.t_pulse is None else self.t_pulse

    @property
    def effective_nbar0(self) -> float:
        """Reservoir occupation actually reached: cooling floor applies."""
        return max(self.nbar0, self.imperfections.cool_nbar)

    def truncation(self) -> int:
        """Highest retained Fock level: n_max, or n_max_for_nbar if unset."""
        return self.n_max if self.n_max is not None else n_max_for_nbar(self.effective_nbar0)

    def readout_times(self) -> np.ndarray:
        span = self.readout_span
        if span is None:
            span = 6.0 * self.t_op
        return np.linspace(0.0, span, self.readout_points)


@dataclass(frozen=True)
class SweepRow:
    """One point of a sweep (or a single readout run) in output order."""

    variable: str                   # "temperature" or "theta_c"
    value: float
    nbar0: float
    temperature: float | None
    lhs: float | None
    rhs: float | None
    delta_s: float
    mutual_info: float
    relative_entropy: float | None
    residual: float | None
    exact_mean_phonon: float
    fitted_mean_phonon: float | None = None
    exact_mean_phonon_pre: float | None = None
    fitted_mean_phonon_pre: float | None = None
    delta_q_estimate: float | None = None
    p_up_final: float | None = None
    fit_converged: bool | None = None


SWEEP_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow))


def run_erasure(config: ExperimentConfig) -> tuple[LandauerLedger, JointState, JointState]:
    """Execute one erasure and evaluate its ledger.

    Returns (ledger, initial joint state, final joint state); the initial
    state is the post-dephasing, pre-pulse product state.
    """
    nbar = config.effective_nbar0
    # Populations of diag(F, 1 - F) after the carrier rotation; dephasing drops the rest.
    fidelity = config.imperfections.init_fidelity
    c, s = math.cos(config.theta_c / 2.0), math.sin(config.theta_c / 2.0)
    qubit = [c * fidelity * c + s * (1.0 - fidelity) * s,
             s * fidelity * s + c * (1.0 - fidelity) * c]
    initial = dephase_qubit(qubit, np.exp(thermal_log_weights(nbar, config.truncation())))
    final = evolve(initial, config.t_op, config.erasure_time)
    return landauer_ledger(initial, final, nbar), initial, final


def _ledger_row(variable: str, value: float, config: ExperimentConfig,
                ledger: LandauerLedger, **readout) -> SweepRow:
    """The row of one erasure's ledger: every ledger term a column shares the
    name of, plus the readout fields given in ``readout``."""
    terms = {name: term for name, term in vars(ledger).items() if name in SWEEP_COLUMNS}
    return SweepRow(variable=variable, value=value, nbar0=config.effective_nbar0,
                    exact_mean_phonon=ledger.e_final, **terms, **readout)


def _pi_pulse(config: ExperimentConfig) -> ExperimentConfig:
    """config erased by the pi pulse at the default drive calibration.  The
    pi pulse turns block n through pi*sqrt(n+1)/2 whatever t_op, so fixing
    it changes no result and makes it bit-reproducible."""
    return dataclasses.replace(config, t_op=T_OP_DEFAULT, t_pulse=None)


def sweep_temperature(config: ExperimentConfig, nbar_list) -> list[SweepRow]:
    """Equality test across reservoir temperatures: one row per nbar0 at
    theta_c = pi/2 and a pi-pulse erasure.  theta_c = pi/2 dephases to the
    even mixture whatever the preparation fidelity, so that is fixed at 1."""
    base = dataclasses.replace(
        _pi_pulse(config), theta_c=math.pi / 2,
        imperfections=dataclasses.replace(config.imperfections, init_fidelity=1.0))
    rows = []
    for nbar in nbar_list:
        if not 0 < nbar < math.inf:
            raise ValueError(f"sweep nbar values must be finite and > 0, got {nbar}")
        cfg = dataclasses.replace(base, nbar0=float(nbar))
        rows.append(_ledger_row("temperature", temperature_from_nbar(cfg.effective_nbar0),
                                cfg, run_erasure(cfg)[0]))
    return rows


def sweep_theta(config: ExperimentConfig, theta_list) -> list[SweepRow]:
    """Equality test across initial states: one row per theta_c at fixed
    nbar0 and a pi-pulse erasure."""
    base = _pi_pulse(config)
    rows = []
    for theta in theta_list:
        cfg = dataclasses.replace(base, theta_c=float(theta))
        rows.append(_ledger_row("theta_c", float(theta), cfg, run_erasure(cfg)[0]))
    return rows


def find_entropy_zero_crossings(
    config: ExperimentConfig,
) -> tuple[float | None, float | None]:
    """Zero crossings of the system entropy decrease over theta_c.

    Bisects delta_s(theta_c) on [0, pi/2] and [pi/2, pi] to CROSSING_TOL_RAD.
    A bracket with no sign change reports that crossing as absent (None).
    A |delta_s| within double-precision epsilon counts as an exact zero:
    at a bracket end it has no sign, at a midpoint it is the crossing.
    """
    cfg0 = _pi_pulse(config)
    zero = np.finfo(float).eps

    def delta_s(theta: float) -> float:
        ledger, _, _ = run_erasure(dataclasses.replace(cfg0, theta_c=theta))
        return ledger.delta_s

    def bisect(lo: float, hi: float) -> float | None:
        f_lo, f_hi = delta_s(lo), delta_s(hi)
        if min(abs(f_lo), abs(f_hi)) <= zero or (f_lo > 0) == (f_hi > 0):
            return None
        while hi - lo > CROSSING_TOL_RAD:
            mid = (lo + hi) / 2.0
            f_mid = delta_s(mid)
            if abs(f_mid) <= zero:
                return mid
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        return (lo + hi) / 2.0

    return bisect(0.0, math.pi / 2.0), bisect(math.pi / 2.0, math.pi)


def simulated_readout_run(config: ExperimentConfig) -> SweepRow:
    """Full pipeline including the phonon readout.

    Runs the erasure, then probes the pre- and post-erasure reservoir states:
    readout preparation resets the qubit to |down> without disturbing the
    reservoir, so a probe's clean blue-sideband trace is model_trace of the
    reservoir populations, the model the fit inverts.  Applies detection
    error and optionally shot noise, fits both traces on the probability
    simplex, and reports fitted vs exact mean phonon numbers, the heat
    estimate from the fits, and p_up_final, the up population P'_up that the
    erasure leaves and the reset before the post-erasure probe removes.
    Both probes fit levels 0..n_fit, config.n_fit or else default_n_fit of
    the effective nbar0.  A config whose readout arrays exceed
    READOUT_CELLS_LIMIT, or whose trace cannot identify n_fit + 1
    populations, is rejected before the erasure runs; that check
    (fit_design_matrix) builds the one design matrix both fits use.
    """
    # The truncation first: it refuses by name an nbar0 that needs infinite n_max.
    n_max = config.truncation()
    n_fit = config.n_fit if config.n_fit is not None else default_n_fit(config.effective_nbar0)
    cells = config.readout_points * (max(n_max, n_fit) + 1)
    if cells > READOUT_CELLS_LIMIT:
        raise ValueError(
            f"readout_points = {config.readout_points} gives readout arrays of {cells} "
            f"values, above the limit {READOUT_CELLS_LIMIT}; lower readout_points"
        )
    times = config.readout_times()
    eps = config.imperfections.detection_epsilon
    a = fit_design_matrix(n_fit, config.t_op, times, eps)

    ledger, initial, final = run_erasure(config)

    def probe(clean: np.ndarray, seed: int):
        p_down = detection_flip(clean, eps)
        if config.shots > 0:
            p_down = sample_shots(p_down, config.shots, seed)
        return fit_phonon_populations(a, p_down)

    pre, post = (model_trace(state.reduced_fock(), config.t_op, times)
                 for state in (initial, final))
    fit_pre = probe(pre, config.seed)
    fit_post = probe(post, config.seed + 1)

    return _ledger_row(
        "theta_c", config.theta_c, config, ledger,
        fitted_mean_phonon=fit_post.mean_phonon,
        exact_mean_phonon_pre=ledger.e_initial,
        fitted_mean_phonon_pre=fit_pre.mean_phonon,
        delta_q_estimate=fit_post.mean_phonon - fit_pre.mean_phonon,
        p_up_final=float(final.reduced_qubit()[1]),
        fit_converged=fit_pre.converged and fit_post.converged,
    )


# ---------------------------------------------------------------------------
# Delimited-text emission (plotting-tool-ready) with provenance headers.


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def format_sweep_table(rows, provenance: str) -> str:
    lines = [provenance, ",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"

