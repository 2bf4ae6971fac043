"""Physical model: qubit x truncated Fock space, sideband drives, erasure pulse.

Units: hbar = 1, frequencies in rad/us, time in us.  Basis ordering is
qubit-major: index = qubit*(n_max+1) + n, with qubit 0 = |down>, 1 = |up>.
All operations are pure; states are immutable after construction.

The dephased qubit and the thermal reservoir are diagonal and the red pulse
rotates 2x2 pairs (|up,n>, |down,n+1>), so JointState holds only those
entries and the erasure runs in O(n_max).  thermal_state and
jc_block_unitary build the dense operators the tests use as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EIGENVALUE_FLOOR, TRACE_TOL, DensityMatrix

# Default drive calibration: Lamb-Dicke parameter 0.09, pi-pulse time 33 us
# on the first red-sideband block, hence Omega = pi / (eta * t_op).
ETA_DEFAULT = 0.09
T_OP_DEFAULT = 33.0
OMEGA_DEFAULT = math.pi / (ETA_DEFAULT * T_OP_DEFAULT)
# Axial trap frequency, rad/us (omega_z / 2pi = 1.01 MHz).
OMEGA_Z_DEFAULT = 2.0 * math.pi * 1.01

# Tail probability allowed beyond the retained Fock levels.
TRUNCATION_TAIL_TOL = 1e-12
# Smallest automatic truncation, whatever the temperature: the erasure adds
# up to one phonon, and the blue readout of |down,1> needs |up,2>.
N_MAX_FLOOR = 2
# Largest automatic truncation (nbar up to about 36,000): one erasure holds
# about 177 bytes per level, so it peaks near 180 MB.
N_MAX_LIMIT = 1_000_000


@dataclass(frozen=True)
class FockTruncation:
    """Highest retained Fock level of the vibrational mode."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def for_nbar(cls, nbar: float) -> "FockTruncation":
        """Smallest truncation whose thermal tail beyond n_max is below
        TRUNCATION_TAIL_TOL: n_max >= ln(TRUNCATION_TAIL_TOL) / ln(nbar / (1 + nbar)),
        at least N_MAX_FLOOR, and a ValueError above N_MAX_LIMIT.
        """
        if nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {nbar}")
        if nbar == 0:
            return cls(N_MAX_FLOOR)
        q = nbar / (1.0 + nbar)
        if not q < 1.0:  # also NaN and inf
            raise ValueError(f"nbar = {nbar} needs infinite n_max: nbar/(1+nbar) rounds to 1")
        n_max = max(N_MAX_FLOOR, math.ceil(math.log(TRUNCATION_TAIL_TOL) / math.log(q)))
        if n_max > N_MAX_LIMIT:
            raise ValueError(f"nbar = {nbar} needs n_max = {n_max}, above the limit {N_MAX_LIMIT}")
        return cls(n_max)

    def tail_mass(self, nbar: float) -> float:
        """Thermal probability beyond n_max, sum_{n > n_max} p_n = q^(n_max+1)
        with q = nbar / (1 + nbar); the truncated state renormalises it away."""
        return (nbar / (1.0 + nbar)) ** (self.n_max + 1)


@dataclass(frozen=True)
class PulseParams:
    """Drive calibration: Lamb-Dicke eta and Rabi frequency (rad/us).  Drive
    times are passed to each function that drives.  There is no laser phase:
    the erasure acts on a dephased qubit and the readout on populations, so
    no result depends on it."""

    eta: float = ETA_DEFAULT
    omega: float = OMEGA_DEFAULT

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    @property
    def t_op(self) -> float:
        """pi-pulse length on the n = 0 sideband block, pi/(eta*omega)."""
        return math.pi / (self.eta * self.omega)


@dataclass(frozen=True)
class JointState:
    """Qubit x truncated Fock state, diagonal apart from red-sideband pairs:
    populations[q, n] = <q,n|rho|q,n> (shape 2 x (n_max + 1)) and
    red_coherences[n] = <down,n+1|rho|up,n>.  Validated in O(n_max) by
    DensityMatrix's rules; ``spectrum`` holds the eigenvalues: the dark
    |down,0> and |up,n_max> populations and each pair block's pair."""

    populations: np.ndarray
    red_coherences: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pops = np.array(self.populations, dtype=float)
        coh = np.array(self.red_coherences, dtype=complex)
        if pops.ndim != 2 or len(pops) != 2 or coh.shape != (pops.shape[1] - 1,) or not coh.size:
            raise ValueError(f"expected populations of shape (2, n_max + 1) with n_max >= 1 "
                             f"and n_max red coherences, got {pops.shape} and {coh.shape}")
        if not (np.isfinite(pops).all() and np.isfinite(coh).all()):
            raise ValueError("joint state has non-finite entries")
        if abs(pops.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"joint state trace {pops.sum():.12g} differs from 1 beyond {TRACE_TOL}")
        # Pair block [[a, conj(c)], [c, b]] on (|up,n>, |down,n+1>); its lower
        # eigenvalue is taken as det / upper, which does not cancel.
        a, b = pops[1, :-1], pops[0, 1:]
        upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, np.abs(coh))
        lower = np.divide(a * b - np.abs(coh)**2, upper, out=a + b - upper, where=a + b > 0)
        spectrum = np.concatenate(([pops[0, 0], pops[1, -1]], upper, lower))
        if spectrum.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"joint state has negative eigenvalue {spectrum.min():.3e}")
        for name, value in (("populations", pops), ("red_coherences", coh), ("spectrum", spectrum)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_max(self) -> int:
        return self.populations.shape[1] - 1

    def reduced_qubit(self) -> np.ndarray:
        """Populations of |down>, |up>; the reduced qubit state is diagonal."""
        return self.populations.sum(axis=1)

    def reduced_fock(self) -> np.ndarray:
        """Fock populations p_0 .. p_{n_max}; the reduced reservoir state is diagonal."""
        return self.populations.sum(axis=0)


def thermal_log_weights(nbar: float, trunc: FockTruncation) -> np.ndarray:
    """ln p_n of the truncated, renormalized Gibbs state of the number operator:
    p_n proportional to nbar^n / (1+nbar)^(n+1) for n <= n_max.  Log space
    keeps exact logarithms of weights far below double precision (the
    relative entropy needs them at very low nbar); nbar = 0 gives the Fock
    ground state, ln p_0 = 0 and -inf above."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    n = np.arange(trunc.dim)
    if nbar == 0:
        return np.where(n == 0, 0.0, -np.inf)
    log_w = n * (math.log(nbar) - math.log1p(nbar)) - math.log1p(nbar)
    peak = log_w.max()
    return log_w - (peak + math.log(np.exp(log_w - peak).sum()))


def thermal_state(nbar: float, trunc: FockTruncation) -> DensityMatrix:
    """The truncated Gibbs state of thermal_log_weights as a dense matrix."""
    return DensityMatrix(np.diag(np.exp(thermal_log_weights(nbar, trunc))))


def carrier_rotation(theta_c: float) -> np.ndarray:
    """2x2 carrier unitary cos(theta_c/2) I - i sin(theta_c/2) sigma_x."""
    c = math.cos(theta_c / 2.0)
    s = math.sin(theta_c / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def dephase_qubit(qubit: np.ndarray, reservoir: np.ndarray) -> JointState:
    """qubit (x) diag(reservoir) with the blocks coupling the two qubit
    levels zeroed: the 2x2 qubit's populations times the Fock populations
    p_0 .. p_{n_max}, no pair coherence."""
    return JointState(np.outer(np.diagonal(qubit).real, reservoir), np.zeros(len(reservoir) - 1))


def sideband_half_angles(p: PulseParams, blocks: int, t) -> np.ndarray:
    """Half Rabi angle eta*Omega*sqrt(n+1)*t/2 of sideband blocks n = 0 ..
    blocks-1 at time t (a column of times gives one row per time)."""
    return p.eta * p.omega * np.sqrt(np.arange(blocks) + 1.0) * t / 2.0


def jc_block_unitary(kind: str, p: PulseParams, trunc: FockTruncation, t: float) -> np.ndarray:
    """Closed-form sideband evolution exp(-i H t) for time t as a dense matrix.

    The red drive is eta*Omega*(a sigma+ + a† sigma-)/2, the blue drive
    eta*Omega*(a sigma- + a† sigma+)/2.  Each coupled pair rotates through
    twice sideband_half_angles; dark states pick up no phase: |down,0> and
    |up,n_max> under red, |up,0> and |down,n_max> under blue.
    """
    if kind not in ("red", "blue"):
        raise ValueError(f"kind must be 'red' or 'blue', got {kind!r}")
    d, n = trunc.dim, np.arange(trunc.n_max)
    half_angles = sideband_half_angles(p, trunc.n_max, t)
    # coupled pairs: (|down,n+1>, |up,n>) under red, (|up,n+1>, |down,n>) under blue
    target, source = (n + 1, d + n) if kind == "red" else (d + n + 1, n)
    u = np.eye(2 * d, dtype=complex)
    u[target, target] = u[source, source] = np.cos(half_angles)
    u[target, source] = u[source, target] = -1j * np.sin(half_angles)
    return u


def evolve(rho: JointState, p: PulseParams, t: float) -> JointState:
    """Drive the red sideband for time t: U rho U† pair by pair, with
    U = [[c, -i s], [-i s, c]] on (|down,n+1>, |up,n>) and c, s of the
    block's half angle; the dark states are untouched."""
    half_angles = sideband_half_angles(p, rho.n_max, t)
    c, s = np.cos(half_angles), np.sin(half_angles)
    up, down, coh = rho.populations[1, :-1], rho.populations[0, 1:], rho.red_coherences
    cross = 2.0 * c * s * coh.imag
    pops = rho.populations.copy()
    pops[1, :-1] = c**2 * up + s**2 * down + cross
    pops[0, 1:] = s**2 * up + c**2 * down - cross
    coh = c**2 * coh + s**2 * np.conj(coh) + 1j * c * s * (down - up)
    return JointState(pops, coh)
