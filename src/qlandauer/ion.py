"""Physical model: qubit x truncated Fock space, sideband drives, erasure pulse.

Units: hbar = 1, frequencies in rad/us, time in us.  Basis ordering is
qubit-major: index = qubit*(n_max+1) + n, with qubit 0 = |down>, 1 = |up>.
All operations are pure; states are immutable after construction.

The truncation is the int n_max, sized from the thermal tail by
n_max_for_nbar.  The dephased qubit and the thermal reservoir are diagonal
and the red pulse rotates 2x2 pairs (|up,n>, |down,n+1>), so JointState
holds only those entries and the erasure runs in O(n_max).  The drive has
no phase, so every pair coherence the pulse makes is i times a real number
and the state holds that real number.  A drive is set by one calibration,
the pi-pulse time t_op of sideband block 0: block n turns at
(pi/t_op)*sqrt(n+1) (sideband_half_angles).  thermal_state and
jc_block_unitary build the dense operators the tests use as reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EIGENVALUE_FLOOR, TRACE_TOL, DensityMatrix

# Default drive calibration: pi-pulse time (us) of sideband block 0.
T_OP_DEFAULT = 33.0
# Axial trap frequency, rad/us (omega_z / 2pi = 1.01 MHz).
OMEGA_Z_DEFAULT = 2.0 * math.pi * 1.01

# Tail probability allowed beyond the retained Fock levels.
TRUNCATION_TAIL_TOL = 1e-12
# Smallest automatic truncation, whatever the temperature: the erasure adds
# up to one phonon, and the blue readout of |down,1> needs |up,2>.
N_MAX_FLOOR = 2
# Largest truncation, automatic or given (nbar up to about 36,000): measured
# in a child process, `verify --n-max 1000000` peaks at 190 MB resident, 158 MB
# above the imported package (Python 3.11, numpy 2.4.6, x86-64 Linux).
N_MAX_LIMIT = 1_000_000


def n_max_for_nbar(nbar: float) -> int:
    """Smallest truncation whose thermal tail beyond n_max is below
    TRUNCATION_TAIL_TOL: n_max >= ln(TRUNCATION_TAIL_TOL) / ln(nbar / (1 + nbar)),
    at least N_MAX_FLOOR, and a ValueError above N_MAX_LIMIT.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        return N_MAX_FLOOR
    q = nbar / (1.0 + nbar)
    if not q < 1.0:  # also NaN and inf
        raise ValueError(f"nbar = {nbar} needs infinite n_max: nbar/(1+nbar) rounds to 1")
    n_max = max(N_MAX_FLOOR, math.ceil(math.log(TRUNCATION_TAIL_TOL) / math.log(q)))
    if n_max > N_MAX_LIMIT:
        raise ValueError(f"nbar = {nbar} needs n_max = {n_max}, above the limit {N_MAX_LIMIT}")
    return n_max


def thermal_tail_mass(nbar: float, n_max: int) -> float:
    """Thermal probability beyond n_max, sum_{n > n_max} p_n = q^(n_max+1)
    with q = nbar / (1 + nbar); the truncated state renormalises it away."""
    return (nbar / (1.0 + nbar)) ** (n_max + 1)


@dataclass(frozen=True)
class JointState:
    """Qubit x truncated Fock state, diagonal apart from red-sideband pairs:
    populations[q, n] = <q,n|rho|q,n> (shape 2 x (n_max + 1)) and the real
    red_coherences[n] = y_n, with <down,n+1|rho|up,n> = i y_n.  Validated in
    O(n_max) by DensityMatrix's rules; ``spectrum`` holds the eigenvalues:
    the dark |down,0> and |up,n_max> populations and each pair block's pair."""

    populations: np.ndarray
    red_coherences: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pops, coh = np.asarray(self.populations), np.asarray(self.red_coherences)
        for name, value in (("populations", pops), ("red_coherences", coh)):
            if value.dtype.kind not in "biuf":
                raise ValueError(f"{name} must be real, got {value.dtype}")
        pops, coh = pops.astype(float), coh.astype(float)
        if pops.ndim != 2 or len(pops) != 2 or coh.shape != (pops.shape[1] - 1,) or not coh.size:
            raise ValueError(f"expected populations of shape (2, n_max + 1) with n_max >= 1 "
                             f"and n_max red coherences, got {pops.shape} and {coh.shape}")
        if not (np.isfinite(pops).all() and np.isfinite(coh).all()):
            raise ValueError("joint state has non-finite entries")
        if abs(pops.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"joint state trace {pops.sum():.12g} differs from 1 beyond {TRACE_TOL}")
        # Pair block [[a, -i y], [i y, b]] on (|up,n>, |down,n+1>); its lower
        # eigenvalue is taken as det / upper, which does not cancel, unless
        # upper rounds to 0 (a pair of 5e-324): then it is a + b.
        a, b = pops[1, :-1], pops[0, 1:]
        upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, coh)
        lower = np.divide(a * b - coh**2, upper, out=a + b - upper, where=(a + b > 0) & (upper > 0))
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


def thermal_log_weights(nbar: float, n_max: int) -> np.ndarray:
    """ln p_n of the truncated, renormalized Gibbs state of the number operator:
    p_n proportional to nbar^n / (1+nbar)^(n+1) for n <= n_max.  Log space
    keeps exact logarithms of weights far below double precision (the
    relative entropy needs them at very low nbar); nbar = 0 gives the Fock
    ground state, ln p_0 = 0 and -inf above."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    n = np.arange(n_max + 1)
    if nbar == 0:
        return np.where(n == 0, 0.0, -np.inf)
    log_w = n * (math.log(nbar) - math.log1p(nbar)) - math.log1p(nbar)
    peak = log_w.max()
    return log_w - (peak + math.log(np.exp(log_w - peak).sum()))


def thermal_state(nbar: float, n_max: int) -> DensityMatrix:
    """The truncated Gibbs state of thermal_log_weights as a dense matrix."""
    return DensityMatrix(np.diag(np.exp(thermal_log_weights(nbar, n_max))))


def dephase_qubit(qubit, reservoir) -> JointState:
    """The dephased qubit with populations (P_down, P_up) = ``qubit`` next to
    the Fock populations p_0 .. p_{n_max} = ``reservoir``: their product,
    with no pair coherence."""
    return JointState(np.outer(qubit, reservoir), np.zeros(len(reservoir) - 1))


def sideband_half_angles(t_op: float, blocks: int, t) -> np.ndarray:
    """Half Rabi angle (pi/t_op)*sqrt(n+1)*t/2 of sideband blocks n = 0 ..
    blocks-1 at time t (a column of times gives one row per time).  To first
    order in the Lamb-Dicke parameter, it and the carrier Rabi frequency
    enter a sideband drive only as their product, pi/t_op.  An angle that
    overflows is refused, naming t_op and the largest time; the largest
    angle is worked out first, in the same order, so no array overflows."""
    if not 0 < t_op < math.inf or math.pi / t_op == math.inf:  # NaN fails too
        raise ValueError(f"t_op must be finite and > 0, with pi/t_op finite, got {t_op}")
    t_max = float(np.abs(t).max(initial=0.0))
    if not math.isfinite(math.pi / t_op * math.sqrt(blocks) * t_max / 2.0):  # NaN fails too
        raise ValueError(f"t_op = {t_op:g} us and the largest time {t_max:g} us turn sideband "
                         f"block {blocks - 1} through a non-finite angle; shorten the time "
                         f"or lengthen t_op")
    return math.pi / t_op * np.sqrt(np.arange(blocks) + 1.0) * t / 2.0


def jc_block_unitary(kind: str, t_op: float, n_max: int, t: float) -> np.ndarray:
    """Closed-form sideband evolution exp(-i H t) for time t as a dense matrix.

    The red drive is (pi/t_op)*(a sigma+ + a† sigma-)/2, the blue drive
    (pi/t_op)*(a sigma- + a† sigma+)/2.  Each coupled pair rotates through
    twice sideband_half_angles; dark states pick up no phase: |down,0> and
    |up,n_max> under red, |up,0> and |down,n_max> under blue.
    """
    if kind not in ("red", "blue"):
        raise ValueError(f"kind must be 'red' or 'blue', got {kind!r}")
    d, n = n_max + 1, np.arange(n_max)
    half_angles = sideband_half_angles(t_op, n_max, t)
    # coupled pairs: (|down,n+1>, |up,n>) under red, (|up,n+1>, |down,n>) under blue
    target, source = (n + 1, d + n) if kind == "red" else (d + n + 1, n)
    u = np.eye(2 * d, dtype=complex)
    u[target, target] = u[source, source] = np.cos(half_angles)
    u[target, source] = u[source, target] = -1j * np.sin(half_angles)
    return u


def evolve(rho: JointState, t_op: float, t: float) -> JointState:
    """Drive the red sideband for time t: U rho U† pair by pair, with
    U = [[c, -i s], [-i s, c]] on (|down,n+1>, |up,n>) and c, s of the
    block's half angle; the dark states are untouched."""
    half_angles = sideband_half_angles(t_op, rho.n_max, t)
    c, s = np.cos(half_angles), np.sin(half_angles)
    up, down, y = rho.populations[1, :-1], rho.populations[0, 1:], rho.red_coherences
    cross = 2.0 * c * s * y
    pops = rho.populations.copy()
    pops[1, :-1] = c**2 * up + s**2 * down + cross
    pops[0, 1:] = s**2 * up + c**2 * down - cross
    return JointState(pops, c**2 * y - s**2 * y + c * s * (down - up))
