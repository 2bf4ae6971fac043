"""Physical model: qubit x truncated Fock space, sideband drives, erasure pulse.

Units: hbar = 1, frequencies in rad/us, time in us.  Basis ordering is
qubit-major: index = qubit*(n_max+1) + n, with qubit 0 = |down>, 1 = |up>.
All operations are pure; states are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, partial_trace

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
    def for_nbar(cls, nbar: float, tail_tol: float = TRUNCATION_TAIL_TOL) -> "FockTruncation":
        """Smallest truncation whose thermal tail beyond n_max is below tail_tol.

        Sizing rule: n_max >= ln(tail_tol) / ln(nbar / (1 + nbar)), and at
        least N_MAX_FLOOR.
        """
        if nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {nbar}")
        if nbar == 0:
            return cls(N_MAX_FLOOR)
        q = nbar / (1.0 + nbar)
        return cls(max(N_MAX_FLOOR, math.ceil(math.log(tail_tol) / math.log(q))))

    def tail_mass(self, nbar: float) -> float:
        """Thermal probability beyond n_max, sum_{n > n_max} p_n = q^(n_max+1)
        with q = nbar / (1 + nbar); the truncated state renormalises it away."""
        return (nbar / (1.0 + nbar)) ** (self.n_max + 1)


@dataclass(frozen=True)
class PulseParams:
    """Sideband or carrier drive: Lamb-Dicke eta, Rabi frequency (rad/us),
    laser phase (rad), duration (us)."""

    eta: float = ETA_DEFAULT
    omega: float = OMEGA_DEFAULT
    phi: float = 0.0
    duration: float = T_OP_DEFAULT

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def t_op(self) -> float:
        """pi-pulse length on the n = 0 sideband block, pi/(eta*omega)."""
        return math.pi / (self.eta * self.omega)

    def with_duration(self, duration: float) -> "PulseParams":
        return PulseParams(self.eta, self.omega, self.phi, duration)


@dataclass(frozen=True)
class JointState:
    """Bipartite state on qubit (dim 2) x truncated Fock space."""

    state: DensityMatrix
    n_max: int

    def __post_init__(self):
        if self.state.dim != 2 * (self.n_max + 1):
            raise ValueError(
                f"state dim {self.state.dim} inconsistent with n_max = {self.n_max}"
            )

    @property
    def dim_qubit(self) -> int:
        return 2

    @property
    def dim_fock(self) -> int:
        return self.n_max + 1

    def reduced_qubit(self) -> DensityMatrix:
        return partial_trace(self.state, 2, self.dim_fock, keep="A")

    def reduced_fock(self) -> DensityMatrix:
        return partial_trace(self.state, 2, self.dim_fock, keep="B")


def thermal_state(nbar: float, trunc: FockTruncation) -> DensityMatrix:
    """Truncated, renormalized Gibbs state of the number operator.

    Weights are proportional to exp(-n * ln(1 + 1/nbar)), i.e. the geometric
    distribution p_n = nbar^n / (1+nbar)^(n+1) restricted to n <= n_max.
    nbar = 0 gives the Fock ground state.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    dim = trunc.dim
    if nbar == 0:
        weights = np.zeros(dim)
        weights[0] = 1.0
    else:
        n = np.arange(dim)
        weights = np.exp(n * math.log(nbar) - (n + 1) * math.log(1.0 + nbar))
        weights /= weights.sum()
    return DensityMatrix(np.diag(weights.astype(complex)))


def carrier_rotation(theta_c: float) -> np.ndarray:
    """2x2 carrier unitary cos(theta_c/2) I - i sin(theta_c/2) sigma_x."""
    c = math.cos(theta_c / 2.0)
    s = math.sin(theta_c / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def dephase_qubit(rho: JointState) -> JointState:
    """Zero every block coupling the two qubit levels; diagonal blocks untouched."""
    d = rho.dim_fock
    m = rho.state.matrix.copy()
    m[:d, d:] = 0.0
    m[d:, :d] = 0.0
    return JointState(DensityMatrix(m), rho.n_max)


def _coupled_pair(kind: str, n: int, dim_fock: int) -> tuple[int, int]:
    """Basis indices (target, source) of the n-th sideband block, where the
    matrix element <target|H|source> carries the phase e^{-i phi}."""
    if kind == "red":
        # couples |up,n> <-> |down,n+1>; <down,n+1|H|up,n> = g_n e^{-i phi}
        return n + 1, dim_fock + n
    # couples |down,n> <-> |up,n+1>; <up,n+1|H|down,n> = g_n e^{-i phi}
    return dim_fock + n + 1, n


def jc_block_unitary(kind: str, p: PulseParams, trunc: FockTruncation) -> np.ndarray:
    """Closed-form sideband evolution exp(-i H t), assembled block by block.

    The red drive is eta*Omega*(a sigma+ e^{i phi} + a† sigma- e^{-i phi})/2,
    the blue drive eta*Omega*(a sigma- e^{i phi} + a† sigma+ e^{-i phi})/2.
    Each coupled pair rotates through the Rabi angle eta*Omega*sqrt(n+1)*t;
    dark states pick up no phase: |down,0> and |up,n_max> under red,
    |up,0> and |down,n_max> under blue.
    """
    if kind not in ("red", "blue"):
        raise ValueError(f"kind must be 'red' or 'blue', got {kind!r}")
    d = trunc.dim
    u = np.eye(2 * d, dtype=complex)
    phase = np.exp(-1j * p.phi)
    for n in range(trunc.n_max):
        half_angle = p.eta * p.omega * math.sqrt(n + 1) * p.duration / 2.0
        c, s = math.cos(half_angle), math.sin(half_angle)
        target, source = _coupled_pair(kind, n, d)
        u[target, target] = c
        u[source, source] = c
        u[target, source] = -1j * s * phase
        u[source, target] = -1j * s * np.conj(phase)
    return u


def evolve(rho: JointState, u: np.ndarray, unitarity_tol: float = 1e-10) -> JointState:
    """Conjugate the state by a unitary: U rho U†."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (rho.state.dim, rho.state.dim):
        raise ValueError(f"unitary shape {u.shape} does not match state dim {rho.state.dim}")
    # U†U - I formed in place, and freed before the product below so that it
    # is not held next to the conjugation's full-size arrays.
    gram = u.conj().T @ u
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1.0
    defect = np.max(np.abs(gram))
    del gram
    if defect > unitarity_tol:
        raise ValueError(f"matrix is not unitary (max |U†U - I| = {defect:.3e})")
    return JointState(DensityMatrix(u @ rho.state.matrix @ u.conj().T), rho.n_max)
