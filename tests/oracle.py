"""Dense reference implementations that the tests compare the package against.

Each helper builds the full 2(n_max+1)-square operator or takes a generic
eigendecomposition, where the package uses the 2x2 block structure of the
sideband drives or the diagonal structure of the thermal reference.  Nothing
in the package imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qlandauer.info import von_neumann_entropy
from qlandauer.ion import FockTruncation, JointState, PulseParams, jc_block_unitary, thermal_state
from qlandauer.linalg import LOG_EIGENVALUE_CUTOFF, DensityMatrix, kron

# rho1 weight tolerated on a zero eigenvalue of rho2 before the relative
# entropy is declared divergent.
SUPPORT_TOL = 1e-12


class SupportViolationError(ValueError):
    """Relative entropy diverges: rho1 has weight outside the support of rho2."""


@dataclass(frozen=True)
class Spectrum:
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(h: np.ndarray, tol: float = 1e-10) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    h = np.asarray(h, dtype=complex)
    if not np.max(np.abs(h - h.conj().T)) <= tol:
        raise ValueError("hermitian_eig requires a Hermitian input")
    w, v = np.linalg.eigh(h)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def expm_i_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.  Unitary result."""
    spectrum = hermitian_eig(h)
    phases = np.exp(-1j * spectrum.eigenvalues * t)
    v = spectrum.eigenvectors
    return (v * phases) @ v.conj().T


def _sideband_hamiltonian(kind: str, p: PulseParams, trunc: FockTruncation) -> np.ndarray:
    d = trunc.dim
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    phase = np.exp(-1j * p.phi)
    for n in range(trunc.n_max):
        g = p.eta * p.omega * math.sqrt(n + 1) / 2.0
        # red: <down,n+1|H|up,n> = g e^{-i phi}; blue: <up,n+1|H|down,n> = g e^{-i phi}
        target, source = (n + 1, d + n) if kind == "red" else (d + n + 1, n)
        h[target, source] = g * phase
        h[source, target] = g * np.conj(phase)
    return h


def red_sideband_hamiltonian(p: PulseParams, trunc: FockTruncation) -> np.ndarray:
    """eta*Omega*(a sigma+ e^{i phi} + a† sigma- e^{-i phi})/2 on the joint space.

    |down,0> is dark; |up,n_max> is dark because the truncated raising
    operator annihilates |n_max>.
    """
    return _sideband_hamiltonian("red", p, trunc)


def blue_sideband_hamiltonian(p: PulseParams, trunc: FockTruncation) -> np.ndarray:
    """eta*Omega*(a sigma- e^{i phi} + a† sigma+ e^{-i phi})/2; |up,0> is dark."""
    return _sideband_hamiltonian("blue", p, trunc)


def relative_entropy(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """D(rho1 || rho2) = Tr[rho1 ln rho1] - Tr[rho1 ln rho2], in nats.

    Evaluated in the eigenbasis of each argument.  If rho2 has a zero
    eigenvalue (below the cutoff) carrying rho1 weight above SUPPORT_TOL,
    the divergence is reported as SupportViolationError rather than as an
    overflowing float.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    tr_rho1_log_rho1 = -von_neumann_entropy(rho1)

    spectrum_ref = hermitian_eig(rho2.matrix)
    weights = np.einsum(
        "ki,kl,li->i", spectrum_ref.eigenvectors.conj(), rho1.matrix, spectrum_ref.eigenvectors
    ).real
    on_support = spectrum_ref.eigenvalues > LOG_EIGENVALUE_CUTOFF
    off_weight = float(np.sum(weights[~on_support]))
    if off_weight > SUPPORT_TOL:
        raise SupportViolationError(
            f"rho1 carries weight {off_weight:.3e} outside the support of rho2"
        )
    tr_rho1_log_rho2 = float(
        np.sum(weights[on_support] * np.log(spectrum_ref.eigenvalues[on_support]))
    )
    return tr_rho1_log_rho1 - tr_rho1_log_rho2


@dataclass(frozen=True)
class SystemPrep:
    """Qubit populations after a carrier rotation by theta_c followed by
    dephasing: alpha = cos^2(theta_c/2) in |down>, beta = sin^2 in |up>."""

    theta_c: float

    @property
    def alpha(self) -> float:
        return math.cos(self.theta_c / 2.0) ** 2

    @property
    def beta(self) -> float:
        return math.sin(self.theta_c / 2.0) ** 2


def prepare_initial(prep: SystemPrep, nbar: float, trunc: FockTruncation) -> JointState:
    """Uncorrelated initial state diag(alpha, beta) (x) thermal(nbar)."""
    qubit = np.diag([prep.alpha, prep.beta]).astype(complex)
    reservoir = thermal_state(nbar, trunc)
    return JointState(DensityMatrix(kron(qubit, reservoir.matrix)), trunc.n_max)


def dense_blue_trace(rho: JointState, p: PulseParams, times) -> np.ndarray:
    """Qubit-down population under the blue sideband, one dense unitary per time."""
    trunc = FockTruncation(rho.n_max)
    d = trunc.dim
    values = np.empty(len(times))
    for i, t in enumerate(times):
        down_rows = jc_block_unitary("blue", p.with_duration(float(t)), trunc)[:d]
        values[i] = np.einsum("ij,jk,ik->", down_rows, rho.state.matrix, down_rows.conj()).real
    return values
