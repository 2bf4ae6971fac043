"""Dense reference implementations that the tests compare the package against.

The package carries joint states as populations plus 2x2 red-sideband blocks
(qlandauer.ion.JointState); the helpers here work on full 2(n_max+1)-square
matrices instead.  It also reads back the comma-separated tables the
package emits.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qlandauer.info import von_neumann_entropy
from qlandauer.ion import PulseParams, jc_block_unitary, thermal_state
from qlandauer.linalg import DensityMatrix, kron, partial_trace
from qlandauer.protocol import SWEEP_COLUMNS, SweepRow

# rho1 weight tolerated on a zero (or negative roundoff) eigenvalue of rho2
# before the relative entropy is declared divergent.
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


def _sideband_hamiltonian(kind: str, p: PulseParams, n_max: int) -> np.ndarray:
    d = n_max + 1
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    for n in range(n_max):
        # red: <down,n+1|H|up,n> = g; blue: <up,n+1|H|down,n> = g
        target, source = (n + 1, d + n) if kind == "red" else (d + n + 1, n)
        h[target, source] = h[source, target] = p.eta * p.omega * math.sqrt(n + 1) / 2.0
    return h


def red_sideband_hamiltonian(p: PulseParams, n_max: int) -> np.ndarray:
    """eta*Omega*(a sigma+ + a† sigma-)/2 on the joint space.

    |down,0> is dark; |up,n_max> is dark because the truncated raising
    operator annihilates |n_max>.
    """
    return _sideband_hamiltonian("red", p, n_max)


def blue_sideband_hamiltonian(p: PulseParams, n_max: int) -> np.ndarray:
    """eta*Omega*(a sigma- + a† sigma+)/2; |up,0> is dark."""
    return _sideband_hamiltonian("blue", p, n_max)


def carrier_rotation(theta_c: float) -> np.ndarray:
    """2x2 carrier unitary cos(theta_c/2) I - i sin(theta_c/2) sigma_x."""
    c = math.cos(theta_c / 2.0)
    s = math.sin(theta_c / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def relative_entropy(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """D(rho1 || rho2) = Tr[rho1 ln rho1] - Tr[rho1 ln rho2], in nats.

    Evaluated in the eigenbasis of each argument.  Every positive eigenvalue
    of rho2 keeps its exact logarithm, however small.  If a zero eigenvalue
    carries rho1 weight above SUPPORT_TOL, the divergence is reported as
    SupportViolationError rather than as an overflowing float.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    tr_rho1_log_rho1 = -dense_entropy(rho1)

    spectrum_ref = hermitian_eig(rho2.matrix)
    weights = np.einsum(
        "ki,kl,li->i", spectrum_ref.eigenvectors.conj(), rho1.matrix, spectrum_ref.eigenvectors
    ).real
    on_support = spectrum_ref.eigenvalues > 0
    off_weight = float(np.sum(weights[~on_support]))
    if off_weight > SUPPORT_TOL:
        raise SupportViolationError(
            f"rho1 carries weight {off_weight:.3e} outside the support of rho2"
        )
    tr_rho1_log_rho2 = float(
        np.sum(weights[on_support] * np.log(spectrum_ref.eigenvalues[on_support]))
    )
    return tr_rho1_log_rho1 - tr_rho1_log_rho2


def dense_matrix(state) -> np.ndarray:
    """Qubit-major matrix with the diagonal ``state.populations`` and the
    coherences <down,n+1|rho|up,n> = i y_n, y = ``state.red_coherences``."""
    d = np.shape(state.populations)[1]
    m = np.diag(np.ravel(state.populations).astype(complex))
    n = np.arange(d - 1)
    m[n + 1, d + n] = 1j * np.asarray(state.red_coherences)
    m[d + n, n + 1] = -1j * np.asarray(state.red_coherences)
    return m


def dense_entropy(rho: DensityMatrix) -> float:
    return von_neumann_entropy(np.linalg.eigvalsh(rho.matrix))


def dense_reduced(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced qubit ("A") or reservoir ("B") state of a joint state."""
    return partial_trace(rho, 2, rho.dim // 2, keep)


def dense_erasure(config) -> tuple[DensityMatrix, DensityMatrix]:
    """Dense initial and final states of protocol.run_erasure(config): the
    product of the carrier-rotated qubit with the Gibbs state, every block
    coupling the qubit levels zeroed, then conjugated by the red unitary."""
    n_max = config.truncation()
    d = n_max + 1
    fidelity = config.imperfections.init_fidelity
    u_c = carrier_rotation(config.theta_c)
    qubit = u_c @ np.diag([fidelity, 1.0 - fidelity]) @ u_c.conj().T
    m = kron(qubit, thermal_state(config.effective_nbar0, n_max).matrix)
    m[:d, d:] = m[d:, :d] = 0.0
    u = jc_block_unitary("red", config.pulse, n_max, config.erasure_time)
    return DensityMatrix(m), DensityMatrix(u @ m @ u.conj().T)


def dense_ledger(initial: DensityMatrix, final: DensityMatrix, nbar0: float) -> dict:
    """delta_q, delta_s, mutual_info and relative_entropy (None at nbar0 = 0)
    by partial traces, eigendecompositions and the generic relative_entropy."""
    res_0, res_f = dense_reduced(initial, "B"), dense_reduced(final, "B")
    qubit_f = dense_reduced(final, "A")
    return {
        "delta_q": float(np.arange(res_0.dim) @ (res_f.matrix - res_0.matrix).diagonal().real),
        "delta_s": dense_entropy(dense_reduced(initial, "A")) - dense_entropy(qubit_f),
        "mutual_info": dense_entropy(qubit_f) + dense_entropy(res_f) - dense_entropy(final),
        "relative_entropy": relative_entropy(res_f, res_0) if nbar0 > 0 else None,
    }


def dense_blue_trace(rho: DensityMatrix, p: PulseParams, times) -> np.ndarray:
    """Qubit-down population under the blue sideband, one dense unitary per time."""
    n_max = rho.dim // 2 - 1
    values = np.empty(len(times))
    for i, t in enumerate(times):
        down_rows = jc_block_unitary("blue", p, n_max, float(t))[:n_max + 1]
        values[i] = np.einsum("ij,jk,ik->", down_rows, rho.matrix, down_rows.conj()).real
    return values


def parse_sweep_table(text: str) -> tuple[str, list[SweepRow]]:
    """Inverse of protocol.format_sweep_table (round-trip safe)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    provenance = ""
    while lines and lines[0].startswith("#"):
        provenance = lines.pop(0)
    if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError("missing or unexpected sweep table header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(SWEEP_COLUMNS):
            raise ValueError(f"row has {len(cells)} cells, expected {len(SWEEP_COLUMNS)}")
        kwargs = {}
        for col, cell in zip(SWEEP_COLUMNS, cells):
            if col == "variable":
                kwargs[col] = cell
            elif col == "fit_converged":
                kwargs[col] = None if cell == "" else bool(float(cell))
            else:
                kwargs[col] = None if cell == "" else float(cell)
        rows.append(SweepRow(**kwargs))
    return provenance, rows
