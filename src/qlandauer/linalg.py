"""Dense complex linear algebra: the full 2 (n_max + 1)-square matrices the
tests compare the block core (ion.JointState) with.

Everything here is a pure function of immutable inputs.  Density matrices
are validated on construction and frozen, so values can be shared freely
between threads or sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Validation tolerances: elementwise Hermiticity, trace deviation, and the
# allowance for eigenvalues slightly negative from roundoff.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Construction validates all three invariants and freezes a copy of the
    input, bit for bit.  Positivity means no eigenvalue below
    EIGENVALUE_FLOOR.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square complex matrix, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T))
        if not dev <= HERMITICITY_TOL:  # also rejects NaN entries
            raise ValueError(f"density matrix not Hermitian (max deviation {dev:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1 beyond {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: DensityMatrix, dim_a: int, dim_b: int, keep: str) -> DensityMatrix:
    """Reduced state of one factor of a bipartite density matrix.

    ``keep`` selects the retained subsystem, "A" (first factor, dimension
    ``dim_a``) or "B" (second factor, dimension ``dim_b``).
    """
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    if dim_a < 1 or dim_b < 1 or rho.dim != dim_a * dim_b:
        raise ValueError(
            f"dimension mismatch: state dim {rho.dim} != dim_a*dim_b = {dim_a}*{dim_b}"
        )
    r = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        reduced = np.einsum("ikjk->ij", r)
    else:
        reduced = np.einsum("kikj->ij", r)
    return DensityMatrix(reduced)
