"""Information-thermodynamic functionals and the erasure-equality ledger.

Every functional reads the populations and pair spectrum of an
ion.JointState, so each term is a sum over n of closed-form scalars.
Entropies are in nats (natural logarithm throughout).  Reservoir energies
are in units of Q0 = hbar*omega_z, temperatures in units of T0 = Q0/k_B,
which makes every ledger term dimensionless.

Two Hamiltonians share a symbol in common usage; here they are kept apart:
H_res = Q0 * n_hat generates the reservoir energy, while the red-sideband
interaction (ion module) drives the erasure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ion import JointState, thermal_log_weights


@dataclass(frozen=True)
class LandauerLedger:
    """The four erasure-equality terms plus energies and the residual.

    Divergent entries (zero-temperature reservoir) are carried as None,
    never as floating-point infinities: temperature, lhs, relative_entropy,
    rhs and residual all flag together.
    """

    delta_q: float                      # E_f - E_0, units of Q0
    temperature: float | None           # units of T0
    lhs: float | None                   # delta_q / (k_B T), dimensionless
    delta_s: float                      # nats
    mutual_info: float                  # nats
    relative_entropy: float | None      # nats
    rhs: float | None                   # delta_s + mutual_info + relative_entropy
    residual: float | None              # lhs - rhs
    e_initial: float                    # units of Q0
    e_final: float                      # units of Q0

    @property
    def divergent(self) -> bool:
        return self.lhs is None


def von_neumann_entropy(eigenvalues) -> float:
    """-sum(lam * ln lam) over the positive eigenvalues, in nats.

    Only exact zeros (and roundoff below them) drop out, by 0 ln 0 = 0, so
    every ledger term sums the same levels.  For a diagonal state the
    eigenvalues are its populations.
    """
    w = np.asarray(eigenvalues, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def mutual_information(rho: JointState) -> float:
    """S(rho_S) + S(rho_R) - S(rho_SR) of a joint qubit-reservoir state."""
    return (
        von_neumann_entropy(rho.reduced_qubit())
        + von_neumann_entropy(rho.reduced_fock())
        - von_neumann_entropy(rho.spectrum)
    )


def reservoir_energy(populations) -> float:
    """Mean phonon number sum(n p_n) of Fock populations, i.e. Tr[H_res rho]
    in Q0 units."""
    return float(np.dot(np.arange(len(populations)), populations))


def temperature_from_nbar(nbar: float) -> float:
    """T = T0 / ln(1 + 1/nbar), in units of T0.  nbar = 0 (zero temperature,
    where 1/T diverges) raises ValueError, so callers branch before asking.
    Where 1/nbar overflows (nbar below about 5.6e-309) the log is
    ln(1 + nbar) - ln(nbar)."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        raise ValueError("nbar = 0 means zero temperature; 1/T diverges")
    inverse = 1.0 / nbar
    if math.isinf(inverse):
        return 1.0 / (math.log1p(nbar) - math.log(nbar))
    return 1.0 / math.log1p(inverse)


def landauer_ledger(initial: JointState, final: JointState, nbar0: float) -> LandauerLedger:
    """Evaluate every term of the erasure equality for one initial/final pair.

    ``initial`` must be a product of a qubit-diagonal state with the thermal
    reservoir at ``nbar0`` and ``final`` unitarily related to it; neither is
    checked, the residual certifies both.  At nbar0 = 0 the 1/T side and the
    relative entropy diverge together and are flagged as None.
    """
    if initial.n_max != final.n_max:
        raise ValueError("initial and final states live on different truncations")

    rho_r_f = final.reduced_fock()
    e_initial = reservoir_energy(initial.reduced_fock())
    e_final = reservoir_energy(rho_r_f)
    delta_q = e_final - e_initial

    delta_s = (von_neumann_entropy(initial.reduced_qubit())
               - von_neumann_entropy(final.reduced_qubit()))
    mutual = mutual_information(final)

    temperature = lhs = rel_ent = rhs = residual = None
    if nbar0 != 0:
        temperature = temperature_from_nbar(nbar0)
        lhs = delta_q / temperature
        # D(rho'_R || rho_R) with Tr[rho'_R ln rho_R] from the analytic log
        # weights, exact even where the weights underflow double precision.
        log_ref = thermal_log_weights(nbar0, initial.n_max)
        rel_ent = -von_neumann_entropy(rho_r_f) - float(np.dot(rho_r_f, log_ref))
        rhs = delta_s + mutual + rel_ent
        residual = lhs - rhs
    return LandauerLedger(
        delta_q=delta_q, temperature=temperature, lhs=lhs,
        delta_s=delta_s, mutual_info=mutual,
        relative_entropy=rel_ent, rhs=rhs, residual=residual,
        e_initial=e_initial, e_final=e_final,
    )
