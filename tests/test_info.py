import math

import numpy as np
import pytest

from oracle import (
    SupportViolationError,
    dense_entropy,
    dense_matrix,
    dense_reduced,
    relative_entropy,
)
from qlandauer.info import (
    landauer_ledger,
    mutual_information,
    reservoir_energy,
    temperature_from_nbar,
    von_neumann_entropy,
)
from qlandauer.ion import (
    T_OP_DEFAULT,
    JointState,
    dephase_qubit,
    evolve,
    n_max_for_nbar,
    thermal_log_weights,
    thermal_state,
)
from qlandauer.linalg import DensityMatrix


def shannon(probs):
    return -sum(p * math.log(p) for p in probs if p > 0)


def product_state(theta_c, nbar, n_max):
    """diag(cos^2(theta_c/2), sin^2(theta_c/2)) (x) thermal(nbar)."""
    alpha = math.cos(theta_c / 2) ** 2
    return dephase_qubit([alpha, 1.0 - alpha], np.exp(thermal_log_weights(nbar, n_max)))


def erase(theta_c, nbar, t=T_OP_DEFAULT):
    initial = product_state(theta_c, nbar, n_max_for_nbar(nbar))
    return initial, evolve(initial, T_OP_DEFAULT, t)


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy([0.5, 0.5]) - math.log(2)) < 1e-12
        assert abs(dense_entropy(DensityMatrix(np.eye(2) / 2)) - math.log(2)) < 1e-12

    def test_pure_state(self):
        assert von_neumann_entropy([1.0, 0.0]) == 0.0

    def test_only_exact_zeros_drop(self):
        # a weight far below any roundoff scale still counts; zero and
        # negative roundoff drop out by 0 ln 0 = 0
        assert von_neumann_entropy([1e-20]) == -1e-20 * math.log(1e-20)
        assert von_neumann_entropy([1.0, 0.0, -1e-18]) == 0.0

    def test_measured_population_entropy(self):
        assert abs(von_neumann_entropy([0.533, 0.467]) - shannon([0.533, 0.467])) < 1e-12
        assert abs(von_neumann_entropy([0.533, 0.467]) - 0.6910) < 1e-4

    def test_additivity_for_diagonal_factors(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            pa = rng.dirichlet(np.ones(3))
            pb = rng.dirichlet(np.ones(4))
            total = von_neumann_entropy(np.kron(pa, pb))
            assert abs(total - shannon(pa) - shannon(pb)) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        rho_raw = g @ g.conj().T
        rho = DensityMatrix(rho_raw / np.trace(rho_raw).real)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        rotated = DensityMatrix(q @ rho.matrix @ q.conj().T)
        assert abs(dense_entropy(rho) - dense_entropy(rotated)) < 1e-10


class TestMutualInformation:
    def test_product_state(self):
        state = product_state(0.9, 0.4, n_max_for_nbar(0.4))
        assert abs(mutual_information(state)) < 1e-10

    def test_bell_like_state(self):
        # (|up,0> + |down,1>)/sqrt(2), a red-sideband pair
        state = JointState([[0.0, 0.5], [0.5, 0.0]], [0.5])
        assert abs(mutual_information(state) - 2 * math.log(2)) < 1e-10
        rho = DensityMatrix(dense_matrix(state))
        dense = (dense_entropy(dense_reduced(rho, "A")) + dense_entropy(dense_reduced(rho, "B"))
                 - dense_entropy(rho))
        assert abs(dense - 2 * math.log(2)) < 1e-10

    def test_vanishes_after_zero_temperature_erasure(self):
        _, final = erase(math.pi / 2, 1e-8)
        assert abs(mutual_information(final)) < 1e-8


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho_raw = g @ g.conj().T
        rho = DensityMatrix(rho_raw / np.trace(rho_raw).real)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_fock_state_against_thermal_closed_form(self):
        nbar = 0.5
        n_max = n_max_for_nbar(nbar)
        one = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        one[1, 1] = 1.0
        d = relative_entropy(DensityMatrix(one), thermal_state(nbar, n_max))
        assert abs(d - (-math.log(nbar / (1 + nbar) ** 2))) < 1e-9

    def test_klein_inequality_random_diagonal(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            d = relative_entropy(
                DensityMatrix(np.diag(p).astype(complex)),
                DensityMatrix(np.diag(q).astype(complex)),
            )
            assert d >= -1e-10

    def test_support_violation_signalled(self):
        rho1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        rho2 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(SupportViolationError):
            relative_entropy(rho1, rho2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            relative_entropy(
                DensityMatrix(np.eye(2, dtype=complex) / 2),
                DensityMatrix(np.eye(3, dtype=complex) / 3),
            )


class TestReservoirEnergy:
    def test_ground_state(self):
        rho = thermal_state(0.0, 3)
        assert reservoir_energy(rho.matrix.diagonal().real) == 0.0

    @pytest.mark.parametrize("nbar", [0.074, 0.5, 2.0])
    def test_thermal_mean(self, nbar):
        rho = thermal_state(nbar, n_max_for_nbar(nbar))
        assert abs(reservoir_energy(rho.matrix.diagonal().real) - nbar) < 1e-10

    def test_heat_equals_energy_difference(self):
        initial, final = erase(math.pi / 2, 0.074)
        ledger = landauer_ledger(initial, final, 0.074)
        e0 = reservoir_energy(initial.reduced_fock())
        ef = reservoir_energy(final.reduced_fock())
        assert abs(ledger.delta_q - (ef - e0)) < 1e-14


class TestTemperatureMap:
    def test_reference_occupation(self):
        t = temperature_from_nbar(0.074)
        assert abs(t - 1 / math.log(1 + 1 / 0.074)) < 1e-14
        micro_kelvin = t * 48.5
        assert 17.4 < micro_kelvin < 19.0

    def test_monotone_increasing(self):
        grid = [0.01, 0.1, 0.5, 1.0, 5.0, 100.0]
        temps = [temperature_from_nbar(n) for n in grid]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    @pytest.mark.parametrize("nbar", [1e-310, 1e-320, 5e-324])
    def test_subnormal_occupation(self, nbar):
        # 1/nbar overflows to inf here; T = 1/ln(1 + 1/nbar) = 1/(ln(1 + nbar) - ln nbar)
        t = temperature_from_nbar(nbar)
        assert t > 0.0
        assert abs(t * -math.log(nbar) - 1.0) < 1e-15

    def test_zero_occupation_signalled(self):
        with pytest.raises(ValueError, match="zero temperature"):
            temperature_from_nbar(0.0)

    def test_gibbs_exponent_round_trip(self):
        nbar = 0.3
        rho = thermal_state(nbar, n_max_for_nbar(nbar))
        diag = rho.matrix.diagonal().real
        beta = math.log(diag[0] / diag[1])  # ln(p0/p1) = 1/T in T0 units
        assert abs(beta - 1 / temperature_from_nbar(nbar)) < 1e-12


class TestLandauerLedger:
    def test_identity_evolution_gives_zero_ledger(self):
        initial, _ = erase(math.pi / 2, 0.074)
        ledger = landauer_ledger(initial, initial, 0.074)
        assert abs(ledger.delta_q) < 1e-12
        assert abs(ledger.delta_s) < 1e-12
        assert abs(ledger.mutual_info) < 1e-10
        assert abs(ledger.relative_entropy) < 1e-10
        assert abs(ledger.residual) < 1e-10

    def test_equality_at_reference_point(self):
        initial, final = erase(math.pi / 2, 0.074)
        ledger = landauer_ledger(initial, final, 0.074)
        assert abs(ledger.residual) < 1e-9
        assert ledger.mutual_info >= -1e-10
        assert ledger.relative_entropy >= -1e-10
        assert abs(ledger.rhs - (ledger.delta_s + ledger.mutual_info
                                 + ledger.relative_entropy)) < 1e-12

    @pytest.mark.parametrize("nbar", [0.05, 0.5])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi / 2, 2.8])
    @pytest.mark.parametrize("t_factor", [0.0, 0.5, 1.0])
    def test_equality_on_subgrid(self, nbar, theta, t_factor):
        initial, final = erase(theta, nbar, t=t_factor * T_OP_DEFAULT)
        ledger = landauer_ledger(initial, final, nbar)
        assert abs(ledger.residual) < 1e-9
        assert ledger.lhs - ledger.delta_s >= -1e-10  # Landauer bound

    @pytest.mark.parametrize("nbar", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 2.8])
    def test_relative_entropy_matches_dense_oracle(self, nbar, theta):
        initial, final = erase(theta, nbar)
        ledger = landauer_ledger(initial, final, nbar)
        expected = relative_entropy(dense_reduced(DensityMatrix(dense_matrix(final)), "B"),
                                    dense_reduced(DensityMatrix(dense_matrix(initial)), "B"))
        assert abs(ledger.relative_entropy - expected) < 1e-9

    def test_zero_temperature_flags(self):
        initial, final = erase(math.pi / 2, 0.0)
        ledger = landauer_ledger(initial, final, 0.0)
        assert ledger.divergent
        assert ledger.temperature is None
        assert ledger.lhs is None
        assert ledger.relative_entropy is None
        assert ledger.rhs is None
        assert ledger.residual is None
        assert abs(ledger.delta_s - math.log(2)) < 1e-10
        assert abs(ledger.mutual_info) < 1e-10
        assert ledger.delta_q > 0

    def test_near_zero_temperature_limits(self):
        initial, final = erase(math.pi / 2, 1e-8)
        ledger = landauer_ledger(initial, final, 1e-8)
        assert abs(ledger.delta_s - math.log(2)) < 1e-6
        assert ledger.mutual_info < 1e-6
        assert abs(ledger.residual) < 1e-9
        # D and the 1/T side blow up together as nbar -> 0
        assert ledger.relative_entropy > 5
        assert ledger.lhs > 5

    def test_truncation_mismatch_rejected(self):
        a = product_state(1.0, 0.1, 4)
        b = product_state(1.0, 0.1, 5)
        with pytest.raises(ValueError, match="truncation"):
            landauer_ledger(a, b, 0.1)
