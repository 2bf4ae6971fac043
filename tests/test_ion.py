import math

import numpy as np
import pytest

from oracle import (
    SystemPrep,
    blue_sideband_hamiltonian,
    expm_i_hermitian,
    prepare_initial,
    red_sideband_hamiltonian,
)
from qlandauer.linalg import DensityMatrix, kron
from qlandauer.ion import (
    ETA_DEFAULT,
    OMEGA_DEFAULT,
    T_OP_DEFAULT,
    FockTruncation,
    JointState,
    PulseParams,
    carrier_rotation,
    dephase_qubit,
    evolve,
    jc_block_unitary,
    thermal_state,
)


def geometric_weight(nbar, n):
    # independent closed form: p_n = nbar^n / (1+nbar)^(n+1)
    return nbar**n / (1.0 + nbar) ** (n + 1)


def basis_state(trunc, qubit, n):
    dim = 2 * trunc.dim
    v = np.zeros(dim, dtype=complex)
    v[qubit * trunc.dim + n] = 1.0
    return v


def random_joint_state(rng, trunc):
    dim = 2 * trunc.dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return JointState(DensityMatrix(rho / np.trace(rho).real), trunc.n_max)


class TestFockTruncation:
    def test_sizing_rule(self):
        for nbar in (0.01, 0.074, 0.5, 2.0):
            trunc = FockTruncation.for_nbar(nbar)
            q = nbar / (1 + nbar)
            assert trunc.n_max >= math.log(1e-12) / math.log(q)

    def test_minimum(self):
        # The erasure adds up to one phonon and the blue readout of |down,1>
        # needs |up,2>, so even a zero-temperature reservoir keeps n = 2.
        assert FockTruncation.for_nbar(0.0).n_max == 2
        assert FockTruncation.for_nbar(1e-13).n_max == 2
        with pytest.raises(ValueError, match="n_max"):
            FockTruncation(0)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError, match="nbar"):
            FockTruncation.for_nbar(-0.1)

    def test_tail_mass_is_discarded_thermal_weight(self):
        nbar, trunc = 2.0, FockTruncation(2)
        # 1 - (p_0 + p_1 + p_2) with p_n = nbar^n / (1+nbar)^(n+1)
        kept = sum(geometric_weight(nbar, n) for n in range(3))
        assert abs(trunc.tail_mass(nbar) - (1.0 - kept)) < 1e-15
        assert abs(trunc.tail_mass(nbar) - 8.0 / 27.0) < 1e-15
        assert trunc.tail_mass(0.0) == 0.0
        for nbar in (0.01, 0.074, 0.5, 2.0, 20.0):
            assert FockTruncation.for_nbar(nbar).tail_mass(nbar) <= 1e-12


class TestThermalState:
    def test_ground_state_at_zero(self):
        rho = thermal_state(0.0, FockTruncation(3))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_geometric_weights_at_reference_occupation(self):
        rho = thermal_state(0.074, FockTruncation.for_nbar(0.074))
        diag = rho.matrix.diagonal().real
        for n in range(3):
            assert abs(diag[n] - geometric_weight(0.074, n)) < 1e-10

    def test_thermal_entropy_closed_form(self):
        # S = (1+nbar) ln(1+nbar) - nbar ln(nbar)
        from qlandauer.info import von_neumann_entropy

        nbar = 0.074
        expected = (1 + nbar) * math.log(1 + nbar) - nbar * math.log(nbar)
        rho = thermal_state(nbar, FockTruncation.for_nbar(nbar))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-9

    @pytest.mark.parametrize("nbar", [0.01, 0.074, 0.3, 1.0, 2.0])
    def test_mean_occupation_reproduced(self, nbar):
        rho = thermal_state(nbar, FockTruncation.for_nbar(nbar))
        diag = rho.matrix.diagonal().real
        mean = float(np.dot(np.arange(len(diag)), diag))
        assert abs(mean - nbar) < 1e-10

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError, match="nbar"):
            thermal_state(-1.0, FockTruncation(2))


class TestCarrierRotation:
    def test_zero_angle(self):
        np.testing.assert_array_equal(carrier_rotation(0.0), np.eye(2))

    def test_pi_flip(self):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(carrier_rotation(math.pi), -1j * sigma_x, atol=1e-15)

    def test_half_pi_then_dephase_gives_even_mixture(self):
        u = carrier_rotation(math.pi / 2)
        qubit = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        trunc = FockTruncation(1)
        joint = JointState(
            DensityMatrix(kron(qubit, np.diag([1.0, 0.0]).astype(complex))), 1)
        out = dephase_qubit(joint).reduced_qubit()
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


class TestDephase:
    def test_superposition_product(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        qubit = np.outer(plus, plus.conj())
        ground = np.diag([1.0, 0.0]).astype(complex)
        joint = JointState(DensityMatrix(kron(qubit, ground)), 1)
        out = dephase_qubit(joint)
        np.testing.assert_allclose(
            out.state.matrix, kron(np.eye(2) / 2, ground), atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(6)
        trunc = FockTruncation(4)
        for _ in range(5):
            rho = random_joint_state(rng, trunc)
            once = dephase_qubit(rho)
            twice = dephase_qubit(once)
            np.testing.assert_allclose(once.state.matrix, twice.state.matrix, atol=1e-14)
            assert abs(np.trace(once.state.matrix) - 1.0) < 1e-12

    def test_qubit_diagonal_state_unchanged(self):
        trunc = FockTruncation(3)
        rho = prepare_initial(SystemPrep(1.1), 0.2, trunc)
        out = dephase_qubit(rho)
        np.testing.assert_allclose(out.state.matrix, rho.state.matrix, atol=1e-15)


class TestSidebandHamiltonians:
    def test_red_matrix_element_with_phase(self):
        phi = 0.7
        p = PulseParams(phi=phi)
        trunc = FockTruncation(3)
        h = red_sideband_hamiltonian(p, trunc)
        down1 = basis_state(trunc, 0, 1)
        up0 = basis_state(trunc, 1, 0)
        element = down1.conj() @ h @ up0
        expected = p.eta * p.omega * np.exp(-1j * phi) / 2
        assert abs(element - expected) < 1e-14

    def test_blue_matrix_element_with_phase(self):
        phi = -1.2
        p = PulseParams(phi=phi)
        trunc = FockTruncation(3)
        h = blue_sideband_hamiltonian(p, trunc)
        up1 = basis_state(trunc, 1, 1)
        down0 = basis_state(trunc, 0, 0)
        element = up1.conj() @ h @ down0
        expected = p.eta * p.omega * np.exp(-1j * phi) / 2
        assert abs(element - expected) < 1e-14

    def test_dark_states(self):
        p = PulseParams()
        trunc = FockTruncation(4)
        h_red = red_sideband_hamiltonian(p, trunc)
        h_blue = blue_sideband_hamiltonian(p, trunc)
        assert np.max(np.abs(h_red @ basis_state(trunc, 0, 0))) == 0.0
        assert np.max(np.abs(h_red @ basis_state(trunc, 1, trunc.n_max))) == 0.0
        assert np.max(np.abs(h_blue @ basis_state(trunc, 1, 0))) == 0.0
        assert np.max(np.abs(h_blue @ basis_state(trunc, 0, trunc.n_max))) == 0.0

    def test_hermiticity(self):
        p = PulseParams(phi=0.3)
        for kind in (red_sideband_hamiltonian, blue_sideband_hamiltonian):
            h = kind(p, FockTruncation(6))
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_sqrt_n_scaling(self):
        p = PulseParams()
        trunc = FockTruncation(5)
        h = red_sideband_hamiltonian(p, trunc)
        for n in range(trunc.n_max):
            element = basis_state(trunc, 0, n + 1).conj() @ h @ basis_state(trunc, 1, n)
            assert abs(element - p.eta * p.omega * math.sqrt(n + 1) / 2) < 1e-14


class TestJcBlockUnitary:
    def test_zero_duration_is_identity(self):
        p = PulseParams(duration=0.0)
        trunc = FockTruncation(4)
        for kind in ("red", "blue"):
            np.testing.assert_array_equal(
                jc_block_unitary(kind, p, trunc), np.eye(2 * trunc.dim))

    def test_pi_pulse_full_transfer(self):
        p = PulseParams()  # duration = t_op = pi/(eta*omega)
        trunc = FockTruncation(4)
        u = jc_block_unitary("red", p, trunc)
        out = u @ basis_state(trunc, 1, 0)
        prob_down1 = abs(out[0 * trunc.dim + 1]) ** 2
        assert abs(prob_down1 - 1.0) < 1e-12

    def test_second_block_transfer_probability(self):
        # block angle pi*sqrt(2) => transfer sin^2(pi*sqrt(2)/2)
        p = PulseParams()
        trunc = FockTruncation(4)
        u = jc_block_unitary("red", p, trunc)
        out = u @ basis_state(trunc, 1, 1)
        expected = math.sin(math.pi * math.sqrt(2) / 2) ** 2
        assert abs(abs(out[0 * trunc.dim + 2]) ** 2 - expected) < 1e-12

    def test_matches_matrix_exponential_for_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = PulseParams(
                eta=float(rng.uniform(0.02, 0.3)),
                omega=float(rng.uniform(0.2, 3.0)),
                phi=float(rng.uniform(-math.pi, math.pi)),
                duration=float(rng.uniform(0.0, 120.0)),
            )
            trunc = FockTruncation(int(rng.integers(1, 9)))
            for kind, builder in (
                ("red", red_sideband_hamiltonian),
                ("blue", blue_sideband_hamiltonian),
            ):
                u_closed = jc_block_unitary(kind, p, trunc)
                u_expm = expm_i_hermitian(builder(p, trunc), p.duration)
                assert np.linalg.norm(u_closed - u_expm, 2) < 1e-10

    def test_blue_rabi_from_down_ground(self):
        p = PulseParams()
        trunc = FockTruncation(3)
        for t in np.linspace(0.0, 4 * T_OP_DEFAULT, 17):
            u = jc_block_unitary("blue", p.with_duration(float(t)), trunc)
            out = u @ basis_state(trunc, 0, 0)
            p_down = abs(out[0]) ** 2
            expected = (1 + math.cos(p.eta * p.omega * t)) / 2
            assert abs(p_down - expected) < 1e-12

    def test_red_never_leaves_down_ground(self):
        p = PulseParams()
        trunc = FockTruncation(5)
        for t in np.linspace(0.0, 5 * T_OP_DEFAULT, 13):
            u = jc_block_unitary("red", p.with_duration(float(t)), trunc)
            out = u @ basis_state(trunc, 0, 0)
            assert abs(abs(out[0]) ** 2 - 1.0) < 1e-12

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            jc_block_unitary("green", PulseParams(), FockTruncation(2))


class TestEvolve:
    def test_identity(self):
        rng = np.random.default_rng(12)
        trunc = FockTruncation(3)
        rho = random_joint_state(rng, trunc)
        out = evolve(rho, np.eye(2 * trunc.dim))
        np.testing.assert_allclose(out.state.matrix, rho.state.matrix, atol=1e-15)

    def test_spectrum_and_purity_preserved(self):
        rng = np.random.default_rng(13)
        trunc = FockTruncation(3)
        rho = random_joint_state(rng, trunc)
        u = jc_block_unitary("red", PulseParams(duration=17.0), trunc)
        out = evolve(rho, u)
        before = np.sort(np.linalg.eigvalsh(rho.state.matrix))
        after = np.sort(np.linalg.eigvalsh(out.state.matrix))
        np.testing.assert_allclose(before, after, atol=1e-10)
        purity_before = np.trace(rho.state.matrix @ rho.state.matrix).real
        purity_after = np.trace(out.state.matrix @ out.state.matrix).real
        assert abs(purity_before - purity_after) < 1e-10

    def test_non_unitary_rejected(self):
        trunc = FockTruncation(1)
        rho = prepare_initial(SystemPrep(0.5), 0.1, trunc)
        with pytest.raises(ValueError, match="unitary"):
            evolve(rho, 0.5 * np.eye(4))

    def test_off_diagonal_defect_rejected(self):
        # U = I + eps |0><1| gives U†U - I = eps (|0><1| + |1><0|) + eps^2 |1><1|:
        # the defect is off the diagonal, which an in-place -I leaves alone.
        trunc = FockTruncation(2)
        rho = prepare_initial(SystemPrep(0.5), 0.1, trunc)
        for eps, unitary in ((1e-9, False), (1e-11, True)):
            u = np.eye(2 * trunc.dim, dtype=complex)
            u[0, 1] = eps
            before = u.copy()
            if unitary:
                evolve(rho, u)
            else:
                with pytest.raises(ValueError, match="not unitary"):
                    evolve(rho, u)
            np.testing.assert_array_equal(u, before)

    def test_dimension_mismatch_rejected(self):
        trunc = FockTruncation(2)
        rho = prepare_initial(SystemPrep(0.5), 0.1, trunc)
        with pytest.raises(ValueError, match="shape"):
            evolve(rho, np.eye(4))


class TestPrepareInitial:
    def test_even_mixture_with_ground_reservoir(self):
        out = prepare_initial(SystemPrep(math.pi / 2), 0.0, FockTruncation(2))
        expected = np.zeros((6, 6))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(out.state.matrix, expected, atol=1e-12)

    def test_product_state_has_zero_mutual_information(self):
        from qlandauer.info import mutual_information

        out = prepare_initial(SystemPrep(1.2), 0.3, FockTruncation.for_nbar(0.3))
        assert abs(mutual_information(out)) < 1e-10

    def test_measured_preparation_populations(self):
        # renormalized populations 0.531/0.998 and 0.467/0.998
        alpha = 0.531 / 0.998
        theta_c = 2 * math.acos(math.sqrt(alpha))
        prep = SystemPrep(theta_c)
        assert abs(prep.alpha - alpha) < 1e-12
        assert abs(prep.beta - 0.467 / 0.998) < 1e-12
        assert abs(prep.alpha + prep.beta - 1.0) < 1e-12
        out = prepare_initial(prep, 0.074, FockTruncation.for_nbar(0.074))
        qubit = out.reduced_qubit().matrix.diagonal().real
        assert abs(qubit[0] - alpha) < 1e-12


class TestPulseParams:
    def test_default_calibration(self):
        p = PulseParams()
        assert p.eta == ETA_DEFAULT
        assert abs(p.omega - math.pi / (0.09 * 33.0)) < 1e-12
        assert abs(p.t_op - T_OP_DEFAULT) < 1e-10
        assert abs(OMEGA_DEFAULT / (2 * math.pi) - 0.16835) < 1e-3  # ~168 kHz

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            PulseParams(eta=0.0)
        with pytest.raises(ValueError, match="omega"):
            PulseParams(omega=-1.0)
        with pytest.raises(ValueError, match="duration"):
            PulseParams(duration=-1.0)


class TestJointState:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError, match="n_max"):
            JointState(DensityMatrix(np.eye(6, dtype=complex) / 6), 1)
