import math

import numpy as np
import pytest

from oracle import (
    blue_sideband_hamiltonian,
    carrier_rotation,
    dense_entropy,
    dense_erasure,
    dense_matrix,
    expm_i_hermitian,
    red_sideband_hamiltonian,
)
from qlandauer.info import mutual_information
from qlandauer.linalg import EIGENVALUE_FLOOR, kron
from qlandauer.ion import (
    N_MAX_LIMIT,
    T_OP_DEFAULT,
    TRUNCATION_TAIL_TOL,
    JointState,
    dephase_qubit,
    evolve,
    jc_block_unitary,
    n_max_for_nbar,
    sideband_half_angles,
    thermal_log_weights,
    thermal_tail_mass,
    thermal_state,
)
from qlandauer.protocol import ExperimentConfig, run_erasure


def geometric_weight(nbar, n):
    # independent closed form: p_n = nbar^n / (1+nbar)^(n+1)
    return nbar**n / (1.0 + nbar) ** (n + 1)


def basis_state(n_max, qubit, n):
    v = np.zeros(2 * (n_max + 1), dtype=complex)
    v[qubit * (n_max + 1) + n] = 1.0
    return v


def random_joint_state(rng, n_max):
    """Random qubit and Fock populations, a red pulse of random length, then
    a random sign on every red coherence y_n (a state and its mirror image
    i y_n -> -i y_n share a spectrum): every population and y_n is generic."""
    product = dephase_qubit(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(n_max + 1)))
    sign = rng.choice((-1.0, 1.0), n_max)
    pulsed = evolve(product, T_OP_DEFAULT, float(rng.uniform(0.0, 100.0)))
    return JointState(pulsed.populations, pulsed.red_coherences * sign)


class TestFockTruncation:
    def test_sizing_rule(self):
        for nbar in (0.01, 0.074, 0.5, 2.0):
            q = nbar / (1 + nbar)
            assert n_max_for_nbar(nbar) >= math.log(1e-12) / math.log(q)

    def test_unbounded_nbar_names_key(self):
        # nbar/(1+nbar) rounds to 1: no finite n_max holds the thermal tail
        for nbar in (1e308, 1e17, math.inf, math.nan):
            with pytest.raises(ValueError, match="nbar"):
                n_max_for_nbar(nbar)

    def test_limit_names_nbar_and_n_max(self):
        # n_max <= N_MAX_LIMIT exactly when q = nbar / (1 + nbar) is at most
        # TRUNCATION_TAIL_TOL ** (1 / N_MAX_LIMIT); step 1e-4 to either side.
        log_q = math.log(TRUNCATION_TAIL_TOL) / N_MAX_LIMIT
        nbar_edge = -math.exp(log_q) / math.expm1(log_q)
        below = n_max_for_nbar(nbar_edge * (1 - 1e-4))
        assert N_MAX_LIMIT - 200 < below <= N_MAX_LIMIT
        with pytest.raises(ValueError, match=r"nbar = \S+ needs n_max = \d+, above the limit"):
            n_max_for_nbar(nbar_edge * (1 + 1e-4))
        assert n_max_for_nbar(1000.0) == 27645

    def test_minimum(self):
        # The erasure adds up to one phonon and the blue readout of |down,1>
        # needs |up,2>, so even a zero-temperature reservoir keeps n = 2.
        assert n_max_for_nbar(0.0) == 2
        assert n_max_for_nbar(1e-13) == 2

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError, match="nbar"):
            n_max_for_nbar(-0.1)

    def test_tail_mass_is_discarded_thermal_weight(self):
        nbar = 2.0
        # 1 - (p_0 + p_1 + p_2) with p_n = nbar^n / (1+nbar)^(n+1)
        kept = sum(geometric_weight(nbar, n) for n in range(3))
        assert abs(thermal_tail_mass(nbar, 2) - (1.0 - kept)) < 1e-15
        assert abs(thermal_tail_mass(nbar, 2) - 8.0 / 27.0) < 1e-15
        assert thermal_tail_mass(0.0, 2) == 0.0
        for nbar in (0.01, 0.074, 0.5, 2.0, 20.0):
            assert thermal_tail_mass(nbar, n_max_for_nbar(nbar)) <= 1e-12


class TestThermalState:
    def test_ground_state_at_zero(self):
        rho = thermal_state(0.0, 3)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_geometric_weights_at_reference_occupation(self):
        rho = thermal_state(0.074, n_max_for_nbar(0.074))
        diag = rho.matrix.diagonal().real
        for n in range(3):
            assert abs(diag[n] - geometric_weight(0.074, n)) < 1e-10

    def test_thermal_entropy_closed_form(self):
        # S = (1+nbar) ln(1+nbar) - nbar ln(nbar)
        nbar = 0.074
        expected = (1 + nbar) * math.log(1 + nbar) - nbar * math.log(nbar)
        rho = thermal_state(nbar, n_max_for_nbar(nbar))
        assert abs(dense_entropy(rho) - expected) < 1e-9

    def test_log_weights_exact_below_double_precision(self):
        # ln p_n = n ln(nbar/(1+nbar)) - ln(1+nbar) - ln(1 - q^(n_max+1))
        nbar, n_max = 1e-8, 45
        q = nbar / (1 + nbar)
        expected = np.arange(46) * math.log(q) - math.log1p(nbar) - math.log1p(-q**46)
        np.testing.assert_allclose(thermal_log_weights(nbar, n_max), expected,
                                   rtol=1e-14, atol=1e-15)
        assert thermal_state(nbar, n_max).matrix[45, 45] == 0.0  # exp(-829) underflows

    @pytest.mark.parametrize("nbar", [0.01, 0.074, 0.3, 1.0, 2.0])
    def test_mean_occupation_reproduced(self, nbar):
        rho = thermal_state(nbar, n_max_for_nbar(nbar))
        diag = rho.matrix.diagonal().real
        mean = float(np.dot(np.arange(len(diag)), diag))
        assert abs(mean - nbar) < 1e-10

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError, match="nbar"):
            thermal_state(-1.0, 2)


class TestCarrierRotation:
    def test_zero_angle(self):
        np.testing.assert_array_equal(carrier_rotation(0.0), np.eye(2))

    def test_pi_flip(self):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(carrier_rotation(math.pi), -1j * sigma_x, atol=1e-15)

    def test_half_pi_then_dephase_gives_even_mixture(self):
        u = carrier_rotation(math.pi / 2)
        qubit = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        np.testing.assert_allclose(np.diagonal(qubit).real, [0.5, 0.5], atol=1e-12)
        _, initial, _ = run_erasure(ExperimentConfig(theta_c=math.pi / 2, nbar0=0.0))
        np.testing.assert_allclose(initial.reduced_qubit(), [0.5, 0.5], atol=1e-12)


class TestDephase:
    def test_superposition_product(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        qubit = np.outer(plus, plus.conj())
        ground = np.diag([1.0, 0.0]).astype(complex)
        out = dephase_qubit(np.diagonal(qubit).real, [1.0, 0.0])
        np.testing.assert_allclose(dense_matrix(out), kron(np.eye(2) / 2, ground), atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            qubit = g @ g.conj().T / np.trace(g @ g.conj().T).real
            reservoir = rng.dirichlet(np.ones(5))
            once = dephase_qubit(np.diagonal(qubit).real, reservoir)
            # dense reference: zero the blocks coupling the qubit levels
            expected = kron(qubit, np.diag(reservoir))
            expected[:5, 5:] = expected[5:, :5] = 0.0
            np.testing.assert_allclose(dense_matrix(once), expected, atol=1e-15)
            twice = dephase_qubit(once.reduced_qubit(), once.reduced_fock())
            np.testing.assert_allclose(twice.populations, once.populations, atol=1e-15)
            assert abs(once.populations.sum() - 1.0) < 1e-12

    def test_qubit_diagonal_state_unchanged(self):
        n_max = 3
        out = dephase_qubit([0.3, 0.7], np.exp(thermal_log_weights(0.2, n_max)))
        np.testing.assert_allclose(dense_matrix(out), kron(np.diag([0.3, 0.7]),
                                   thermal_state(0.2, n_max).matrix), atol=1e-15)

    def test_takes_qubit_populations(self):
        # (P_down, P_up) times the Fock populations, exactly; a 2x2 matrix
        # is not a population pair and is refused
        reservoir = [0.5, 0.25, 0.25]
        out = dephase_qubit([0.3, 0.7], reservoir)
        np.testing.assert_array_equal(out.populations, np.outer([0.3, 0.7], reservoir))
        np.testing.assert_array_equal(out.red_coherences, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            dephase_qubit(np.diag([0.3, 0.7]), reservoir)


class TestSidebandHamiltonians:
    def test_red_matrix_element_with_phase(self):
        # the drive carries no phase: the element is real and positive
        n_max = 3
        h = red_sideband_hamiltonian(T_OP_DEFAULT, n_max)
        down1 = basis_state(n_max, 0, 1)
        up0 = basis_state(n_max, 1, 0)
        element = down1.conj() @ h @ up0
        assert element.imag == 0.0
        assert abs(element - math.pi / T_OP_DEFAULT / 2) < 1e-14

    def test_blue_matrix_element_with_phase(self):
        # the drive carries no phase: the element is real and positive
        n_max = 3
        h = blue_sideband_hamiltonian(T_OP_DEFAULT, n_max)
        up1 = basis_state(n_max, 1, 1)
        down0 = basis_state(n_max, 0, 0)
        element = up1.conj() @ h @ down0
        assert element.imag == 0.0
        assert abs(element - math.pi / T_OP_DEFAULT / 2) < 1e-14

    def test_dark_states(self):
        n_max = 4
        h_red = red_sideband_hamiltonian(T_OP_DEFAULT, n_max)
        h_blue = blue_sideband_hamiltonian(T_OP_DEFAULT, n_max)
        assert np.max(np.abs(h_red @ basis_state(n_max, 0, 0))) == 0.0
        assert np.max(np.abs(h_red @ basis_state(n_max, 1, n_max))) == 0.0
        assert np.max(np.abs(h_blue @ basis_state(n_max, 1, 0))) == 0.0
        assert np.max(np.abs(h_blue @ basis_state(n_max, 0, n_max))) == 0.0

    def test_hermiticity(self):
        for kind in (red_sideband_hamiltonian, blue_sideband_hamiltonian):
            h = kind(T_OP_DEFAULT, 6)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_sqrt_n_scaling(self):
        n_max = 5
        h = red_sideband_hamiltonian(T_OP_DEFAULT, n_max)
        for n in range(n_max):
            element = basis_state(n_max, 0, n + 1).conj() @ h @ basis_state(n_max, 1, n)
            assert abs(element - math.pi / T_OP_DEFAULT * math.sqrt(n + 1) / 2) < 1e-14


class TestJcBlockUnitary:
    def test_zero_duration_is_identity(self):
        n_max = 4
        for kind in ("red", "blue"):
            np.testing.assert_array_equal(
                jc_block_unitary(kind, T_OP_DEFAULT, n_max, 0.0), np.eye(2 * (n_max + 1)))

    def test_pi_pulse_full_transfer(self):
        n_max = 4
        u = jc_block_unitary("red", T_OP_DEFAULT, n_max, T_OP_DEFAULT)
        out = u @ basis_state(n_max, 1, 0)
        prob_down1 = abs(out[1]) ** 2  # |down,1>
        assert abs(prob_down1 - 1.0) < 1e-12

    def test_second_block_transfer_probability(self):
        # block angle pi*sqrt(2) => transfer sin^2(pi*sqrt(2)/2)
        n_max = 4
        u = jc_block_unitary("red", T_OP_DEFAULT, n_max, T_OP_DEFAULT)
        out = u @ basis_state(n_max, 1, 1)
        expected = math.sin(math.pi * math.sqrt(2) / 2) ** 2
        assert abs(abs(out[2]) ** 2 - expected) < 1e-12  # |down,2>

    def test_matches_matrix_exponential_for_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            # a calibration drawn as (eta, Omega) is the pi-pulse time pi/(eta Omega)
            t_op = math.pi / (float(rng.uniform(0.02, 0.3)) * float(rng.uniform(0.2, 3.0)))
            rng.uniform(-math.pi, math.pi)  # the drive phase draw, kept so later draws stay the same
            t = float(rng.uniform(0.0, 120.0))
            n_max = int(rng.integers(1, 9))
            for kind, builder in (
                ("red", red_sideband_hamiltonian),
                ("blue", blue_sideband_hamiltonian),
            ):
                u_closed = jc_block_unitary(kind, t_op, n_max, t)
                u_expm = expm_i_hermitian(builder(t_op, n_max), t)
                assert np.linalg.norm(u_closed - u_expm, 2) < 1e-10

    def test_blue_rabi_from_down_ground(self):
        n_max = 3
        for t in np.linspace(0.0, 4 * T_OP_DEFAULT, 17):
            u = jc_block_unitary("blue", T_OP_DEFAULT, n_max, float(t))
            out = u @ basis_state(n_max, 0, 0)
            p_down = abs(out[0]) ** 2
            expected = (1 + math.cos(math.pi / T_OP_DEFAULT * t)) / 2
            assert abs(p_down - expected) < 1e-12

    def test_red_never_leaves_down_ground(self):
        n_max = 5
        for t in np.linspace(0.0, 5 * T_OP_DEFAULT, 13):
            u = jc_block_unitary("red", T_OP_DEFAULT, n_max, float(t))
            out = u @ basis_state(n_max, 0, 0)
            assert abs(abs(out[0]) ** 2 - 1.0) < 1e-12

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            jc_block_unitary("green", T_OP_DEFAULT, 2, 1.0)


class TestEvolve:
    def test_identity(self):
        rng = np.random.default_rng(12)
        rho = random_joint_state(rng, 3)
        out = evolve(rho, T_OP_DEFAULT, 0.0)
        np.testing.assert_allclose(out.populations, rho.populations, atol=1e-15)
        np.testing.assert_allclose(out.red_coherences, rho.red_coherences, atol=1e-15)

    def test_spectrum_and_purity_preserved(self):
        rng = np.random.default_rng(13)
        rho = random_joint_state(rng, 3)
        out = evolve(rho, T_OP_DEFAULT, 17.0)
        np.testing.assert_allclose(np.sort(out.spectrum), np.sort(rho.spectrum), atol=1e-12)
        np.testing.assert_allclose(
            np.sort(out.spectrum), np.linalg.eigvalsh(dense_matrix(out)), atol=1e-12)
        assert abs(np.sum(rho.spectrum**2) - np.sum(out.spectrum**2)) < 1e-12

    def test_matches_dense_conjugation(self):
        # coherent inputs, random calibration and length: U rho U† with the dense unitary
        rng = np.random.default_rng(14)
        for _ in range(20):
            n_max = int(rng.integers(1, 9))
            rho = random_joint_state(rng, n_max)
            t_op = math.pi / (float(rng.uniform(0.02, 0.3)) * float(rng.uniform(0.2, 3.0)))
            rng.uniform(-math.pi, math.pi)  # the drive phase draw, kept so later draws stay the same
            t = float(rng.uniform(0.0, 120.0))
            u = jc_block_unitary("red", t_op, n_max, t)
            np.testing.assert_allclose(dense_matrix(evolve(rho, t_op, t)),
                                       u @ dense_matrix(rho) @ u.conj().T, rtol=0, atol=1e-14)


class TestPrepareInitial:
    def test_even_mixture_with_ground_reservoir(self):
        cfg = ExperimentConfig(nbar0=0.0, n_max=2)  # theta_c = pi/2
        expected = np.zeros((6, 6))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(dense_erasure(cfg)[0].matrix, expected, atol=1e-12)
        _, initial, _ = run_erasure(cfg)
        np.testing.assert_allclose(dense_matrix(initial), expected, atol=1e-12)

    def test_product_state_has_zero_mutual_information(self):
        _, initial, _ = run_erasure(ExperimentConfig(theta_c=1.2, nbar0=0.3))
        assert abs(mutual_information(initial)) < 1e-10

    def test_measured_preparation_populations(self):
        # renormalized populations 0.531/0.998 and 0.467/0.998
        alpha = 0.531 / 0.998
        theta_c = 2 * math.acos(math.sqrt(alpha))
        _, initial, _ = run_erasure(ExperimentConfig(theta_c=theta_c))
        np.testing.assert_allclose(initial.reduced_qubit(), [alpha, 0.467 / 0.998], atol=1e-12)


class TestDriveCalibration:
    def test_default_calibration(self):
        # a 33 us pi pulse on block 0; block n turns at pi sqrt(n+1) / t_op
        assert T_OP_DEFAULT == 33.0
        assert ExperimentConfig().t_op == ExperimentConfig().erasure_time == 33.0
        np.testing.assert_allclose(sideband_half_angles(33.0, 3, 33.0),
                                   math.pi * np.sqrt([1.0, 2.0, 3.0]) / 2, rtol=1e-15)

    def test_validation(self):
        for t_op in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_op must be finite and > 0"):
                sideband_half_angles(t_op, 3, 1.0)
            with pytest.raises(ValueError, match="t_op must be"):
                ExperimentConfig(t_op=t_op)
        # a subnormal t_op is finite and > 0, but its drive rate pi/t_op is not finite
        with pytest.raises(ValueError, match="pi/t_op finite, got 1e-310"):
            sideband_half_angles(1e-310, 3, 1.0)


class TestJointState:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError, match="n_max"):
            JointState(np.full((2, 3), 1 / 6), np.zeros(1))
        with pytest.raises(ValueError, match="n_max"):
            JointState(np.full((2, 1), 0.5), np.zeros(0))

    def test_rules_of_density_matrix(self):
        with pytest.raises(ValueError, match="non-finite"):
            JointState([[0.5, np.nan], [0.5, 0.0]], [0.0])
        with pytest.raises(ValueError, match="trace"):
            JointState([[0.5, 0.5], [0.5, 0.0]], [0.0])
        # pair block [[0.25, 0.3], [0.3, 0.25]] on (|up,0>, |down,1>) has eigenvalue -0.05
        with pytest.raises(ValueError, match="negative eigenvalue"):
            JointState([[0.25, 0.25], [0.25, 0.25]], [0.3])

    def test_complex_entries_refused(self):
        # a coherence is i y_n with y_n real; a complex y_n or population is
        # refused by name, not cast with its imaginary part dropped
        for coh in ([0.1j], np.array([0.1 + 0.0j])):
            with pytest.raises(ValueError, match="red_coherences must be real"):
                JointState(np.full((2, 2), 0.25), coh)
        with pytest.raises(ValueError, match="populations must be real"):
            JointState(np.full((2, 2), 0.25) + 0.3j, [0.0])

    def test_subnormal_pair_has_finite_spectrum(self):
        # a pair holding only 5e-324 has upper eigenvalue 0 after rounding;
        # its lower one is the pair's trace, not 0/0, which the floor check
        # would let through
        state = JointState([[0.5, 0.5, 0.0], [0.0, 5e-324, 0.0]], [0.0, 0.0])
        assert np.isfinite(state.spectrum).all()
        assert state.spectrum.sum() == 1.0

    def test_spectrum_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(15)
        for n_max in (1, 4, 9):
            state = random_joint_state(rng, n_max)
            np.testing.assert_allclose(
                np.sort(state.spectrum), np.linalg.eigvalsh(dense_matrix(state)), atol=1e-15)

    def test_frozen_copy(self):
        pops = np.array([[0.5, 0.0], [0.5, 0.0]])
        state = JointState(pops, [0.0])
        pops[0, 0] = 0.0
        assert state.populations[0, 0] == 0.5
        assert not state.populations.flags.writeable
        assert not state.red_coherences.flags.writeable
        assert state.spectrum.min() >= EIGENVALUE_FLOOR
