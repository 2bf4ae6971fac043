import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import expm_i_hermitian, hermitian_eig
from qlandauer.linalg import EIGENVALUE_FLOOR, DensityMatrix, kron, partial_trace

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_block_structure(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        out = kron(np.diag([2.0, -1.0]), m)
        np.testing.assert_allclose(out[:3, :3], 2.0 * m)
        np.testing.assert_allclose(out[3:, 3:], -1.0 * m)
        np.testing.assert_allclose(out[:3, 3:], 0.0)

    def test_sigma_x_tensor_projector_by_hand(self):
        # enumerate the 4x4: sigma_x (x) |0><0| maps (down,0) -> (up,0) only
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        op = kron(SIGMA_X, proj0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = 1.0  # |up,0><down,0|
        expected[0, 2] = 1.0  # |down,0><up,0|
        np.testing.assert_array_equal(op, expected)
        down0 = np.array([1, 0, 0, 0], dtype=complex)
        up0 = np.array([0, 0, 1, 0], dtype=complex)
        np.testing.assert_array_equal(op @ down0, up0)


class TestPartialTrace:
    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(1)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityMatrix(kron(rho_a.matrix, rho_b.matrix))
        np.testing.assert_allclose(
            partial_trace(joint, 2, 3, "A").matrix, rho_a.matrix, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(joint, 2, 3, "B").matrix, rho_b.matrix, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        reduced = partial_trace(rho, 2, 2, "A")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_random_pure_product_keep_b(self):
        rng = np.random.default_rng(2)
        a = random_pure(rng, 2)
        b = random_pure(rng, 3)
        joint = DensityMatrix(np.outer(np.kron(a, b), np.kron(a, b).conj()))
        expected = np.outer(b, b.conj())
        np.testing.assert_allclose(
            partial_trace(joint, 2, 3, "B").matrix, expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        reduced = partial_trace(rho, 2, 3, "A")
        assert abs(np.trace(reduced.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 6)
        with pytest.raises(ValueError, match="dimension"):
            partial_trace(rho, 2, 4, "A")

    def test_bad_keep_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(random_density(rng, 4), 2, 2, "C")


class TestHermitianEig:
    def test_diagonal_input(self):
        spectrum = hermitian_eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(spectrum.eigenvectors), np.eye(3), atol=1e-12)

    def test_pauli_x_spectrum(self):
        spectrum = hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_coupling_block_spectrum(self):
        g = 0.37
        spectrum = hermitian_eig(np.array([[0, g], [g, 0]], dtype=complex))
        np.testing.assert_allclose(spectrum.eigenvalues, [-g, g], atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 17, 64, 128])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        spectrum = hermitian_eig(h)
        assert np.linalg.norm(spectrum.reconstruct() - h, 2) < 1e-10 * max(1, np.linalg.norm(h, 2))
        v = spectrum.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)


class TestExpmIHermitian:
    def test_zero_generator(self):
        np.testing.assert_allclose(
            expm_i_hermitian(np.zeros((3, 3), dtype=complex), 5.0), np.eye(3), atol=1e-14)

    def test_pauli_rotation_closed_form(self):
        u = expm_i_hermitian(SIGMA_X * (np.pi / 2), 1.0)
        np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 8, 31])
    def test_unitarity(self, dim):
        rng = np.random.default_rng(10 + dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        u = expm_i_hermitian(h, 0.83)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_i_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_valid_state_is_frozen(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert rho.dim == 2
        assert not rho.matrix.flags.writeable


def hermitian_with_spectrum(seed, eigenvalues):
    """Exactly Hermitian Q diag(eigenvalues) Q† for a seeded random unitary Q."""
    dim = len(eigenvalues)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    m = (q * eigenvalues) @ q.conj().T
    return (m + m.conj().T) / 2


@st.composite
def unit_trace_hermitian(draw):
    """Unit-trace Hermitian matrix of dim 1-64 whose lowest eigenvalue is
    drawn near EIGENVALUE_FLOOR or well away from it on either side; some
    of the others are exact zeros, as in nearly pure states."""
    dim = draw(st.integers(1, 64))
    lowest = draw(st.one_of(st.floats(-5e-10, 5e-10), st.floats(-1e-2, 1e-2)))
    zeros = draw(st.integers(0, max(0, dim - 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = rng.uniform(0.01, 1.0, dim - 1)
    rest[:zeros] = 0.0
    eigenvalues = np.concatenate(([lowest], rest / rest.sum() * (1.0 - lowest))) \
        if dim > 1 else np.ones(1)
    return hermitian_with_spectrum(draw(st.integers(0, 2**32 - 1)), eigenvalues)


class TestDensityMatrixProperties:
    @settings(max_examples=300)
    @given(unit_trace_hermitian())
    def test_accepts_exactly_above_floor(self, m):
        lowest = np.linalg.eigvalsh(m)[0]
        assume(abs(lowest - EIGENVALUE_FLOOR) > 1e-12)
        before = m.copy()
        if lowest >= EIGENVALUE_FLOOR:
            rho = DensityMatrix(m)
            assert rho.matrix.tobytes() == before.tobytes()
            assert rho.matrix is not m
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(m)
        assert m.tobytes() == before.tobytes()
        assert m.flags.writeable

    @pytest.mark.parametrize("lowest", [-3e-10, -1.2e-10, -8e-11, -1e-11, 0.0])
    @pytest.mark.parametrize("dim", [2, 17, 64, 300])
    def test_floor_boundary_matches_eigvalsh(self, dim, lowest):
        rest = np.linspace(1.0, 2.0, dim - 1)
        m = hermitian_with_spectrum(dim, np.concatenate(
            ([lowest], rest / rest.sum() * (1.0 - lowest))))
        accepted = np.linalg.eigvalsh(m)[0] >= EIGENVALUE_FLOOR
        assert accepted == (lowest >= EIGENVALUE_FLOOR)
        if accepted:
            assert DensityMatrix(m).matrix.tobytes() == m.tobytes()
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(m)
