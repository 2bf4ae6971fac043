"""The block core (populations plus 2x2 red-sideband blocks) against the
dense oracle, the erasure equality's invariants over random experiments,
and the memory bound that keeps dense arrays off the erasure pipeline."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import dense_blue_trace, dense_erasure, dense_ledger, dense_matrix, dense_reduced
from qlandauer.info import temperature_from_nbar
from qlandauer.ion import JointState, PulseParams, dephase_qubit
from qlandauer.linalg import EIGENVALUE_FLOOR, DensityMatrix, kron
from qlandauer.protocol import ExperimentConfig, Imperfections, run_erasure
from qlandauer.readout import exact_trace

DOWN = np.diag([1.0, 0.0])


def experiment(theta, nbar0, t_factor, fidelity, n_max=None):
    pulse = PulseParams()
    return ExperimentConfig(
        theta_c=theta, nbar0=nbar0, n_max=n_max,
        pulse=pulse, t_pulse=t_factor * pulse.t_op,
        imperfections=Imperfections(init_fidelity=fidelity))


EXPERIMENTS = dict(
    theta=st.floats(0.0, math.pi),
    t_factor=st.floats(0.0, 3.0),
    fidelity=st.floats(0.0, 1.0),
    # drawn and unused (the drive has no phase) so the other draws stay the same
    phi=st.floats(-math.pi, math.pi),
)


@settings(max_examples=150)
@given(nbar0=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)), n_max=st.integers(2, 12),
       **EXPERIMENTS)
def test_block_core_matches_dense_oracle(theta, nbar0, t_factor, fidelity, phi, n_max):
    cfg = experiment(theta, nbar0, t_factor, fidelity, n_max)
    ledger, initial, final = run_erasure(cfg)
    dense_initial, dense_final = dense_erasure(cfg)
    # every population and red coherence of the final state
    np.testing.assert_allclose(dense_matrix(final), dense_final.matrix, rtol=0, atol=1e-12)

    terms = dense_ledger(dense_initial, dense_final, nbar0)
    if nbar0 > 0:
        terms["lhs"] = terms["delta_q"] / temperature_from_nbar(nbar0)
        terms["residual"] = terms["lhs"] - (
            terms["delta_s"] + terms["mutual_info"] + terms["relative_entropy"])
    for key, value in terms.items():
        if value is None:
            assert getattr(ledger, key) is None
        else:
            assert abs(getattr(ledger, key) - value) <= 1e-12, key

    times = cfg.readout_times()
    np.testing.assert_allclose(exact_trace(final, cfg.pulse, times),
                               dense_blue_trace(dense_final, cfg.pulse, times),
                               rtol=0, atol=1e-12)
    for state, dense in ((initial, dense_initial), (final, dense_final)):
        probe = dephase_qubit(DOWN, state.reduced_fock())
        dense_probe = DensityMatrix(kron(DOWN, dense_reduced(dense, "B").matrix))
        np.testing.assert_allclose(exact_trace(probe, cfg.pulse, times),
                                   dense_blue_trace(dense_probe, cfg.pulse, times),
                                   rtol=0, atol=1e-12)


@settings(max_examples=150)
@given(nbar0=st.floats(1e-8, 20.0), **EXPERIMENTS)
def test_equality_at_automatic_truncation(theta, nbar0, t_factor, fidelity, phi):
    ledger, _, _ = run_erasure(experiment(theta, nbar0, t_factor, fidelity))
    assert abs(ledger.residual) <= 1e-9
    assert ledger.mutual_info >= -1e-12
    assert ledger.relative_entropy >= -1e-12
    assert ledger.lhs >= ledger.delta_s - 1e-12  # Landauer bound


@st.composite
def block_arrays(draw):
    """Populations and red coherences of a unit-trace block state, n_max
    2-12, built from its eigenvalues: one drawn near EIGENVALUE_FLOOR or
    well away from it on either side, some exact zeros, and each pair's
    pair rotated by a random angle and phase."""
    n_max = draw(st.integers(2, 12))
    lowest = draw(st.one_of(st.floats(-5e-10, 5e-10), st.floats(-1e-2, 1e-2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eig = rng.uniform(0.01, 1.0, 2 * n_max + 1)
    eig[:draw(st.integers(0, n_max))] = 0.0
    eig = rng.permutation(np.append(eig / eig.sum() * (1.0 - lowest), lowest))
    upper, lower = eig[2::2], eig[3::2]
    chi, psi = rng.uniform(0.0, math.pi, n_max), rng.uniform(-math.pi, math.pi, n_max)
    pops = np.zeros((2, n_max + 1))
    pops[0, 0], pops[1, -1] = eig[0], eig[1]
    pops[1, :-1] = upper * np.cos(chi) ** 2 + lower * np.sin(chi) ** 2
    pops[0, 1:] = upper * np.sin(chi) ** 2 + lower * np.cos(chi) ** 2
    coh = (upper - lower) * np.sin(chi) * np.cos(chi) * np.exp(1j * psi)
    return pops, coh


@settings(max_examples=300)
@given(block_arrays())
def test_joint_state_accepts_exactly_above_floor(arrays):
    pops, coh = arrays
    m = dense_matrix(SimpleNamespace(populations=pops, red_coherences=coh))
    lowest = np.linalg.eigvalsh(m)[0]
    assume(abs(lowest - EIGENVALUE_FLOOR) > 1e-12)
    if lowest >= EIGENVALUE_FLOOR:
        state = JointState(pops, coh)
        np.testing.assert_allclose(np.sort(state.spectrum), np.linalg.eigvalsh(m), atol=1e-15)
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            JointState(pops, coh)


def test_erasure_holds_no_dense_array():
    # A 2(n_max+1)-square complex matrix at nbar0 = 20 (n_max 567) is 20.6 MB.
    cfg = ExperimentConfig(nbar0=20.0)
    assert cfg.truncation().n_max == 567
    run_erasure(cfg)
    tracemalloc.start()
    try:
        _, _, final = run_erasure(cfg)
        exact_trace(final, cfg.pulse, cfg.readout_times())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_erasure_scales_past_dense_reach():
    # nbar0 = 200 needs n_max 5,540; one dense joint matrix would be 1.96 GB
    ledger, _, final = run_erasure(ExperimentConfig(nbar0=200.0))
    assert final.n_max > 5000
    assert abs(ledger.residual) < 1e-9


@pytest.mark.parametrize("nbar0", [20.0, 200.0, 1000.0, 5000.0])
def test_equality_holds_at_high_occupation(nbar0):
    # Thermal weights far below roundoff must enter every entropy, as they
    # enter D's cross term.  Observed worst |residual| over the three angles:
    # 9.1e-16, 2.0e-15, 3.0e-15 and 3.5e-15.
    for theta in (0.3, math.pi / 2, 2.9):
        ledger, _, _ = run_erasure(ExperimentConfig(theta_c=theta, nbar0=nbar0))
        assert abs(ledger.residual) <= 1e-9
