import math

import numpy as np
import pytest

from oracle import dense_blue_trace, dense_matrix
from qlandauer.ion import (
    PulseParams,
    dephase_qubit,
    evolve,
    n_max_for_nbar,
    thermal_state,
)
from qlandauer.linalg import DensityMatrix
from qlandauer.readout import (
    _simplex_least_squares,
    default_n_fit,
    detection_flip,
    exact_trace,
    fit_design_matrix,
    fit_phonon_populations,
    model_trace,
    project_to_simplex,
    sample_shots,
)

PULSE = PulseParams()
TIMES = np.linspace(0.0, 6 * PULSE.t_op, 30)


def down_fock_state(populations):
    return dephase_qubit([1.0, 0.0], populations)


def thermal_populations(nbar):
    diag = np.array(thermal_state(nbar, n_max_for_nbar(nbar)).matrix.diagonal().real)
    return diag / diag.sum()


class TestExactTrace:
    def test_down_ground_rabi_formula(self):
        state = down_fock_state([1.0, 0.0, 0.0, 0.0])
        p_down = exact_trace(state, PULSE, TIMES)
        expected = (1 + np.cos(PULSE.eta * PULSE.omega * TIMES)) / 2
        np.testing.assert_allclose(p_down, expected, atol=1e-12)

    def test_up_ground_is_dark(self):
        state = dephase_qubit([0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(exact_trace(state, PULSE, TIMES), 0.0, atol=1e-12)

    def test_matches_incoherent_model_for_down_diagonal_states(self):
        pops = thermal_populations(0.4)
        state = down_fock_state(pops)
        exact = exact_trace(state, PULSE, TIMES)
        modeled = model_trace(pops, PULSE, TIMES)
        np.testing.assert_allclose(exact, modeled, atol=1e-12)

    def test_matches_dense_reference_on_random_states(self):
        # random populations, up ones and the dark |down,n_max> included, and
        # red coherences, which the blue drive must not see
        rng = np.random.default_rng(41)
        for n_max in range(1, 10):
            for _ in range(3):
                product = dephase_qubit(rng.dirichlet(np.ones(2)),
                                        rng.dirichlet(np.ones(n_max + 1)))
                # the two drive phase draws are kept so the other draws stay the same
                rng.uniform(-math.pi, math.pi)
                state = evolve(product, PulseParams(), float(rng.uniform(0.0, 100.0)))
                p = PulseParams(eta=float(rng.uniform(0.02, 0.3)),
                                omega=float(rng.uniform(0.2, 3.0)))
                rng.uniform(-math.pi, math.pi)
                times = np.linspace(0.0, 6 * p.t_op, 30)
                np.testing.assert_allclose(
                    exact_trace(state, p, times),
                    dense_blue_trace(DensityMatrix(dense_matrix(state)), p, times),
                    rtol=0, atol=1e-12)

    def test_negative_time_rejected(self):
        # negative and non-finite times are refused by every function that
        # builds a readout matrix, not turned into nan or an SVD failure
        state = down_fock_state([1.0, 0.0])
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            times = np.append(TIMES, bad)
            for build in (lambda: exact_trace(state, PULSE, times),
                          lambda: model_trace([0.5, 0.5], PULSE, times),
                          lambda: fit_design_matrix(2, PULSE, times)):
                with pytest.raises(ValueError, match="readout times must be finite and >= 0"):
                    build()
        # a bad time is named before the point count and the detection error
        for times, epsilon in (([math.nan, 1.0], 0.0), ([math.inf, 1.0, 2.0], 0.5)):
            with pytest.raises(ValueError, match="readout times must be finite and >= 0"):
                fit_design_matrix(2, PULSE, times, epsilon)


class TestModelTrace:
    def test_ground_population_only(self):
        p_down = model_trace([1.0], PULSE, TIMES)
        expected = (1 + np.cos(PULSE.eta * PULSE.omega * TIMES)) / 2
        np.testing.assert_allclose(p_down, expected, atol=1e-14)

    def test_starts_at_one(self):
        assert model_trace([0.2, 0.5, 0.3], PULSE, TIMES)[0] == 1.0

    def test_thermal_beating_against_direct_sum(self):
        # independent oracle: explicit loop over levels at one time point
        pops = thermal_populations(0.5)
        t = 50.0
        expected = sum(
            p * (1 + math.cos(PULSE.eta * PULSE.omega * math.sqrt(n + 1) * t)) / 2
            for n, p in enumerate(pops)
        )
        p_down = model_trace(pops, PULSE, [0.0, t])
        assert abs(p_down[1] - expected) < 1e-12

    def test_fock_level_keeps_full_contrast(self):
        # the model has no decay envelope, like the data exact_trace simulates:
        # a Fock level keeps full contrast at late times
        t = 40.0
        p_down = model_trace([0.0, 1.0], PULSE, [0.0, t])
        freq = PULSE.eta * PULSE.omega * math.sqrt(2)
        expected = (1 + math.cos(freq * t)) / 2
        assert abs(p_down[1] - expected) < 1e-12
        exact = exact_trace(down_fock_state([0.0, 1.0, 0.0]), PULSE, [0.0, t])
        assert abs(p_down[1] - exact[1]) < 1e-12

    @pytest.mark.parametrize("t_late", [300.0, 1000.0])
    def test_matches_exact_trace_long_after_span(self, t_late):
        # no decay exponent enters the model: long after the readout span it
        # still equals the undamped trace of the state it describes
        pops = thermal_populations(0.5)
        times = t_late + np.linspace(0.0, PULSE.t_op, 30)
        np.testing.assert_allclose(model_trace(pops, PULSE, times),
                                   exact_trace(down_fock_state(pops), PULSE, times),
                                   rtol=0, atol=1e-12)

    def test_invalid_populations_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            model_trace([0.5, 0.2], PULSE, TIMES)
        with pytest.raises(ValueError, match="probability"):
            model_trace([1.2, -0.2], PULSE, TIMES)
        with pytest.raises(ValueError, match="probability"):
            model_trace([np.nan, 0.5, 0.5], PULSE, TIMES)


class TestSampleShots:
    def test_deterministic_endpoints(self):
        sampled = sample_shots(np.array([1.0, 0.0]), 100, seed=5)
        assert sampled[0] == 1.0
        assert sampled[1] == 0.0

    def test_binomial_statistics(self):
        sampled = sample_shots(np.full(1000, 0.5), 100, seed=17)
        assert abs(np.mean(sampled) - 0.5) < 0.02
        assert abs(np.var(sampled) - 0.0025) < 0.2 * 0.0025

    def test_reproducible(self):
        trace = model_trace(thermal_populations(0.3), PULSE, TIMES)
        a = sample_shots(trace, 100, seed=9)
        b = sample_shots(trace, 100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_noisy_input_and_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            sample_shots(np.array([1.0, 0.0]), 0, seed=0)


class TestDetectionFlip:
    def test_zero_epsilon_unchanged(self):
        trace = model_trace(thermal_populations(0.2), PULSE, TIMES)
        np.testing.assert_array_equal(detection_flip(trace, 0.0), trace)

    def test_half_epsilon_flattens(self):
        np.testing.assert_allclose(detection_flip(np.array([1.0, 0.3, 0.0]), 0.5), 0.5)

    def test_quoted_detection_error(self):
        assert abs(detection_flip(np.array([1.0]), 0.0022)[0] - 0.9978) < 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            detection_flip(np.array([1.0]), 1.5)


class TestFit:
    def test_round_trip_two_level(self):
        p_down = model_trace([0.9, 0.1], PULSE, TIMES)
        fit = fit_phonon_populations(fit_design_matrix(3, PULSE, TIMES), p_down)
        np.testing.assert_allclose(fit.populations, [0.9, 0.1, 0.0, 0.0], atol=1e-6)
        assert fit.converged
        assert fit.residual_norm < 1e-8

    def test_round_trip_thermal_mean(self):
        pops = thermal_populations(0.5)
        times = np.linspace(0.0, 200.0, 60)
        fit = fit_phonon_populations(fit_design_matrix(12, PULSE, times),
                                     model_trace(pops, PULSE, times))
        truth = float(np.dot(np.arange(len(pops)), pops))
        assert abs(fit.mean_phonon - truth) < 1e-4

    def test_round_trip_random_distributions(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            support = int(rng.integers(2, 5))
            pops = np.zeros(int(rng.integers(support, 10)))
            pops[:support] = rng.dirichlet(np.ones(support))
            p_down = model_trace(pops, PULSE, TIMES)
            fit = fit_phonon_populations(fit_design_matrix(len(pops) - 1, PULSE, TIMES), p_down)
            np.testing.assert_allclose(fit.populations, pops, atol=1e-6)

    def test_noisy_monte_carlo_recovery(self):
        # 100 shots, 30 points on [0, 200] us; cutoff covers the 0.3-thermal
        # support (>99.9% of weight below n = 4)
        pops = thermal_populations(0.3)
        truth = float(np.dot(np.arange(len(pops)), pops))
        times = np.linspace(0.0, 200.0, 30)
        clean = model_trace(pops, PULSE, times)
        a = fit_design_matrix(4, PULSE, times)
        estimates = []
        for seed in range(50):
            noisy = sample_shots(clean, 100, seed)
            fit = fit_phonon_populations(a, noisy)
            estimates.append(fit.mean_phonon)
        assert abs(np.mean(estimates) - truth) < 0.05
        assert np.std(estimates) < 0.1

    def test_simplex_hard_constraint_under_noise(self):
        clean = model_trace(thermal_populations(0.2), PULSE, TIMES)
        noisy = sample_shots(clean, 20, seed=3)
        fit = fit_phonon_populations(fit_design_matrix(8, PULSE, TIMES), noisy)
        assert np.all(fit.populations >= 0.0)
        assert abs(fit.populations.sum() - 1.0) < 1e-9
        assert abs(fit.mean_phonon
                   - np.dot(np.arange(9), fit.populations)) < 1e-12

    def test_undamped_trace_fitted_as_is(self):
        # the fit takes no decay parameters: an undamped trace is fitted as is
        p_down = model_trace([1.0], PULSE, TIMES)
        fit = fit_phonon_populations(fit_design_matrix(2, PULSE, TIMES), p_down)
        assert abs(fit.populations[0] - 1.0) < 1e-6

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="fewer than"):
            fit_design_matrix(4, PULSE, TIMES[:4])
        with pytest.raises(ValueError, match="n_fit must be >= 1, got 0"):
            fit_design_matrix(0, PULSE, TIMES[:4])

    def test_rank_deficient_trace_rejected(self):
        # 30 equal times make every row of the design matrix the same
        times = np.full(30, 50.0)
        with pytest.raises(ValueError, match="n_fit = 2 .* condition number"):
            fit_design_matrix(2, PULSE, times)

    def test_condition_limit_at_default_readout(self):
        # 30 points over 6 t_op resolve the sideband frequencies of levels
        # 0..22: condition number 1.8e6 at n_fit 22, 1.7e10 at 23
        fit_design_matrix(22, PULSE, TIMES)
        with pytest.raises(ValueError, match="n_fit = 23 .* condition number 1.67e"):
            fit_design_matrix(23, PULSE, TIMES)

    def test_half_detection_error_identifies_nothing(self):
        with pytest.raises(ValueError, match="detection_epsilon = 0.5: .* no information"):
            fit_design_matrix(1, PULSE, TIMES, 0.5)
        with pytest.raises(ValueError, match="n_fit = 23 .* detection_epsilon = 0.4: .* "
                                             "condition number"):
            fit_design_matrix(23, PULSE, TIMES, 0.4)

    def test_design_matrix_without_detection_error_is_the_model(self):
        columns = [model_trace(np.eye(9)[n], PULSE, TIMES) for n in range(9)]
        np.testing.assert_array_equal(fit_design_matrix(8, PULSE, TIMES),
                                      np.column_stack(columns))

    def test_leading_columns_are_the_smaller_matrix(self):
        # adding levels appends columns and leaves the lower levels' untouched
        np.testing.assert_array_equal(fit_design_matrix(20, PULSE, TIMES, 0.0022)[:, :9],
                                      fit_design_matrix(8, PULSE, TIMES, 0.0022))

    def test_detection_error_fitted_exactly(self):
        pops = thermal_populations(0.5)[:9]
        pops /= pops.sum()
        flipped = detection_flip(model_trace(pops, PULSE, TIMES), 0.0022)
        fit = fit_phonon_populations(fit_design_matrix(8, PULSE, TIMES, 0.0022), flipped)
        np.testing.assert_allclose(fit.populations, pops, atol=1e-6)

    def test_length_mismatch_names_arrays(self):
        p_down = model_trace([1.0], PULSE, TIMES[:4])
        with pytest.raises(ValueError, match=r"a has 5 rows but p_down has shape \(4,\)"):
            fit_phonon_populations(fit_design_matrix(2, PULSE, TIMES[:5]), p_down)

    def test_iteration_cap_flags_result(self, monkeypatch):
        import qlandauer.readout as readout_mod

        monkeypatch.setattr(readout_mod, "FIT_MAX_ITERATIONS", 2)
        a = np.array([[1.0, 0.999], [0.999, 1.0], [0.5, 0.501]])
        y = np.array([0.3, 0.7, 0.5])
        _, converged = _simplex_least_squares(a, y)
        assert not converged

    def test_default_n_fit_rule(self):
        assert default_n_fit(0.074) == 8
        assert default_n_fit(2.0) == 10


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)

    def test_projection_properties(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            v = rng.standard_normal(int(rng.integers(1, 12))) * 3
            p = project_to_simplex(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12
            # projection is the closest simplex point: check against a few
            # random simplex alternatives
            for _ in range(5):
                q = rng.dirichlet(np.ones(len(v)))
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12

