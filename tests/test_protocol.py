import dataclasses
import math

import numpy as np
import pytest

from oracle import dense_erasure, dense_matrix, parse_sweep_table
from qlandauer.info import temperature_from_nbar, von_neumann_entropy
from qlandauer.ion import thermal_state
from qlandauer.linalg import kron
from qlandauer.protocol import (
    READOUT_CELLS_LIMIT,
    REALISTIC_IMPERFECTIONS,
    ExperimentConfig,
    Imperfections,
    find_entropy_zero_crossings,
    format_sweep_table,
    run_erasure,
    simulated_readout_run,
    sweep_temperature,
    sweep_theta,
)

DEFAULT = ExperimentConfig()


@pytest.fixture(scope="module")
def temperature_rows():
    grid = np.geomspace(0.01, 2.0, 12)
    return grid, sweep_temperature(DEFAULT, grid)


@pytest.fixture(scope="module")
def theta_rows():
    grid = np.linspace(0.0, math.pi, 25)
    return grid, sweep_theta(DEFAULT, grid)


class TestRunErasure:
    def test_reference_point_polarizes_qubit(self):
        ledger, _, final = run_erasure(DEFAULT)
        down = final.reduced_qubit()[0]
        assert down > 0.95
        assert abs(ledger.residual) < 1e-9

    def test_cooled_reservoir_polarizes_harder(self):
        _, _, final = run_erasure(dataclasses.replace(DEFAULT, nbar0=0.03))
        assert final.reduced_qubit()[0] > 0.95

    def test_pure_initial_state_generates_information(self):
        for nbar in (0.074, 0.5):
            ledger, _, _ = run_erasure(
                dataclasses.replace(DEFAULT, theta_c=0.0, nbar0=nbar))
            assert ledger.delta_s < 0

    def test_zero_duration_gives_zero_ledger(self):
        cfg = dataclasses.replace(DEFAULT, t_pulse=0.0)
        ledger, initial, final = run_erasure(cfg)
        np.testing.assert_allclose(dense_matrix(final), dense_matrix(initial), atol=1e-15)
        for term in (ledger.delta_q, ledger.delta_s, ledger.mutual_info,
                     ledger.relative_entropy, ledger.residual):
            assert abs(term) < 1e-10

    def test_zero_temperature_final_state_exact(self):
        cfg = dataclasses.replace(DEFAULT, nbar0=0.0)
        ledger, _, final = run_erasure(cfg)
        expected = np.zeros((6, 6))  # n_max = 2, the automatic floor
        expected[0, 0] = expected[1, 1] = 0.5  # |down>(x)(|0><0|+|1><1|)/2
        np.testing.assert_allclose(dense_matrix(final), expected, atol=1e-10)
        assert abs(ledger.delta_s - math.log(2)) < 1e-10
        assert abs(ledger.mutual_info) < 1e-10

    def test_initial_entropy_monotone_on_first_half(self):
        thetas = np.linspace(0.0, math.pi / 2, 12)
        entropies = []
        for theta in thetas:
            _, initial, _ = run_erasure(dataclasses.replace(DEFAULT, theta_c=theta))
            entropies.append(von_neumann_entropy(initial.reduced_qubit()))
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        # closed form: -alpha ln alpha - beta ln beta
        alpha, beta = math.cos(thetas[5] / 2) ** 2, math.sin(thetas[5] / 2) ** 2
        expected = -(alpha * math.log(alpha) + beta * math.log(beta))
        assert abs(entropies[5] - expected) < 1e-12

    def test_initial_state_matches_dense_preparation(self):
        # against the closed form at fidelity 1, and against the carrier
        # unitary conjugating diag(F, 1 - F) of the dense oracle at every F
        for theta in (0.0, 0.7, math.pi / 2, 2.9, math.pi):
            for nbar in (0.0, 0.074, 2.0):
                cfg = dataclasses.replace(DEFAULT, theta_c=theta, nbar0=nbar)
                _, initial, _ = run_erasure(cfg)
                qubit = np.diag([math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2])
                expected = kron(qubit, thermal_state(nbar, cfg.truncation()).matrix)
                np.testing.assert_allclose(dense_matrix(initial), expected, rtol=0, atol=1e-15)
                for fidelity in (1.0, 0.989, 0.7, 0.5, 0.0):
                    cfg_f = dataclasses.replace(
                        cfg, imperfections=Imperfections(init_fidelity=fidelity))
                    _, initial, _ = run_erasure(cfg_f)
                    np.testing.assert_allclose(dense_matrix(initial),
                                               dense_erasure(cfg_f)[0].matrix, rtol=0, atol=1e-15)

    def test_imperfect_initialization_mixes_preparation(self):
        cfg = dataclasses.replace(
            DEFAULT, theta_c=0.0,
            imperfections=Imperfections(init_fidelity=0.989))
        _, initial, _ = run_erasure(cfg)
        qubit = initial.reduced_qubit()
        assert abs(qubit[0] - 0.989) < 1e-12
        assert abs(qubit[1] - 0.011) < 1e-12

    def test_cooling_floor_applies(self):
        cfg = dataclasses.replace(
            DEFAULT, nbar0=0.01, imperfections=REALISTIC_IMPERFECTIONS)
        assert cfg.effective_nbar0 == 0.030
        ledger, _, _ = run_erasure(cfg)
        assert abs(ledger.e_initial - 0.030) < 1e-9

    def test_config_validation_names_keys(self):
        # every config is checked when it is built or replaced, before it runs
        with pytest.raises(ValueError, match="nbar0"):
            dataclasses.replace(DEFAULT, nbar0=-1.0)
        with pytest.raises(ValueError, match="shots"):
            ExperimentConfig(shots=-2)
        with pytest.raises(ValueError, match="init_fidelity"):
            ExperimentConfig(imperfections=Imperfections(init_fidelity=1.5))
        # non-finite values are named wherever they sit in the config
        for changes, key in (
            ({"nbar0": math.nan}, "nbar0"),
            ({"readout_span": math.inf}, "readout_span"),
            ({"t_pulse": math.inf}, "t_pulse"),
            ({"imperfections": Imperfections(cool_nbar=math.nan)}, "cool_nbar"),
        ):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                dataclasses.replace(DEFAULT, **changes)

    def test_negative_seed_names_key(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-5)

    def test_negative_pulse_length_names_key(self):
        with pytest.raises(ValueError, match="t_pulse must be >= 0"):
            ExperimentConfig(t_pulse=-1.0)

    def test_default_erasure_is_the_pi_pulse(self):
        assert DEFAULT.erasure_time == DEFAULT.pulse.t_op
        assert ExperimentConfig(t_pulse=10.0).erasure_time == 10.0


class TestSweepTemperature:
    def test_residual_small_on_every_row(self, temperature_rows):
        _, swept = temperature_rows
        for row in swept:
            assert abs(row.residual) < 1e-9

    def test_rows_carry_temperature_map(self, temperature_rows):
        grid, swept = temperature_rows
        for nbar, row in zip(grid, swept):
            assert abs(row.temperature - temperature_from_nbar(nbar)) < 1e-12
            assert row.value == row.temperature
            assert row.variable == "temperature"

    def test_correction_gap_grows_toward_low_temperature(self, temperature_rows):
        grid, swept = temperature_rows
        gaps = [(nbar, row.lhs - row.delta_s) for nbar, row in zip(grid, swept)
                if 0.03 <= nbar <= 1.0]
        assert all(gap > 0 for _, gap in gaps)
        # grid ascends in nbar (hence in T): the gap must descend
        values = [gap for _, gap in gaps]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_near_zero_temperature_row(self):
        rows = sweep_temperature(DEFAULT, [1e-8])
        assert abs(rows[0].delta_s - math.log(2)) < 1e-6
        assert abs(rows[0].residual) < 1e-9

    def test_rejects_nonpositive_nbar(self):
        for nbar in (0.0, math.inf, math.nan, 1e308):
            with pytest.raises(ValueError, match="nbar"):
                sweep_temperature(DEFAULT, [nbar])

    def test_residual_consistent_with_definition(self, temperature_rows):
        _, swept = temperature_rows
        for row in swept:
            assert abs(row.residual - (row.lhs - row.rhs)) < 1e-12


class TestSweepTheta:
    def test_max_entropy_decrease_at_half_pi(self, theta_rows):
        grid, swept = theta_rows
        best = max(swept, key=lambda row: row.delta_s)
        assert abs(best.value - math.pi / 2) < math.pi / 24 + 1e-12

    def test_sign_structure_matches_boundaries(self, theta_rows):
        grid, swept = theta_rows
        lo, hi = find_entropy_zero_crossings(DEFAULT)
        for row in swept:
            if lo + 0.01 < row.value < hi - 0.01:
                assert row.delta_s > 0
            elif row.value < lo - 0.01 or row.value > hi + 0.01:
                assert row.delta_s < 0

    def test_information_generated_with_heating_near_pi(self, theta_rows):
        _, swept = theta_rows
        last = swept[-1]
        assert last.value == math.pi
        assert last.delta_s < 0
        assert last.exact_mean_phonon - last.nbar0 > 0  # delta_q > 0

    def test_residuals(self, theta_rows):
        _, swept = theta_rows
        assert max(abs(row.residual) for row in swept) < 1e-9

    def test_rejects_out_of_range_theta(self):
        with pytest.raises(ValueError, match="theta"):
            sweep_theta(DEFAULT, [3.5])


class TestZeroCrossings:
    def test_boundaries_at_reference_occupation(self):
        lo, hi = find_entropy_zero_crossings(DEFAULT)
        assert 0.49 <= lo <= 0.59
        assert 2.76 <= hi <= 2.84

    def test_crossings_widen_as_reservoir_cools(self):
        lo1, hi1 = find_entropy_zero_crossings(
            dataclasses.replace(DEFAULT, nbar0=1e-4))
        assert lo1 < 0.05
        assert hi1 > 3.05

    def test_absent_at_zero_temperature(self):
        lo, hi = find_entropy_zero_crossings(dataclasses.replace(DEFAULT, nbar0=0.0))
        assert lo is None and hi is None

    def test_zero_temperature_ends_within_eps(self):
        # at theta_c = 0 and pi the qubit stays pure; roundoff (-1.6e-30 at
        # pi) is what the bisection reads as an exact zero
        for theta in (0.0, math.pi):
            ledger, _, _ = run_erasure(dataclasses.replace(DEFAULT, nbar0=0.0, theta_c=theta))
            assert abs(ledger.delta_s) <= np.finfo(float).eps

    def test_not_symmetric_about_half_pi(self):
        lo, hi = find_entropy_zero_crossings(DEFAULT)
        assert abs(lo - (math.pi - hi)) > 1e-3


class TestSimulatedReadout:
    def test_noiseless_round_trip(self):
        for nbar in (0.074, 0.3, 0.5):
            row = simulated_readout_run(dataclasses.replace(DEFAULT, nbar0=nbar))
            assert abs(row.fitted_mean_phonon - row.exact_mean_phonon) < 1e-3
            assert abs(row.fitted_mean_phonon_pre - row.exact_mean_phonon_pre) < 1e-3

    def test_noiseless_realistic_round_trip(self):
        # the fit models the detection error the data carries
        row = simulated_readout_run(
            dataclasses.replace(DEFAULT, imperfections=REALISTIC_IMPERFECTIONS))
        assert abs(row.fitted_mean_phonon - row.exact_mean_phonon) < 1e-4
        assert abs(row.fitted_mean_phonon_pre - row.exact_mean_phonon_pre) < 1e-4

    def test_heat_estimate_monte_carlo(self):
        ledger, _, _ = run_erasure(DEFAULT)
        estimates = []
        for seed in range(50):
            row = simulated_readout_run(
                dataclasses.replace(DEFAULT, shots=100, seed=1000 * seed))
            estimates.append(row.delta_q_estimate)
        assert abs(np.mean(estimates) - ledger.delta_q) < 0.05

    def test_probe_matches_fit_model(self):
        # a probe's trace is the model the fit inverts, so at n_max 3 (whose
        # top level |down,3> is dark to the exact blue-sideband trace) the
        # noiseless fits still recover the exact means
        row = simulated_readout_run(ExperimentConfig(nbar0=2.0, n_max=3))
        assert abs(row.fitted_mean_phonon_pre - row.exact_mean_phonon_pre) < 1e-6
        assert abs(row.fitted_mean_phonon - row.exact_mean_phonon) < 1e-6

    def test_both_probes_fit_one_cutoff(self, monkeypatch):
        # at nbar0 2 both fits take levels 0..default_n_fit(2) = 10, on the
        # one matrix fit_design_matrix built and checked
        import qlandauer.protocol as protocol_mod

        check, fit = protocol_mod.fit_design_matrix, protocol_mod.fit_phonon_populations
        built, fitted = [], []

        def checking(*args):
            built.append(check(*args))
            return built[-1]

        def fitting(a, p_down):
            fitted.append(a)
            return fit(a, p_down)

        monkeypatch.setattr(protocol_mod, "fit_design_matrix", checking)
        monkeypatch.setattr(protocol_mod, "fit_phonon_populations", fitting)
        simulated_readout_run(dataclasses.replace(DEFAULT, nbar0=2.0))
        assert [a.shape[1] for a in fitted] == [11, 11]
        assert len(built) == 1 and all(a is built[0] for a in fitted)

    @pytest.mark.parametrize("nbar", [1.0, 2.0, 3.0])
    def test_noiseless_heat_estimate(self, nbar):
        # both fits drop the thermal tail above the same n_fit, so their
        # truncation biases cancel in the heat
        row = simulated_readout_run(dataclasses.replace(DEFAULT, nbar0=nbar))
        exact = row.exact_mean_phonon - row.exact_mean_phonon_pre
        assert abs(row.delta_q_estimate - exact) < 0.01

    def test_detection_error_perturbs_populations_weakly(self):
        from qlandauer.readout import (
            default_n_fit, detection_flip, fit_design_matrix, fit_phonon_populations,
            model_trace)

        _, initial, final = run_erasure(DEFAULT)
        times = DEFAULT.readout_times()
        for state, expected_nbar in ((initial, 0.074), (final, 1.074)):
            clean = model_trace(state.reduced_fock(), DEFAULT.pulse, times)
            flipped = detection_flip(clean, 0.0022)
            a = fit_design_matrix(default_n_fit(expected_nbar), DEFAULT.pulse, times)
            base = fit_phonon_populations(a, clean)
            perturbed = fit_phonon_populations(a, flipped)
            assert np.max(np.abs(base.populations - perturbed.populations)) < 0.01

    @pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)])
    def test_readout_array_limit(self, extra, accepted, monkeypatch):
        import qlandauer.protocol as protocol_mod

        class ErasureReached(Exception):
            pass

        def no_erasure(config):
            raise ErasureReached

        monkeypatch.setattr(protocol_mod, "run_erasure", no_erasure)
        # n_max 9 and n_fit 8 give readout arrays of readout_points * 10 values
        cfg = dataclasses.replace(
            DEFAULT, n_max=9, readout_points=READOUT_CELLS_LIMIT // 10 + extra)
        if accepted:
            with pytest.raises(ErasureReached):
                simulated_readout_run(cfg)
        else:
            with pytest.raises(ValueError, match="readout_points = 1000001 .* above the limit"):
                simulated_readout_run(cfg)

    def test_model_error_reported(self):
        row = simulated_readout_run(DEFAULT)
        assert 0.0 < row.readout_model_error < 0.2

    def test_deterministic_given_seed(self):
        cfg = dataclasses.replace(DEFAULT, shots=100, seed=77)
        assert simulated_readout_run(cfg) == simulated_readout_run(cfg)
        other = simulated_readout_run(dataclasses.replace(cfg, seed=78))
        assert other.fitted_mean_phonon != simulated_readout_run(cfg).fitted_mean_phonon

    def test_design_matrix_built_and_checked_once(self, monkeypatch):
        import qlandauer.protocol as protocol_mod

        calls = {"svd": 0, "check": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(protocol_mod, "fit_design_matrix",
                            counted("check", protocol_mod.fit_design_matrix))
        simulated_readout_run(ExperimentConfig(shots=100))
        # one fit_design_matrix call builds and checks the matrix both fits
        # use, with the run's one SVD
        assert calls == {"svd": 1, "check": 1}


class TestDefaultGrids:
    """The sweep subcommands' default grids, read back from their tables."""

    @staticmethod
    def swept(subcommand, column, tmp_path):
        from qlandauer.cli import parse_and_dispatch

        out = tmp_path / "sweep.csv"
        assert parse_and_dispatch([subcommand, "-o", str(out)]) == 0
        _, rows = parse_sweep_table(out.read_text(encoding="utf-8"))
        return np.array([getattr(row, column) for row in rows])

    def test_nbar_grid_is_logarithmic(self, tmp_path):
        grid = self.swept("sweep-temp", "nbar0", tmp_path)
        assert len(grid) == 25
        assert abs(grid[0] - 0.01) < 1e-12 and abs(grid[-1] - 2.0) < 1e-12
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_theta_grid_is_linear(self, tmp_path):
        grid = self.swept("sweep-theta", "value", tmp_path)
        assert len(grid) == 49
        assert grid[0] == 0.0 and abs(grid[-1] - math.pi) < 1e-12
        np.testing.assert_allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-10)


class TestTableFormat:
    def test_round_trip(self):
        rows = sweep_theta(DEFAULT, np.linspace(0.0, math.pi, 5))
        text = format_sweep_table(rows, "# qlandauer sweep-theta")
        provenance, parsed = parse_sweep_table(text)
        assert provenance.startswith("# qlandauer sweep-theta")
        assert parsed == rows

    def test_round_trip_with_readout_fields(self):
        row = simulated_readout_run(dataclasses.replace(DEFAULT, shots=50))
        text = format_sweep_table([row], "# qlandauer readout")
        _, parsed = parse_sweep_table(text)
        assert parsed == [row]

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            parse_sweep_table("a,b,c\n1,2,3\n")
