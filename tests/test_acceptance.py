"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from oracle import blue_sideband_hamiltonian, expm_i_hermitian, red_sideband_hamiltonian
from qlandauer.cli import parse_and_dispatch
from qlandauer.info import temperature_from_nbar
from qlandauer.ion import jc_block_unitary, n_max_for_nbar
from qlandauer.protocol import (
    ExperimentConfig,
    find_entropy_zero_crossings,
    run_erasure,
)
from qlandauer.readout import (
    fit_design_matrix, fit_phonon_populations, model_trace, sample_shots)

DEFAULT = ExperimentConfig()

THETA_GRID = [k * math.pi / 12 for k in range(13)]
NBAR_GRID = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
T_FACTORS = [0.0, 0.5, 1.0, 2.0]


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def equality_grid():
    """Every ledger over the full theta x nbar x duration grid, timed."""
    t_op = DEFAULT.t_op
    start = time.perf_counter()
    ledgers = []
    for theta in THETA_GRID:
        for nbar in NBAR_GRID:
            for factor in T_FACTORS:
                cfg = dataclasses.replace(
                    DEFAULT, theta_c=theta, nbar0=nbar, t_pulse=factor * t_op)
                ledger, _, _ = run_erasure(cfg)
                ledgers.append(ledger)
    elapsed = time.perf_counter() - start
    return ledgers, elapsed


def test_criterion_1_equality_residual(equality_grid):
    ledgers, elapsed = equality_grid
    worst = max(abs(ledger.residual) for ledger in ledgers)
    ok = worst < 1e-9 and elapsed < 10.0
    print(f"  [grid of {len(ledgers)} points: worst residual {worst:.3e}, "
          f"{elapsed:.2f} s]")
    report(1, "equality residual on full grid", ok)


def test_criterion_2_landauer_bound(equality_grid):
    ledgers, _ = equality_grid
    ok = all(ledger.lhs - ledger.delta_s >= -1e-10 for ledger in ledgers)
    report(2, "entropy decrease never exceeds heat over temperature", ok)


def test_criterion_3_zero_temperature_limits():
    cfg = dataclasses.replace(DEFAULT, nbar0=1e-8)
    ledger, _, _ = run_erasure(cfg)
    ok = abs(ledger.delta_s - math.log(2)) < 1e-6 and ledger.mutual_info < 1e-6
    print(f"  [delta_s - ln2 = {ledger.delta_s - math.log(2):.3e}, "
          f"I = {ledger.mutual_info:.3e}]")
    report(3, "zero-temperature limit", ok)


def test_criterion_4_entropy_boundary_points():
    start = time.perf_counter()
    theta_low, theta_high = find_entropy_zero_crossings(DEFAULT)
    elapsed = time.perf_counter() - start
    ok = (theta_low is not None and 0.49 <= theta_low <= 0.59
          and theta_high is not None and 2.76 <= theta_high <= 2.84
          and elapsed < 5.0)
    print(f"  [crossings {theta_low:.4f}, {theta_high:.4f}; {elapsed:.2f} s]")
    report(4, "entropy-decrease boundary points", ok)


def test_criterion_5_temperature_mapping():
    micro_kelvin = temperature_from_nbar(0.074) * 48.5
    ok = 17.4 <= micro_kelvin <= 19.0
    print(f"  [T(0.074) = {micro_kelvin:.2f} uK]")
    report(5, "temperature mapping", ok)


def test_criterion_6_closed_form_vs_matrix_exponential():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        # a calibration drawn as (eta, Omega) is the pi-pulse time pi/(eta Omega)
        t_op = math.pi / (float(rng.uniform(0.02, 0.3)) * float(rng.uniform(0.2, 3.0)))
        rng.uniform(-math.pi, math.pi)  # the drive phase draw, kept so later draws stay the same
        t = float(rng.uniform(0.0, 150.0))
        n_max = int(rng.integers(1, 10))
        kind, builder = (
            ("red", red_sideband_hamiltonian) if rng.integers(2) == 0
            else ("blue", blue_sideband_hamiltonian))
        diff = np.linalg.norm(
            jc_block_unitary(kind, t_op, n_max, t)
            - expm_i_hermitian(builder(t_op, n_max), t), 2)
        worst = max(worst, diff)
    ok = worst < 1e-10
    print(f"  [worst operator-norm difference over 100 draws: {worst:.3e}]")
    report(6, "closed-form unitaries match matrix exponentials", ok)


def test_criterion_7_readout_round_trip_and_monte_carlo():
    start = time.perf_counter()
    t_op = DEFAULT.t_op
    times = DEFAULT.readout_times()

    # noiseless: any 4-support distribution returns within 1e-6 elementwise
    rng = np.random.default_rng(123)
    a = fit_design_matrix(4, t_op, times)
    worst = 0.0
    for _ in range(25):
        pops = np.append(rng.dirichlet(np.ones(4)), 0.0)
        p_down = model_trace(pops, t_op, times)
        fit = fit_phonon_populations(a, p_down)
        worst = max(worst, float(np.max(np.abs(fit.populations - pops))))
    round_trip_ok = worst < 1e-6

    # 100-shot Monte Carlo on the cold thermal state, 4-support cutoff
    nbar = 0.074
    n_max = n_max_for_nbar(nbar)
    from qlandauer.ion import thermal_state

    pops = np.array(thermal_state(nbar, n_max).matrix.diagonal().real)
    pops /= pops.sum()
    truth = float(np.dot(np.arange(len(pops)), pops))
    clean = model_trace(pops, t_op, times)
    a = fit_design_matrix(3, t_op, times)
    estimates = []
    for seed in range(50):
        noisy = sample_shots(clean, 100, seed)
        estimates.append(fit_phonon_populations(a, noisy).mean_phonon)
    bias = abs(float(np.mean(estimates)) - truth)
    spread = float(np.std(estimates))
    elapsed = time.perf_counter() - start
    ok = round_trip_ok and bias < 0.03 and spread < 0.1 and elapsed < 60.0
    print(f"  [round-trip worst {worst:.2e}; MC bias {bias:.4f}, "
          f"spread {spread:.4f}; {elapsed:.2f} s]")
    report(7, "readout round trip and shot-noise recovery", ok)


def test_criterion_8_erasure_quality():
    cfg = dataclasses.replace(DEFAULT, nbar0=0.03)
    _, _, final = run_erasure(cfg)
    down = final.reduced_qubit()[0]
    ok = down > 0.95
    print(f"  [final down population {down:.4f}]")
    report(8, "erasure polarizes the qubit", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    args = ["readout", "--shots", "100", "--seed", "11"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = parse_and_dispatch(args + ["--output", str(out_a)])
    code_b = parse_and_dispatch(args + ["--output", str(out_b)])
    capsys.readouterr()
    ok = code_a == 0 and code_b == 0 and out_a.read_bytes() == out_b.read_bytes()
    report(9, "identical config and seed give identical bytes", ok)
