"""Simulated measurement chain for the phonon-number probe.

A blue-sideband pulse of variable length maps phonon populations onto the
qubit excitation probability; the populations are then recovered from the
time trace by least squares over the probability simplex, with the sideband
frequencies eta*Omega*sqrt(n+1) held fixed (calibrated, not fitted).  A
trace is a plain array of qubit-down probabilities, one per readout time;
the caller holds the times and passes them to each function that needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ion import JointState, PulseParams, sideband_half_angles

FIT_MAX_ITERATIONS = 100_000
FIT_OBJECTIVE_TOL = 1e-14
FIT_DISPLACEMENT_TOL = 1e-11


@dataclass(frozen=True)
class PhononFit:
    """Recovered phonon distribution and its first moment."""

    populations: np.ndarray     # p_0 .. p_{n_fit}, on the simplex
    mean_phonon: float
    residual_norm: float        # RMS of model - data
    converged: bool = True

    def __post_init__(self):
        pops = np.array(self.populations, dtype=float)
        pops.flags.writeable = False
        object.__setattr__(self, "populations", pops)


def default_n_fit(nbar_expected: float) -> int:
    """Fit cutoff heuristic: max(8, ceil(5 * expected mean occupation))."""
    return max(8, math.ceil(5.0 * nbar_expected))


def exact_trace(rho: JointState, p: PulseParams, times) -> np.ndarray:
    """Noiseless qubit-down population under the blue sideband, per time.

    The blue drive rotates the pairs (|down,n>, |up,n+1>) (|down,n_max> is
    dark), whose coherences a JointState never holds, so only populations
    enter, residual up population included:

        p_down(t) = sum_{n<n_max} [c_n^2 rho(dn,dn) + s_n^2 rho(u n+1,u n+1)]
                    + rho(d n_max,d n_max)

    with c_n, s_n the cosine and sine of sideband_half_angles at t.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("readout times must be >= 0")
    half_angles = sideband_half_angles(p, rho.n_max, times[:, None])
    pops = rho.populations
    values = (np.cos(half_angles)**2 @ pops[0, :-1] + np.sin(half_angles)**2 @ pops[1, 1:]
              + pops[0, -1])
    return np.clip(values, 0.0, 1.0)


def model_trace(populations, p: PulseParams, times, gamma0: float = 0.0,
                alpha: float = 0.7) -> np.ndarray:
    """Incoherent-sum model trace for a qubit starting in |down>:

        p_down(t) = sum_n p_n [1 + cos(eta*Omega*sqrt(n+1) t) e^{-gamma_n t}] / 2

    with per-level decay gamma_n = gamma0 * (n+1)^alpha; gamma0 = 0 means
    no decay at any alpha.
    """
    pops = np.asarray(populations, dtype=float)
    if np.any(pops < -1e-12) or abs(pops.sum() - 1.0) > 1e-9:
        raise ValueError("populations must be a probability vector")
    a = _design_matrix(len(pops) - 1, p, times, gamma0, alpha)
    return np.clip(a @ pops, 0.0, 1.0)


def sample_shots(p_down: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Replace each point by a binomial draw divided by the shot count."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    return rng.binomial(shots, p_down) / shots


def detection_flip(p_down: np.ndarray, epsilon: float) -> np.ndarray:
    """Symmetric misclassification: p -> (1 - eps) p + eps (1 - p)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return (1.0 - epsilon) * p_down + epsilon * (1.0 - p_down)


def fit_phonon_populations(times, p_down, p: PulseParams, n_fit: int,
                           gamma0: float = 0.0, alpha: float = 0.7) -> PhononFit:
    """Least-squares phonon populations over the probability simplex.

    Minimizes ||model(p_vec) - p_down||_2 over the trace taken at ``times``,
    subject to p_n >= 0, sum p_n = 1, via projected gradient descent (fixed
    step 1/L, no momentum) on the fixed cosine design matrix.
    The problem is a small convex QP.  The solver converges once a step both
    improves the objective by less than FIT_OBJECTIVE_TOL and moves every
    population by less than FIT_DISPLACEMENT_TOL; after FIT_MAX_ITERATIONS
    steps without that, the result is flagged non-converged and carries the
    last iterate.  Neither rule certifies optimality.
    """
    times = np.asarray(times, dtype=float)
    p_down = np.asarray(p_down, dtype=float)
    if times.shape != p_down.shape:
        raise ValueError(f"times and p_down differ in shape: {times.shape} and {p_down.shape}")
    if n_fit < 1:
        raise ValueError(f"n_fit must be >= 1, got {n_fit}")
    if len(times) < n_fit + 1:
        raise ValueError(
            f"trace has {len(times)} points, fewer than n_fit + 1 = {n_fit + 1}"
        )
    a = _design_matrix(n_fit, p, times, gamma0, alpha)
    pops, converged = _simplex_least_squares(a, p_down)
    resid = a @ pops - p_down
    return PhononFit(
        populations=pops,
        mean_phonon=float(np.dot(np.arange(n_fit + 1), pops)),
        residual_norm=float(np.sqrt(np.mean(resid**2))),
        converged=converged,
    )


def _design_matrix(n_fit: int, p: PulseParams, times: np.ndarray,
                   gamma0: float, alpha: float) -> np.ndarray:
    t = np.asarray(times, dtype=float)[:, None]
    angles = 2.0 * sideband_half_angles(p, n_fit + 1, t)
    if gamma0 == 0:
        return (1.0 + np.cos(angles)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-gamma0 * (np.arange(n_fit + 1) + 1.0) ** alpha * t)
    if not np.isfinite(envelope).all():
        raise ValueError(f"gamma0 = {gamma0} and decay_alpha = {alpha} give a non-finite "
                         f"decay envelope gamma0 * (n+1)^decay_alpha * t")
    return (1.0 + np.cos(angles) * envelope) / 2.0


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, len(v) + 1)
    rho = k[u - css / k > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _simplex_least_squares(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """min 0.5 ||a x - y||^2 over the simplex, by projected gradient descent.

    Step 1/L with L the largest eigenvalue of a.T a makes every iteration a
    strict descent, so the objective-improvement criterion is sound; the
    displacement gate keeps nearly-flat directions iterating until the
    projected-gradient fixed point is reached to parameter accuracy far
    beyond the round-trip requirement.
    """
    ata = a.T @ a
    aty = a.T @ y
    step = 1.0 / float(np.linalg.eigvalsh(ata)[-1])

    def objective(x):
        r = a @ x - y
        return 0.5 * float(r @ r)

    x = np.full(a.shape[1], 1.0 / a.shape[1])
    f_x = objective(x)
    for _ in range(FIT_MAX_ITERATIONS):
        x_new = project_to_simplex(x - step * (ata @ x - aty))
        f_new = objective(x_new)
        displacement = float(np.max(np.abs(x_new - x)))
        improvement = f_x - f_new
        x, f_x = x_new, f_new
        if improvement < FIT_OBJECTIVE_TOL and displacement < FIT_DISPLACEMENT_TOL:
            return x, True
    return x, False
