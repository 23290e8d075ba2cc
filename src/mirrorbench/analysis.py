"""Decay fitting, bootstrap intervals, frame-potential estimation, scatter runs.

The survival data of a mirror experiment is fit to

    p(L) = A * u**(L - 1) + B,      B fixed to 1/2**n,

with inverse-variance weights from binomial standard errors.  The fitted ``u``
estimates the unitarity of the per-layer error channel; ``A`` absorbs state
preparation, measurement, and the first-layer contraction ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channels import Depolarizing, depolarizing_tensor_unitarity
from .circuits import sample_experiment
from .operators import CLIFFORD_UNITARIES
from .simulator import DecayDataset, NoiseModel, simulate_survival

SE_FLOOR = 1e-4
CI_PERCENTILES = (16.0, 84.0)
DEFAULT_RESAMPLES = 1000

_FIT_BLOCK = 1024  # rows fitted at once; bounds the (rows, grid) arrays
_U_GRID = np.linspace(0.0, 1.0, 257)
_GOLDEN_STEPS = 40  # shrink a grid bracket of width 2/256 below 1e-10
_NEWTON_STEPS = 3
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _as_rng(rng: Union[None, int, np.random.Generator]) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Result of the fixed-baseline exponential fit.

    ``bootstrap_ci`` is the 68% percentile interval for ``u`` when a bootstrap
    was run (``resamples`` then records the resample count).
    """

    amplitude: float
    u: float
    baseline: float
    residual_norm: float
    n_qubits: int
    degenerate: bool
    bootstrap_ci: Optional[tuple] = None
    resamples: Optional[int] = None
    ci_percentiles: tuple = CI_PERCENTILES

    def predict(self, length) -> np.ndarray:
        length = np.asarray(length, dtype=float)
        return self.amplitude * self.u ** (length - 1.0) + self.baseline


def _length_groups(dataset: DecayDataset) -> tuple:
    """Sorted lengths and, per length, the circuits' shot and success counts."""
    groups = {}
    for e in dataset.entries:
        groups.setdefault(e.length, []).append((e.shots, e.successes))
    lengths = sorted(groups)
    counts = [np.array(groups[length], dtype=np.int64) for length in lengths]
    return np.array(lengths, dtype=float), counts


def _pooled_se(p, total):
    """Pooled binomial standard error of survival ``p`` over ``total`` shots."""
    return np.maximum(np.sqrt(np.maximum(p * (1.0 - p), 0.0) / total), SE_FLOOR)


def survival_points(dataset: DecayDataset) -> tuple:
    """Aggregate a dataset into per-length survival estimates.

    Returns ``(lengths, p_hat, se)``: mean per-circuit success rate at each
    length and a pooled binomial standard error with a small floor.
    """
    lengths, counts = _length_groups(dataset)
    p_hat = np.array([(c[:, 1] / c[:, 0]).mean() for c in counts])
    total = np.array([c[:, 0].sum() for c in counts], dtype=float)
    return lengths, p_hat, _pooled_se(p_hat, total)


def _best_amplitude(num, den):
    """Best A in [0, 2] for ``num = sum(w y g)`` and ``den = sum(w g^2)``."""
    return np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 0.0, 2.0)


def _cost(a, g, w, y):
    """Weighted squared residuals per row, summed directly (no cancellation)."""
    r = y - a[:, None] * g
    return (w * r * r).sum(axis=1)


def _profile(u, ey, w, y):
    """``(A, u, cost)`` per row with A at its best for the row's ``u``.

    ``ey`` holds the exponents ``L - 1``.  For fixed u the model is linear
    in A, so the best A is the clipped weighted projection of y onto
    ``g = u**(L-1)``.
    """
    g = u[:, None] ** ey
    a = _best_amplitude((w * y * g).sum(axis=1), (w * g * g).sum(axis=1))
    return a, u, _cost(a, g, w, y)


def _lower(fit, candidate):
    """Per row, whichever ``(A, u, cost)`` triple has the lower cost."""
    better = candidate[2] < fit[2]
    return tuple(np.where(better, new, old) for new, old in zip(candidate, fit))


def _fit_block(ey, powers, w, y) -> tuple:
    """Fit one block of rows; see ``_fit_rows``."""
    # 1. profile cost on the grid; the constant sum(w y^2) is left out, so
    #    this expanded form only ranks grid points
    num = (w * y) @ powers.T
    den = w @ (powers * powers).T
    a = _best_amplitude(num, den)
    best = np.argmin(a * (a * den - 2.0 * num), axis=1)
    lo = _U_GRID[np.maximum(best - 1, 0)]
    hi = _U_GRID[np.minimum(best + 1, len(_U_GRID) - 1)]
    # 2. golden-section search in each row's bracket [lo, hi]
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = _profile(c, ey, w, y)[2]
    fd = _profile(d, ey, w, y)[2]
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd  # the minimum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        probe = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fprobe = _profile(probe, ey, w, y)[2]
        c, d, fc, fd = (np.where(left, probe, d), np.where(left, c, probe),
                        np.where(left, fprobe, fd), np.where(left, fc, fprobe))
    fit = _profile(np.where(fc < fd, c, d), ey, w, y)
    for edge in (0.0, 1.0):
        fit = _lower(fit, _profile(np.full(len(y), edge), ey, w, y))
    # 3. Gauss-Newton steps on (A, u), kept only where the cost falls
    dexp = np.maximum(ey - 1.0, 0.0)
    for _ in range(_NEWTON_STEPS):
        a, u, _ = fit
        ja = u[:, None] ** ey
        ju = a[:, None] * ey * u[:, None] ** dexp
        r = y - a[:, None] * ja
        h11 = (w * ja * ja).sum(axis=1)
        h12 = (w * ja * ju).sum(axis=1)
        h22 = (w * ju * ju).sum(axis=1)
        b1 = (w * ja * r).sum(axis=1)
        b2 = (w * ju * r).sum(axis=1)
        det = h11 * h22 - h12 * h12
        ok = det > 1e-12 * h11 * h22  # singular where A = 0 or g = 0
        det = np.where(ok, det, 1.0)
        a_new = np.clip(a + (h22 * b1 - h12 * b2) / det, 0.0, 2.0)
        u_new = np.clip(u + (h11 * b2 - h12 * b1) / det, 0.0, 1.0)
        cost_new = np.where(ok, _cost(a_new, u_new[:, None] ** ey, w, y), np.inf)
        fit = _lower(fit, (a_new, u_new, cost_new))
    return fit


def _fit_rows(lengths: np.ndarray, p_hat: np.ndarray, se: np.ndarray,
              baseline: float) -> tuple:
    """Weighted least squares for (A, u) of every row of ``p_hat``.

    Minimises ``sum(((A u**(L-1) + B - p_hat) / se)**2)`` over A in [0, 2]
    and u in [0, 1] for each row of the ``(rows, lengths)`` arrays.  The
    search is over u alone, with A at its closed-form best for each u: a
    fixed grid over [0, 1] brackets the minimum, golden-section steps
    narrow it, the ends u = 0 and u = 1 are tried, and Gauss-Newton steps
    on (A, u) polish the result.  Returns the arrays ``(A, u, cost)``.
    """
    ey = np.asarray(lengths, dtype=float) - 1.0
    y = np.atleast_2d(p_hat) - baseline
    w = 1.0 / np.atleast_2d(se) ** 2
    powers = _U_GRID[:, None] ** ey
    parts = [_fit_block(ey, powers, w[i:i + _FIT_BLOCK], y[i:i + _FIT_BLOCK])
             for i in range(0, len(y), _FIT_BLOCK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def fit_decay(dataset: DecayDataset, resamples: Optional[int] = None,
              rng: Union[None, int, np.random.Generator] = None) -> FitResult:
    """Fit the survival decay; optionally attach a bootstrap CI for u.

    The fit is deterministic (see ``_fit_rows``).  A dataset whose
    per-length survivals are flat within errors (zero noise, or fully
    depolarized to the baseline) carries no decay information; the result
    is then flagged ``degenerate``.
    """
    lengths, p_hat, se = survival_points(dataset)
    if len(lengths) < 2:
        raise ValueError("need at least two distinct lengths to fit")
    baseline = 1.0 / 2 ** dataset.n_qubits
    amplitude, u, cost = _fit_rows(lengths, p_hat, se, baseline)
    degenerate = bool(p_hat.max() - p_hat.min() <= 3.0 * se.max())
    result = FitResult(
        amplitude=float(amplitude[0]), u=float(u[0]), baseline=baseline,
        residual_norm=math.sqrt(cost[0]), n_qubits=dataset.n_qubits,
        degenerate=degenerate,
    )
    if resamples:
        ci = bootstrap_ci(dataset, resamples=resamples, rng=rng)
        result = replace(result, bootstrap_ci=ci, resamples=int(resamples))
    return result


def _resample_points(counts: list, resamples: int,
                     rng: np.random.Generator) -> tuple:
    """Bootstrap survival estimates, one row per resample.

    Per length: redraw the circuits with replacement, ``(resamples,
    circuits)`` indices, then each chosen circuit's counts binomially.
    Returns ``(p_hat, se)`` of shape ``(resamples, lengths)``.
    """
    p_hat = np.empty((resamples, len(counts)))
    se = np.empty_like(p_hat)
    for i, c in enumerate(counts):
        picks = rng.integers(0, len(c), size=(resamples, len(c)))
        shots = c[picks, 0]
        rates = rng.binomial(shots, (c[:, 1] / c[:, 0])[picks]) / shots
        p_hat[:, i] = rates.mean(axis=1)
        se[:, i] = _pooled_se(p_hat[:, i], shots.sum(axis=1))
    return p_hat, se


def bootstrap_ci(dataset: DecayDataset, resamples: int = DEFAULT_RESAMPLES,
                 rng: Union[None, int, np.random.Generator] = None,
                 percentiles: tuple = CI_PERCENTILES) -> tuple:
    """Percentile bootstrap interval for u.

    Each resample redraws circuits per length with replacement and redraws
    each chosen circuit's counts binomially.  All resamples are drawn first
    and then fitted together, so the interval depends only on the seed.
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = _as_rng(rng)
    lengths, counts = _length_groups(dataset)
    if len(lengths) < 2:
        raise ValueError("need at least two distinct lengths")
    p_hat, se = _resample_points(counts, int(resamples), rng)
    _, us, _ = _fit_rows(lengths, p_hat, se, 1.0 / 2 ** dataset.n_qubits)
    lo, hi = np.percentile(us, percentiles)
    return (float(lo), float(hi))


# ---------------------------------------------------------------------------
# Frame potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FramePotentialEstimate:
    """Monte Carlo estimate of Phi_2 = E |Tr U|^4 over L-layer circuits."""

    n_qubits: int
    length: int
    samples: int
    phi2: float
    std_error: float


def _layer_batch_apply(unitaries: np.ndarray, rng: np.random.Generator,
                       bits: np.ndarray) -> np.ndarray:
    """Apply one random layer (Cliffords + random-matching UZZ) to a batch.

    Draw order (stable, relied on by tests): Clifford indices with
    ``rng.integers(0, 24, size=(m, n))``, then a qubit permutation per sample
    with ``rng.permuted`` whose consecutive entries form the matching.
    """
    m, d, _ = unitaries.shape
    n = bits.shape[1]
    idx = rng.integers(0, 24, size=(m, n))
    perm = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    for q in range(n):
        g = CLIFFORD_UNITARIES[idx[:, q]]
        s1 = 1 << q
        s2 = d >> (q + 1)
        unitaries = np.matmul(
            g[:, None, :, :], unitaries.reshape(m, s1, 2, s2 * d)
        ).reshape(m, d, d)
    pairs_a = perm[:, 0::2]
    pairs_b = perm[:, 1::2]
    cnt = (bits[:, pairs_a] ^ bits[:, pairs_b]).sum(axis=2)  # (d, m)
    phase = np.exp(-1j * np.pi / 4.0 * (pairs_a.shape[1] - 2 * cnt))
    unitaries *= phase.T[:, :, None]
    return unitaries


def frame_potential(n_qubits: int, length: int, samples: int,
                    rng: Union[None, int, np.random.Generator] = None
                    ) -> FramePotentialEstimate:
    """Estimate Phi_2 of the L-layer ensemble; 2 marks a unitary 2-design.

    ``length == 0`` is the trivial ensemble {identity} with Phi_2 = d^4
    exactly.  Limited to n <= 8.
    """
    return frame_potential_profile(n_qubits, (length,), samples, rng)[0]


def frame_potential_profile(n_qubits: int, lengths: Sequence[int], samples: int,
                            rng: Union[None, int, np.random.Generator] = None
                            ) -> list:
    """Estimate Phi_2 at several lengths from common sample paths.

    One set of circuits of depth max(lengths) is sampled; each requested
    length is evaluated on the corresponding prefix.  Sharing paths gives
    every length the full sample budget in a single pass and correlates
    adjacent estimates, which stabilizes the shape of the curve.
    """
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError("n_qubits must be even and >= 2")
    if n_qubits > 8:
        raise ValueError("frame_potential limited to n <= 8")
    if samples < 2:
        raise ValueError("need at least two samples")
    lengths = [int(x) for x in lengths]
    if any(x < 0 for x in lengths):
        raise ValueError("lengths must be non-negative")
    d = 2 ** n_qubits
    max_len = max(lengths)
    wanted = sorted(set(x for x in lengths if x > 0))
    sums = {x: 0.0 for x in wanted}
    sq_sums = {x: 0.0 for x in wanted}
    rng = _as_rng(rng)
    bits = ((np.arange(d)[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1)
    block = max(16, min(samples, (1 << 22) // (d * d)))
    remaining = samples
    while remaining > 0 and wanted:
        m = min(block, remaining)
        unitaries = np.tile(np.eye(d, dtype=complex), (m, 1, 1))
        for depth in range(1, max_len + 1):
            unitaries = _layer_batch_apply(unitaries, rng, bits)
            if depth in sums:
                values = np.abs(np.einsum("bii->b", unitaries)) ** 4
                sums[depth] += float(values.sum())
                sq_sums[depth] += float((values * values).sum())
        remaining -= m
    out = []
    for x in lengths:
        if x == 0:
            out.append(FramePotentialEstimate(n_qubits, 0, samples, float(d) ** 4, 0.0))
            continue
        mean = sums[x] / samples
        var = max(sq_sums[x] / samples - mean * mean, 0.0) * samples / (samples - 1)
        out.append(FramePotentialEstimate(
            n_qubits, x, samples, float(mean), float(math.sqrt(var / samples))))
    return out


# ---------------------------------------------------------------------------
# Scatter experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterPoint:
    """One simulated experiment: noise strength, true and fitted unitarity."""

    p: float
    u_true: float
    u_est: float


def scatter_experiment(n_qubits: int, num_experiments: int, p_max: float,
                       rng: Union[None, int, np.random.Generator] = None,
                       lengths: Sequence[int] = (4, 8, 12, 16),
                       circuits_per_length: int = 10, shots: int = 100,
                       jobs: int = 1) -> list:
    """Simulate fitted-vs-true unitarity pairs under two-qubit depolarizing noise.

    Each experiment draws ``p`` uniformly in ``[0, p_max]``, runs the standard
    design (lengths x circuits at ``shots`` shots), fits the decay, and pairs
    the fitted ``u`` with ``u_true = depolarizing_tensor_unitarity(p, n/2)``.
    """
    if n_qubits % 2:
        raise ValueError("n_qubits must be even")
    rng = _as_rng(rng)
    points = []
    for _ in range(num_experiments):
        p = float(rng.uniform(0.0, p_max))
        gen_seed = int(rng.integers(0, 2 ** 63 - 1))
        sim_seed = int(rng.integers(0, 2 ** 63 - 1))
        specs = sample_experiment(gen_seed, n_qubits, lengths, circuits_per_length)
        noise = NoiseModel(two_qubit=Depolarizing(p))
        dataset = simulate_survival(specs, noise, shots, rng=sim_seed, jobs=jobs)
        fit = fit_decay(dataset)
        points.append(
            ScatterPoint(p, depolarizing_tensor_unitarity(p, n_qubits // 2), fit.u)
        )
    return points
