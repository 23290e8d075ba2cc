"""Decay fitting, bootstrap intervals, frame-potential estimation, scatter runs.

The survival data of a mirror experiment is fit to

    p(L) = A * u**(L - 1) + B,      B fixed to 1/2**n,

with inverse-variance weights from binomial standard errors.  The fitted ``u``
estimates the unitarity of the per-layer error channel; ``A`` absorbs state
preparation, measurement, and the first-layer contraction ``f``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channels import Depolarizing, depolarizing_tensor_unitarity
from .circuits import sample_experiment
from .operators import _LETTER_MASKS, _letter_step, _uzz_step
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


# ``_LETTER_MASKS`` as uint64, one row per mask and one column per Clifford
_LETTER_MASK_ROWS = np.array(_LETTER_MASKS, dtype=np.int64).view(np.uint64).T.copy()


def _transpose_bits(masks: np.ndarray, width: int) -> np.ndarray:
    """Swap the row axis of ``(rows, m)`` bitmasks with their bit axis.

    Bit r of ``out[f, s]`` is bit f of ``masks[r, s]``; ``out`` has ``width`` rows.
    """
    shifts = np.arange(width, dtype=np.uint64)[:, None]
    out = np.zeros((width, masks.shape[1]), dtype=np.uint64)
    for r, row in enumerate(masks):
        out |= ((row >> shifts) & 1) << r
    return out


class _SampledCliffords:
    """The images of the Pauli generators under m sampled Cliffords, bit-packed.

    ``ZObservables``' layout over the 2n generators X_0..X_{n-1},
    Z_0..Z_{n-1}: bit j of ``x[p, s]`` and ``z[p, s]`` is the X and Z part,
    at physical qubit p, of ``U_s g_j U_s^dagger`` in Hermitian letters, and
    bit j of ``signs[s]`` marks a minus sign.  Every sample starts at the
    identity.
    """

    def __init__(self, n_qubits: int, samples: int):
        self.generators = np.uint64(1) << np.arange(2 * n_qubits, dtype=np.uint64)
        self.x = np.repeat(self.generators[:n_qubits, None], samples, axis=1)
        self.z = np.repeat(self.generators[n_qubits:, None], samples, axis=1)
        self.signs = np.zeros(samples, dtype=np.uint64)

    def apply_layer(self, rng: np.random.Generator) -> None:
        """Append one random layer: Cliffords, then UZZ on a random matching."""
        n, m = self.x.shape
        idx = rng.integers(0, 24, size=(m, n))
        perm = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        for p in range(n):
            self.x[p], self.z[p], flips = _letter_step(
                self.x[p], self.z[p], *_LETTER_MASK_ROWS[:, idx[:, p]])
            self.signs ^= flips
        cols = np.arange(m)
        for a, b in zip(perm[:, 0::2].T, perm[:, 1::2].T):
            t, flips = _uzz_step(self.x[a, cols], self.z[a, cols],
                                 self.x[b, cols], self.z[b, cols])
            self.z[a, cols] ^= t
            self.z[b, cols] ^= t
            self.signs ^= flips

    def trace_squared(self) -> np.ndarray:
        """``|Tr U|^2`` of every sample: an exact power of two, or 0.

        ``|Tr U|^2 = 2^-n sum_P Tr(U P U^dagger P)``, and a Pauli P adds to
        the sum only if U fixes it, ``U P U^dagger = +/-P``.  The fixed
        Paulis are the kernel of S + I, S being U's symplectic matrix, and
        their signs are a character on it: the sum is ``2^dim ker(S+I)`` if
        U keeps the sign of every kernel basis element, and 0 otherwise
        (Dehaene & De Moor, PRA 68, 042318).
        """
        n, m = self.x.shape
        gens = self.generators[:, None]
        # Row X_p (Z_p) of S + I: the generators whose image has an X (Z)
        # part at qubit p, XOR the generator X_p (Z_p) itself.
        rows = np.concatenate([self.x, self.z]) ^ gens
        # Reduced row echelon form, column by column.  A column's pivot row
        # leaves ``rows`` for ``pivots`` (zero where the column is free).
        pivots = np.zeros_like(rows)
        cols = np.arange(m)
        for c in range(2 * n):
            hit = (rows & gens[c]) != 0
            pivot = rows[hit.argmax(axis=0), cols] * hit.any(axis=0)
            rows ^= pivot * hit
            pivots ^= pivot * ((pivots & gens[c]) != 0)
            pivots[c] = pivot
        free = pivots == 0
        # Free column f gives the kernel vector v_f: f and every pivot column
        # whose pivot row holds f.
        basis = _transpose_bits(pivots, 2 * n) | gens
        # Image j is i^phase[j] X^x_img[j] Z^z_img[j]: an i per Y letter, -1
        # per minus sign.  The generators of any v multiply, in ascending
        # order, to X^vx Z^vz with phase 1, so U keeps the sign of that Pauli
        # iff the images of v multiply, in the same order, to phase 1.
        x_img = _transpose_bits(self.x, 2 * n)
        z_img = _transpose_bits(self.z, 2 * n)
        minus = ((self.signs & gens) != 0).view(np.uint8)
        phase = np.bitwise_count(x_img & z_img) + 2 * minus
        total = np.zeros(basis.shape, dtype=np.uint8)  # phases add mod 4
        z_held = np.zeros_like(basis)
        for j in range(2 * n):
            held = ((basis >> j) & 1).astype(np.uint8)
            total += held * (phase[j] + 2 * np.bitwise_count(z_held & x_img[j]))
            z_held ^= held * z_img[j]
        keeps = (total % 4 == 0) | ~free
        return np.where(keeps.all(axis=0), 1 << free.sum(axis=0), 0)


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

    Each circuit is tracked by the images of the Pauli generators
    (``_SampledCliffords``), and ``|Tr U|^2`` comes from GF(2) elimination,
    so every ``|Tr U|^4`` is an exact power of two and the sums are exact.

    Draw order (stable, relied on by tests): samples are drawn in blocks of
    ``max(16, min(samples, 2**22 // 4**n))`` (the last block takes the
    rest).  Per block and per layer, the Clifford indices come from
    ``rng.integers(0, 24, size=(m, n))``, then a qubit permutation per
    sample from ``rng.permuted`` of ``(m, n)`` rows of ``arange(n)``, whose
    consecutive entries form the matching.
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
    tallies = {x: Counter() for x in lengths if x > 0}  # |Tr U|^2 -> samples
    rng = _as_rng(rng)
    block = max(16, min(samples, (1 << 22) // (d * d)))
    remaining = samples
    while remaining > 0 and tallies:
        m = min(block, remaining)
        cliffords = _SampledCliffords(n_qubits, m)
        for depth in range(1, max_len + 1):
            cliffords.apply_layer(rng)
            if depth in tallies:
                values, counts = np.unique(cliffords.trace_squared(), return_counts=True)
                tallies[depth].update(dict(zip(values.tolist(), counts.tolist())))
        remaining -= m
    out = []
    for x in lengths:
        if x == 0:
            out.append(FramePotentialEstimate(n_qubits, 0, samples, float(d) ** 4, 0.0))
            continue
        total = sum(count * value ** 2 for value, count in tallies[x].items())
        total_sq = sum(count * value ** 4 for value, count in tallies[x].items())
        var_of_mean = ((samples * total_sq - total * total)
                       / (samples * samples * (samples - 1)))
        out.append(FramePotentialEstimate(
            n_qubits, x, samples, total / samples, math.sqrt(var_of_mean)))
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
