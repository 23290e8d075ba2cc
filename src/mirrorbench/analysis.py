"""Decay fitting, bootstrap intervals, frame-potential estimation, scatter runs.

The survival data of a mirror experiment is fit to

    p(L) = A * u**(L - 1) + B,      B fixed to 1/2**n,

with inverse-variance weights from binomial standard errors.  The fitted ``u``
is the decay rate of these circuits' mean survival; ``A`` absorbs state
preparation, measurement, and the first-layer contraction ``f``.  For
two-qubit depolarizing noise ``u`` matches the unitarity's closed form
(``depolarizing_tensor_unitarity``) within its error bars; for coherent
errors it does not, since each layer is twirled one qubit at a time, not by
a 2-design.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channels import Depolarizing, depolarizing_tensor_unitarity
from .circuits import _as_rng, _experiment_seeds, _integer, mirror_circuit_stack
from .operators import _LETTER_MASK_ROWS
from .simulator import _QUBIT_LIMITS, DecayDataset, NoiseModel, _stack_counts

SE_FLOOR = 1e-4
CI_PERCENTILES = (16.0, 84.0)
DEFAULT_RESAMPLES = 1000
FRAME_POTENTIAL_QUBIT_LIMIT = 8  # largest n the frame potential accepts

_FIT_BLOCK = 1024  # rows fitted at once; bounds the (rows, lengths) arrays
# rows ranked on the u grid at once: each (rows, grid) temporary is 131 KB
_GRID_ROWS = 64
# round-qubit cells of the circuits a scatter study compiles and holds at
# once, so that its memory does not grow with the number of experiments: 10
# experiments of the default design at n = 4 (batches of 100 circuits, which
# compiled fastest; 40 experiments ran slower), and at least one
_SCATTER_CELLS = 1 << 14
_U_GRID = np.linspace(0.0, 1.0, 257)
_GOLDEN_STEPS = 40  # shrink a grid bracket of width 2/256 below 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# numpy sums a contiguous row of this many terms or more pairwise, not left
# to right
_PAIRWISE_TERMS = 8


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Result of the fixed-baseline exponential fit.

    ``bootstrap_ci`` is the 68% percentile interval for ``u``, from the 16th
    to the 84th percentile (``CI_PERCENTILES``) of the resampled fits, when a
    bootstrap was run (``resamples`` then records the resample count).
    """

    amplitude: float
    u: float
    baseline: float
    residual_norm: float
    n_qubits: int
    degenerate: bool
    bootstrap_ci: Optional[tuple] = None
    resamples: Optional[int] = None

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


def _profile(u, ey, w, wy, y, axis, g, t):
    """``(A, u, cost)`` per row with A at its best for the row's ``u``.

    ``ey`` holds the exponents ``L - 1``, and ``w``, ``wy = w * y`` and
    ``y`` the weights and data: rows-major ``(rows, lengths)`` arrays with
    ``axis = 1``, or lengths-major ``(lengths, rows)`` ones, with ``ey`` a
    column, and ``axis = 0``; ``g`` and ``t`` are work arrays of their
    shape.  For fixed u the model is linear in A, so the best A is the
    clipped weighted projection of y onto ``g = u**(L-1)``; the cost is the
    weighted squared residuals, summed directly (no cancellation).
    """
    np.power(u[:, None] if axis else u, ey, out=g)
    num = np.multiply(wy, g, out=t).sum(axis=axis)
    np.multiply(w, g, out=t)
    a = _best_amplitude(num, np.multiply(t, g, out=t).sum(axis=axis))
    np.multiply(a[:, None] if axis else a, g, out=t)
    r = np.subtract(y, t, out=t)
    np.multiply(w, r, out=g)
    return a, u, np.multiply(g, r, out=g).sum(axis=axis)


def _lower(fit, candidate):
    """Per row, whichever ``(A, u, cost)`` triple has the lower cost."""
    better = candidate[2] < fit[2]
    return tuple(np.where(better, new, old) for new, old in zip(candidate, fit))


def _fit_block(ey, powers, w, y) -> tuple:
    """Fit one block of rows by grid bracket, golden section and ends; see
    ``_fit_rows``.  ``powers[j]`` holds ``u**ey[j]`` over the u grid."""
    # 1. profile cost on the grid; the constant sum(w y^2) is left out, so
    #    this expanded form only ranks grid points.  The sums over lengths
    #    run one length at a time, elementwise, so each row's ranking is
    #    the same whatever rows share its chunk.
    squares = powers * powers
    wy = w * y
    best = np.empty(len(y), dtype=np.intp)
    for i in range(0, len(y), _GRID_ROWS):
        rows = slice(i, i + _GRID_ROWS)
        num = wy[rows, :1] * powers[0]
        den = w[rows, :1] * squares[0]
        for j in range(1, len(ey)):
            num += wy[rows, j:j + 1] * powers[j]
            den += w[rows, j:j + 1] * squares[j]
        a = _best_amplitude(num, den)
        best[rows] = np.argmin(a * (a * den - 2.0 * num), axis=1)
    lo = _U_GRID[np.maximum(best - 1, 0)]
    hi = _U_GRID[np.minimum(best + 1, len(_U_GRID) - 1)]
    # 2. golden-section search in each row's bracket [lo, hi].  numpy
    #    reduces a short inner axis one row at a time but an outer axis in
    #    one pass, so below 8 lengths the profile runs lengths-major; there
    #    both layouts sum each row left to right.  From 8 lengths on numpy
    #    sums a row pairwise, and only the rows-major layout keeps that order.
    if len(ey) < _PAIRWISE_TERMS:
        layout = (ey[:, None], w.T.copy(), wy.T.copy(), y.T.copy(), 0)
    else:
        layout = (ey, w, wy, y, 1)
    layout += (np.empty_like(layout[1]), np.empty_like(layout[1]))  # work arrays
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = _profile(c, *layout)[2]
    fd = _profile(d, *layout)[2]
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd  # the minimum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        step = _INV_PHI * (hi - lo)
        probe = np.where(left, hi - step, lo + step)
        fprobe = _profile(probe, *layout)[2]
        c, d, fc, fd = (np.where(left, probe, d), np.where(left, c, probe),
                        np.where(left, fprobe, fd), np.where(left, fc, fprobe))
    fit = _profile(np.where(fc < fd, c, d), *layout)
    # 3. the ends u = 0 and u = 1, which the bracket's interior never reaches
    for edge in (0.0, 1.0):
        fit = _lower(fit, _profile(np.full(len(y), edge), *layout))
    return fit


def _fit_rows(lengths: np.ndarray, p_hat: np.ndarray, se: np.ndarray,
              baseline: float) -> tuple:
    """Weighted least squares for (A, u) of every row of ``p_hat``.

    Minimises ``sum(((A u**(L-1) + B - p_hat) / se)**2)`` over A in [0, 2]
    and u in [0, 1] for each row of the ``(rows, lengths)`` arrays.  The
    search is over u alone, with A at its closed-form best for each u: a
    fixed grid over [0, 1] brackets the minimum, golden-section steps
    narrow the bracket, and the ends u = 0 and u = 1 are tried; each row
    keeps whichever of these has the lowest cost.  Returns the arrays
    ``(A, u, cost)``.

    Every step works row by row in a fixed order, so a row's result does
    not depend on the rows fitted beside it: the grid is ranked in chunks
    of ``_GRID_ROWS`` rows, summing over lengths one at a time, and the
    golden-section steps and ends sum each row over lengths in numpy's
    order for a contiguous row.  Below ``_PAIRWISE_TERMS`` lengths that
    order is left to right, which an outer-axis sum keeps, so those steps
    run lengths-major, one fast reduction per sum; from there on a row is
    summed pairwise, and they run rows-major.  Memory is bounded by the
    chunk, ``(_GRID_ROWS, grid)`` floats, and by ``(_FIT_BLOCK, lengths)``
    floats for the rest, whatever the number of rows; the golden section
    reuses two such work arrays.
    """
    ey = np.asarray(lengths, dtype=float) - 1.0
    y = np.atleast_2d(p_hat) - baseline
    w = 1.0 / np.atleast_2d(se) ** 2
    powers = _U_GRID ** ey[:, None]
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
    if resamples is not None:
        resamples = _integer(resamples)
    if resamples:
        ci = bootstrap_ci(dataset, resamples=resamples, rng=rng)
        result = replace(result, bootstrap_ci=ci, resamples=resamples)
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
                 rng: Union[None, int, np.random.Generator] = None) -> tuple:
    """68% percentile bootstrap interval for u (``CI_PERCENTILES``).

    Each resample redraws circuits per length with replacement and redraws
    each chosen circuit's counts binomially.  All resamples are drawn first
    and then fitted together, so the interval depends only on the seed.
    """
    resamples = _integer(resamples)
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = _as_rng(rng)
    lengths, counts = _length_groups(dataset)
    if len(lengths) < 2:
        raise ValueError("need at least two distinct lengths")
    p_hat, se = _resample_points(counts, resamples, rng)
    _, us, _ = _fit_rows(lengths, p_hat, se, 1.0 / 2 ** dataset.n_qubits)
    lo, hi = _percentiles(us, CI_PERCENTILES)
    return (float(lo), float(hi))


def _percentiles(values: np.ndarray, percentiles) -> np.ndarray:
    """``np.percentile(values, percentiles)`` of a 1-D array, bit for bit,
    by numpy's default 'linear' rule from one sort.

    ``np.percentile`` calls ``np.unique`` without counts, which imports
    ``numpy.ma`` (8-14 ms on a first call, numpy 2.4.6).  The rule: quantile
    q's virtual index ``(n - 1) q`` lies between neighbours a and b of the
    sorted values (both the last at the top), and the value is
    ``a + (b - a) t`` for its fraction t, or ``b - (b - a)(1 - t)`` if t >= 0.5.
    """
    ordered = np.sort(values)
    last = len(ordered) - 1
    index = last * np.true_divide(percentiles, 100)
    below = np.floor(index)
    t = index - below
    a_at = below.astype(np.intp)
    b_at = a_at + 1
    top = index >= last
    a_at[top] = b_at[top] = last
    a, b = ordered[a_at], ordered[b_at]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


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


# Each Clifford's seven ``_LETTER_MASK_ROWS`` as the bits 0-6 of one word: bit
# k is set where mask k is all ones
_MASK_CODES = ((_LETTER_MASK_ROWS & np.uint64(1)) << np.arange(7, dtype=np.uint64)[:, None]
               ).sum(axis=0).astype(np.uint16)
_SIGN_BITS = np.arange(4, 7, dtype=np.uint16)[:, None, None]  # x_minus, z_minus, y_minus
_ROUND_BITS = np.arange(3, dtype=np.uint16)[:, None, None]  # x_to_x, z_to_x, x_to_z


class _SampledCliffords:
    """The images of the Pauli generators under m sampled Cliffords, bit-packed.

    ``operators``' bit-packed layout over the 2n generators X_0..X_{n-1},
    Z_0..Z_{n-1}: bit j of ``x[p, s]`` and ``z[p, s]`` is the X and Z part,
    at physical qubit p, of ``U_s g_j U_s^dagger`` in Hermitian letters, and
    bit j of ``signs[s]`` marks a minus sign.  The words are ``uint16``:
    n <= ``FRAME_POTENTIAL_QUBIT_LIMIT`` = 8, so the 2n generator bits fit.
    Every sample starts at the identity; ``x`` and ``z`` are the halves of
    the ``(2n, m)`` array ``images``.

    Layers and traces run in two work buffers allocated once, written with
    ``out=``, so no step maps fresh pages: ``(4, n, m)`` words (a layer's
    masks and partners, a trace's elimination rows) and ``(n, m)`` indices
    (a layer's Cliffords, then its matching; a trace's free-column flags).
    Gathers use ``np.take(..., mode="clip")``, which writes straight into
    ``out`` (``"raise"`` copies through a hidden buffer) and never clips:
    every index is in range by construction, a Clifford from
    ``rng.integers(0, 24)`` and a matching word from a permutation of the
    qubits' first words ``q m`` (q < n) plus a sample (< m).
    """

    def __init__(self, n_qubits: int, samples: int):
        n, m = n_qubits, samples
        self.generators = np.uint16(1) << np.arange(2 * n, dtype=np.uint16)
        self.images = np.repeat(self.generators[:, None], m, axis=1)
        self.x, self.z = self.images[:n], self.images[n:]
        self.signs = np.zeros(m, dtype=np.uint16)
        self._words = np.empty((4, n, m), dtype=np.uint16)
        self._index = np.empty((n, m), dtype=np.intp)
        self._first_words = np.arange(n)[:, None] * m
        self._samples = np.arange(m)

    def apply_layer(self, rng: np.random.Generator) -> None:
        """Append one random layer: Cliffords, then UZZ on a random matching.

        The matching of sample s is a uniform permutation ``perm[s]`` of the
        qubits whose consecutive entries pair up, so the qubit at position j
        is paired with the one at position ``j ^ 1``.  The images follow
        ``operators``' round rules, evaluated in the work buffers with each
        all-ones-or-zero mask as a factor of 1 or 0.
        """
        n, m = self.x.shape
        x, z, words, index = self.x, self.z, self._words, self._index
        images = self.images.reshape(2, n, m)
        # the Clifford of qubit q in sample s at index[q, s]; int32 draws
        # the same values from the same stream as the default int64
        np.copyto(index, rng.integers(0, 24, size=(m, n), dtype=np.int32).T)
        code = words[3]
        np.take(_MASK_CODES, index, out=code, mode="clip")
        # _clifford_signs: (x & x_minus) ^ (z & z_minus) ^ (x & z & y_minus)
        minus = words[:3]
        np.right_shift(code, _SIGN_BITS, out=minus)
        minus &= 1
        minus[:2] *= images
        minus[2] *= x
        minus[2] &= z
        self.signs ^= np.bitwise_xor.reduce(minus, axis=(0, 1))
        # _clifford_round: x' = (x & x_to_x) ^ (z & z_to_x), and z' from
        # x_to_z and z_to_z; the code's own row becomes z_to_z
        np.right_shift(code, _ROUND_BITS, out=words[:3])
        code >>= 3
        words &= 1
        factors = words.reshape(2, 2, n, m)
        np.multiply(factors, images, out=factors)
        np.bitwise_xor(words[0], words[1], out=x)
        np.bitwise_xor(words[2], words[3], out=z)
        # The matching, drawn in the index buffer as permutations of the
        # qubits' first words (the values do not change the draw), plus the
        # sample: index[j, s] is the word of position j of sample s
        index[...] = self._first_words
        at = index.T
        rng.permuted(at, axis=1, out=at)
        index += self._samples
        # Each qubit's partner X: gather X by position, swap the rows of
        # each pair of positions and scatter them back by word.
        x_partner, by_position, swapped = words[:3]
        np.take(x.reshape(-1), index, out=by_position, mode="clip")
        np.copyto(swapped.reshape(n // 2, 2, m), by_position.reshape(n // 2, 2, m)[:, ::-1])
        x_partner.reshape(-1)[index] = swapped
        # _uzz_signs: t & x & z, and _uzz_round: z ^ t, for t = x ^ x_partner
        t, flips = words[1], words[2]
        np.bitwise_xor(x, x_partner, out=t)
        np.bitwise_and(t, x, out=flips)
        flips &= z
        self.signs ^= np.bitwise_xor.reduce(flips, axis=0)
        z ^= t

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
        rows, lead = self._words.reshape(2, 2 * n, m)
        # Row X_p (Z_p) of S + I: the generators whose image has an X (Z)
        # part at qubit p, XOR the generator X_p (Z_p) itself.
        np.bitwise_xor(self.images, self.generators[:, None], out=rows)
        # Reduced row echelon form by a scan over the rows: each row in turn,
        # already cleared of the earlier rows' pivot columns, pivots on its
        # lowest set column and clears that column from every other row.
        # The form is unique, so the order of the scan does not matter.
        # A row holding the pivot's bit ``low`` is cleared by ``-low & row``:
        # row has no bit below low, and -low has every bit from low up.
        for r in range(2 * n):
            row = rows[r].copy()
            np.bitwise_and(rows, row & -row, out=lead)
            np.negative(lead, out=lead)
            lead &= row
            rows ^= lead
            rows[r] = row
        # Each nonzero row pivots on its lowest set column, ``lead``, which
        # no other row holds; the other columns are free.  Free column f
        # gives the kernel vector v_f: f and the pivot column of every row
        # that holds f.  Only the (free column, sample) pairs are kept, found
        # by one scan of the flat (column, sample) flags, in the index
        # buffer's bytes.
        np.negative(rows, out=lead)
        lead &= rows
        free = ~np.bitwise_or.reduce(lead, axis=0)
        free &= (1 << 2 * n) - 1
        index_bytes = self._index.reshape(-1).view(np.uint8)
        free_bits = index_bytes[:4 * n * m].view(np.uint16).reshape(2 * n, m)
        flags = index_bytes[4 * n * m:6 * n * m].view(np.bool_).reshape(2 * n, m)
        np.bitwise_and(free, self.generators[:, None], out=free_bits)
        np.not_equal(free_bits, 0, out=flags)
        sample = np.flatnonzero(flags)
        column = sample // m
        sample -= column * m
        column = column.astype(np.uint16)
        held = np.take(rows, sample, axis=1)
        held >>= column
        held &= 1
        held *= np.take(lead, sample, axis=1)
        vectors = np.bitwise_or.reduce(held, axis=0)
        vectors |= np.uint16(1) << column
        # Image j is i^phase[j] X^x_j Z^z_j: an i per Y letter, -1 per minus
        # sign.  The generators of any v multiply, in ascending order, to
        # X^vx Z^vz with phase 1, so U keeps the sign of that Pauli iff the
        # images of v multiply, in the same order, to phase 1 (mod 4): their
        # Y letters, plus 2 for each minus sign and for each Z of an earlier
        # image that an X passes.  At qubit q, with a and b the generators
        # of v whose images hold an X and a Z there, those passes are the
        # pairs j' < j with j' in b and j in a: the bits of a above an odd
        # number of bits of b.
        x = np.take(self.x, sample, axis=1)
        x &= vectors
        z = np.take(self.z, sample, axis=1)
        total = np.bitwise_count(x & z).sum(axis=0, dtype=np.uint8)
        z &= vectors
        z <<= 1
        shift = 1
        while shift < 2 * n:  # prefix XOR over the 2n generator bits
            z ^= z << shift
            shift *= 2
        x &= z
        total += 2 * (np.bitwise_count(self.signs[sample] & vectors)
                      + np.bitwise_count(x).sum(axis=0, dtype=np.uint8))
        traces = np.left_shift(1, np.bitwise_count(free), dtype=np.int64)
        traces[sample[total & 3 != 0]] = 0
        return traces


def frame_potential_profile(n_qubits: int, lengths: Sequence[int], samples: int,
                            rng: Union[None, int, np.random.Generator] = None
                            ) -> list:
    """Estimate Phi_2 (2 marks a unitary 2-design) at several lengths from
    common sample paths; length 0, the identity alone, gives d^4 exactly.

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
    if n_qubits > FRAME_POTENTIAL_QUBIT_LIMIT:
        raise ValueError(
            f"frame_potential limited to n <= {FRAME_POTENTIAL_QUBIT_LIMIT}")
    samples, lengths = _integer(samples), [_integer(x) for x in lengths]
    if samples < 2:
        raise ValueError("need at least two samples")
    if not lengths:
        raise ValueError("need at least one length")
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
                       circuits_per_length: int = 10, shots: int = 100) -> list:
    """Simulate fitted-vs-true unitarity pairs under two-qubit depolarizing noise.

    Each experiment draws ``p`` uniformly in ``[0, p_max]``, runs the standard
    design (lengths x circuits at ``shots`` shots), fits the decay, and pairs
    the fitted ``u`` with ``u_true = depolarizing_tensor_unitarity(p, n/2)``.
    With its p, each experiment draws a circuit seed and a simulation seed,
    and its point is the one that ``sample_experiment``,
    ``simulate_survival``, ``survival_points`` and ``fit_decay`` give.

    Experiments go in chunks of at most ``_SCATTER_CELLS`` round-qubit
    cells, so memory does not grow with their number.  Per chunk and
    length, one ``mirror_circuit_stack`` holds every experiment's circuits,
    and the simulator's stack runner (``_stack_counts``) runs it, each
    circuit under its experiment's noise and drawing from
    ``SeedSequence((simulation seed, circuit id))``: the noises place the
    same fault sites, so each table slice is one fault-table build, which
    does not depend on p, and one shot loop.  A chunk's experiments are
    fitted together, one row each.
    """
    shots, num_experiments, n_qubits = map(_integer, (shots, num_experiments, n_qubits))
    circuits_per_length, lengths = _integer(circuits_per_length), [_integer(x) for x in lengths]
    fit_lengths = sorted(set(lengths))
    if n_qubits % 2 or not 2 <= n_qubits <= _QUBIT_LIMITS["stabilizer"]:
        raise ValueError(f"n_qubits must be even and in [2, {_QUBIT_LIMITS['stabilizer']}]")
    if shots < 1 or circuits_per_length < 1 or num_experiments < 0 or min(lengths, default=1) < 1:
        raise ValueError("shots, circuits_per_length and lengths must be >= 1, "
                         "num_experiments >= 0")
    if not 0.0 <= p_max <= 1.0:  # NaN included
        raise ValueError(f"p_max must lie in [0, 1], got {p_max!r}")
    if len(fit_lengths) < 2:
        raise ValueError("need at least two distinct lengths to fit")
    rng = _as_rng(rng)
    draws = [(float(rng.uniform(0.0, p_max)), int(rng.integers(0, 2 ** 63 - 1)),
              int(rng.integers(0, 2 ** 63 - 1))) for _ in range(num_experiments)]
    cells = circuits_per_length * sum(lengths) * n_qubits  # per experiment
    chunk = max(1, _SCATTER_CELLS // max(cells, 1))
    points = []
    for start in range(0, num_experiments, chunk):
        group = draws[start:start + chunk]
        noises = [NoiseModel(two_qubit=Depolarizing(p)) for p, _, _ in group]
        seeds = [_experiment_seeds(gen_seed, lengths, circuits_per_length)
                 for _, gen_seed, _ in group]
        p_hat = np.empty((len(group), len(fit_lengths)))
        se = np.empty_like(p_hat)
        for j, length in enumerate(fit_lengths):
            ids = [i for i, (cell_length, _) in enumerate(seeds[0]) if cell_length == length]
            stack = mirror_circuit_stack([cells[i][1] for cells in seeds for i in ids],
                                         n_qubits, length, ids * len(group))
            (counts,) = _stack_counts([(stack, [noise for noise in noises for _ in ids],
                                        [(sim_seed, i) for _, _, sim_seed in group for i in ids])],
                                      shots, 1, "stabilizer")
            # each cell's mean alone, as survival_points takes it
            p_hat[:, j] = [rates.mean() for rates in counts.reshape(len(group), -1) / shots]
            se[:, j] = _pooled_se(p_hat[:, j], float(len(ids) * shots))
        _, u_est, _ = _fit_rows(np.array(fit_lengths, dtype=float), p_hat, se,
                                1.0 / 2 ** n_qubits)
        points += [ScatterPoint(p, depolarizing_tensor_unitarity(p, n_qubits // 2), float(u))
                   for (p, _, _), u in zip(group, u_est)]
    return points
