"""Decay fitting, bootstrap intervals, frame potential, scatter studies."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares

import mirrorbench.analysis as analysis_module
from mirrorbench.analysis import (
    _FIT_BLOCK,
    _GOLDEN_STEPS,
    _GRID_ROWS,
    _INV_PHI,
    _U_GRID,
    FRAME_POTENTIAL_QUBIT_LIMIT,
    FitResult,
    ScatterPoint,
    _SampledCliffords,
    _best_amplitude,
    _fit_rows,
    _lower,
    _length_groups,
    _percentiles,
    _resample_points,
    bootstrap_ci,
    fit_decay,
    frame_potential_profile,
    scatter_experiment,
    survival_points,
)
from mirrorbench.channels import Depolarizing, depolarizing_tensor_unitarity
from mirrorbench.circuits import sample_experiment
from mirrorbench.operators import (
    _LETTER_MASK_ROWS,
    CLIFFORD_UNITARIES,
    _clifford_round,
    _clifford_signs,
    _uzz_round,
    _uzz_signs,
)
from mirrorbench.simulator import DatasetEntry, DecayDataset, NoiseModel, simulate_survival


def _synthetic_dataset(n_qubits, amplitude, u, lengths, shots=10 ** 9):
    """Entries whose success rates match A*u^(L-1)+B up to integer rounding."""
    baseline = 1.0 / 2 ** n_qubits
    entries = []
    for length in lengths:
        p = amplitude * u ** (length - 1) + baseline
        entries.append(DatasetEntry(length=length, circuit_id=0, shots=shots,
                                    successes=round(p * shots), seed=0))
    return DecayDataset(n_qubits=n_qubits, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Aggregation and fitting
# ---------------------------------------------------------------------------


def test_survival_points_aggregation():
    entries = (
        DatasetEntry(length=2, circuit_id=0, shots=100, successes=80, seed=0),
        DatasetEntry(length=2, circuit_id=1, shots=100, successes=60, seed=0),
        DatasetEntry(length=4, circuit_id=2, shots=200, successes=100, seed=0),
    )
    ds = DecayDataset(n_qubits=2, entries=entries)
    lengths, p_hat, se = survival_points(ds)
    np.testing.assert_array_equal(lengths, [2.0, 4.0])
    assert abs(p_hat[0] - 0.7) < 1e-15
    assert abs(p_hat[1] - 0.5) < 1e-15
    assert abs(se[0] - math.sqrt(0.7 * 0.3 / 200)) < 1e-12
    assert abs(se[1] - math.sqrt(0.5 * 0.5 / 200)) < 1e-12


def test_survival_points_error_floor():
    entries = (DatasetEntry(length=2, circuit_id=0, shots=100, successes=100, seed=0),
               DatasetEntry(length=4, circuit_id=1, shots=100, successes=100, seed=0))
    _, _, se = survival_points(DecayDataset(n_qubits=1, entries=entries))
    assert np.all(se >= 1e-4)


@pytest.mark.parametrize("n_qubits,amplitude,u", [
    (6, 0.9, 0.95),
    (2, 0.7, 0.99),
    (2, 0.74, 0.80),
    (4, 0.95, 0.9999),
])
def test_fit_recovers_exact_exponential(n_qubits, amplitude, u):
    ds = _synthetic_dataset(n_qubits, amplitude, u, (4, 8, 12, 16))
    fit = fit_decay(ds)
    assert abs(fit.amplitude - amplitude) < 1e-9
    assert abs(fit.u - u) < 1e-9
    assert not fit.degenerate
    assert fit.baseline == 1.0 / 2 ** n_qubits


def _scipy_fit(lengths, p_hat, se, baseline):
    """Reference fit: bounded trust-region least squares from many starts."""
    def residuals(params):
        a, u = params
        return (a * u ** (lengths - 1.0) + baseline - p_hat) / se

    a0 = float(np.clip(np.max(p_hat - baseline), 0.05, 1.95))
    best = None
    for u0 in (0.05, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999):
        res = least_squares(residuals, x0=(a0, u0), bounds=([0.0, 0.0], [2.0, 1.0]),
                            method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if best is None or res.cost < best.cost:
            best = res
    return best.x[0], best.x[1], 2.0 * best.cost


@pytest.mark.parametrize("n_qubits,p,lengths", [
    (2, 0.02, (4, 8, 12, 16)),
    (2, 0.15, (2, 4, 8)),
    (4, 0.01, (1, 4, 8, 16, 32)),
    (10, 0.01, (4, 8, 12, 16)),
])
def test_fit_rows_match_scipy_oracle(n_qubits, p, lengths):
    specs = sample_experiment(40 + n_qubits, n_qubits, lengths, 6)
    ds = simulate_survival(specs, NoiseModel(two_qubit=Depolarizing(p)), 100, rng=50)
    lengths, counts = _length_groups(ds)
    p_hat, se = _resample_points(counts, 60, np.random.default_rng(60))
    baseline = 1.0 / 2 ** n_qubits
    amplitude, u, cost = _fit_rows(lengths, p_hat, se, baseline)
    for r in range(len(p_hat)):
        a_ref, u_ref, cost_ref = _scipy_fit(lengths, p_hat[r], se[r], baseline)
        direct = np.sum(((amplitude[r] * u[r] ** (lengths - 1.0) + baseline
                          - p_hat[r]) / se[r]) ** 2)
        assert cost[r] == pytest.approx(direct, rel=1e-12)
        assert cost[r] <= cost_ref * (1.0 + 1e-9)
        if a_ref > 1e-6:
            assert abs(u[r] - u_ref) <= 1e-7


def test_fit_rows_find_the_global_minimum_within_bounds():
    # random rows, many of them far from any decay: the fit must stay in
    # A in [0, 2], u in [0, 1] and reach the minimum of a fine brute-force
    # profile over u
    rng = np.random.default_rng(5)
    lengths = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    baseline = 0.25
    p_hat = np.clip(baseline + rng.uniform(-0.1, 0.75, (300, len(lengths))), 0.0, 1.0)
    se = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / 200), 1e-4)
    amplitude, u, cost = _fit_rows(lengths, p_hat, se, baseline)
    assert np.all((amplitude >= 0.0) & (amplitude <= 2.0))
    assert np.all((u >= 0.0) & (u <= 1.0))
    g = np.linspace(0.0, 1.0, 20001)[:, None] ** (lengths - 1.0)
    for r in range(len(p_hat)):
        w = 1.0 / se[r] ** 2
        y = p_hat[r] - baseline
        direct = np.sum(w * (y - amplitude[r] * u[r] ** (lengths - 1.0)) ** 2)
        assert cost[r] == pytest.approx(direct, rel=1e-12)
        a_grid = np.clip((g @ (w * y)) / (g * g @ w), 0.0, 2.0)
        brute = np.min(((y - a_grid[:, None] * g) ** 2) @ w)
        assert cost[r] <= brute * (1.0 + 1e-9)


def _fit_batch(seed, counts=(2, 7)):
    """2-40 rows of one design: 2-6 lengths (``counts``, a half-open range)
    up to 64, n in {2, 4, 10}, A up to its bound and u in [0, 1], each
    point binomial over 1000 shots."""
    rng = np.random.default_rng(seed)
    rows, count = int(rng.integers(2, 41)), int(rng.integers(*counts))
    baseline = 1.0 / 2 ** int(rng.choice([2, 4, 10]))
    lengths = np.sort(rng.choice(np.arange(1, 65), size=count, replace=False)).astype(float)
    amplitude, u = rng.uniform(0.0, 2.0, rows), rng.uniform(0.0, 1.0, rows)
    p = np.clip(amplitude[:, None] * u[:, None] ** (lengths - 1.0) + baseline, 0.0, 1.0)
    p_hat = rng.binomial(1000, p) / 1000
    se = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / 1000), 1e-4)
    return lengths, p_hat, se, baseline


def test_a_row_fits_the_same_alone_as_in_its_batch():
    # Where the profile cost is flat in u (long lengths at the baseline),
    # grid points tie to rounding, and a sum over lengths whose order
    # depends on the batch (a matrix product) ranks them either way; these
    # 100 batches (2,309 rows) hold several such rows.
    for seed in range(100):
        lengths, p_hat, se, baseline = _fit_batch(seed)
        batch = np.stack(_fit_rows(lengths, p_hat, se, baseline), axis=1)
        for r in range(len(p_hat)):
            alone = np.concatenate(_fit_rows(lengths, p_hat[r], se[r], baseline))
            assert np.array_equal(alone, batch[r]), (seed, r)


def test_a_row_fits_the_same_alone_as_in_its_batch_from_8_lengths():
    # numpy sums a row of 8 or more terms pairwise, but an outer axis of
    # several rows left to right: a fit that summed every length count
    # lengths-major would give a row alone (summed as one contiguous run)
    # other bits than in its batch
    for seed in range(60):
        lengths, p_hat, se, baseline = _fit_batch(1000 + seed, counts=(8, 21))
        batch = np.stack(_fit_rows(lengths, p_hat, se, baseline), axis=1)
        for r in range(len(p_hat)):
            alone = np.concatenate(_fit_rows(lengths, p_hat[r], se[r], baseline))
            assert np.array_equal(alone, batch[r]), (seed, r)


def _reference_cost(a, g, w, y):
    """Weighted squared residuals per row, summed directly (no cancellation)."""
    r = y - a[:, None] * g
    return (w * r * r).sum(axis=1)


def _reference_profile(u, ey, w, y):
    """``(A, u, cost)`` per row with A at its best for the row's ``u``."""
    g = u[:, None] ** ey
    a = _best_amplitude((w * y * g).sum(axis=1), (w * g * g).sum(axis=1))
    return a, u, _reference_cost(a, g, w, y)


def _reference_fit_block(ey, powers, w, y) -> tuple:
    """One block of ``_reference_fit_rows``: grid bracket, golden section
    and ends, every sum over lengths rows-major."""
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
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = _reference_profile(c, ey, w, y)[2]
    fd = _reference_profile(d, ey, w, y)[2]
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        probe = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fprobe = _reference_profile(probe, ey, w, y)[2]
        c, d, fc, fd = (np.where(left, probe, d), np.where(left, c, probe),
                        np.where(left, fprobe, fd), np.where(left, fc, fprobe))
    fit = _reference_profile(np.where(fc < fd, c, d), ey, w, y)
    for edge in (0.0, 1.0):
        fit = _lower(fit, _reference_profile(np.full(len(y), edge), ey, w, y))
    return fit


def _reference_fit_rows(lengths, p_hat, se, baseline) -> tuple:
    """The fit as it was before its golden section ran lengths-major: every
    profile in ``(rows, lengths)`` arrays, summed along rows."""
    ey = np.asarray(lengths, dtype=float) - 1.0
    y = np.atleast_2d(p_hat) - baseline
    w = 1.0 / np.atleast_2d(se) ** 2
    powers = _U_GRID ** ey[:, None]
    parts = [_reference_fit_block(ey, powers, w[i:i + _FIT_BLOCK], y[i:i + _FIT_BLOCK])
             for i in range(0, len(y), _FIT_BLOCK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _fit_corpus(rows, count, seed):
    """``rows`` rows at ``count`` lengths (1, 2, then up to 300) of an n = 2, 4
    or 10 design.  By ``(r + seed) % 5``, row r is a binomial decay (1000
    shots) with A up to its bound and u in [0, 1]; flat at the baseline;
    binomial below the baseline (negative y); at the baseline from L = 2
    on (a fit at u = 0); or flat above it (a fit at u = 1)."""
    rng = np.random.default_rng(seed)
    baseline = 1.0 / 2 ** int(rng.choice([2, 4, 10]))
    lengths = np.concatenate([[1.0, 2.0], np.sort(rng.choice(np.arange(3, 301), count - 2,
                                                             replace=False))])
    amplitude, u = rng.uniform(0.0, 2.0, rows), rng.uniform(0.0, 1.0, rows)
    p = np.clip(amplitude[:, None] * u[:, None] ** (lengths - 1.0) + baseline, 0.0, 1.0)
    p_hat = rng.binomial(1000, p) / 1000
    kind = (np.arange(rows) + seed) % 5
    p_hat[kind == 1] = baseline
    below = kind == 2
    p_hat[below] = rng.binomial(1000, rng.uniform(0.0, baseline, (below.sum(), count))) / 1000
    p_hat[kind == 3] = baseline
    p_hat[kind == 3, 0] = 1.0
    p_hat[kind == 4] = np.linspace(baseline, 1.0, 9)[rng.integers(1, 9, (kind == 4).sum())][:, None]
    se = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / 1000), 1e-4)
    return lengths, p_hat, se, baseline


@pytest.mark.parametrize("count", list(range(2, 21)) + [129, 140])
def test_fit_rows_equal_the_rows_major_reference_bit_for_bit(count):
    # 1-2,500 rows, across _GRID_ROWS chunks and _FIT_BLOCK blocks: below 8
    # lengths the golden section runs lengths-major, from 8 on rows-major,
    # and either way every A, u and cost (signed zeros too) is the
    # reference's
    ends = set()
    for rows in (1, 2, 10, 64, 65, 1000, 1025, 2500):
        data = _fit_corpus(rows, count, 100 * count + rows)
        fit, reference = _fit_rows(*data), _reference_fit_rows(*data)
        for got, want in zip(fit, reference):
            assert got.tobytes() == want.tobytes(), (count, rows)
        ends.update(fit[1][(fit[1] == 0.0) | (fit[1] == 1.0)].tolist())
    assert ends == {0.0, 1.0}


def test_resample_points_match_loop_reference():
    rng = np.random.default_rng(8)
    entries = tuple(
        DatasetEntry(length=length, circuit_id=k, shots=int(shots),
                     successes=int(rng.integers(0, shots + 1)), seed=0)
        for length in (2, 4, 8) for k, shots in enumerate(rng.integers(20, 500, 5)))
    lengths, counts = _length_groups(DecayDataset(n_qubits=2, entries=entries))
    resamples = 30
    p_hat, se = _resample_points(counts, resamples, np.random.default_rng(3))
    assert p_hat.shape == se.shape == (resamples, 3)
    draw = np.random.default_rng(3)
    for i, c in enumerate(counts):
        picks = draw.integers(0, len(c), size=(resamples, len(c)))
        successes = draw.binomial(c[picks, 0], c[picks, 1] / c[picks, 0])
        for r in range(resamples):
            shots = [int(c[k, 0]) for k in picks[r]]
            p = sum(int(x) / n for x, n in zip(successes[r], shots)) / len(shots)
            assert p_hat[r, i] == pytest.approx(p, rel=1e-12)
            expected_se = max(math.sqrt(p * (1.0 - p) / sum(shots)), 1e-4)
            assert se[r, i] == pytest.approx(expected_se, rel=1e-12)


def test_fit_predict_matches_model():
    fit = FitResult(amplitude=0.5, u=0.9, baseline=0.25, residual_norm=0.0,
                    n_qubits=2, degenerate=False)
    assert abs(fit.predict(1) - 0.75) < 1e-15
    assert abs(fit.predict(3) - (0.5 * 0.81 + 0.25)) < 1e-15


def test_fit_flags_flat_data_degenerate():
    entries = tuple(
        DatasetEntry(length=length, circuit_id=k, shots=1000, successes=1000, seed=0)
        for length in (4, 8, 12, 16) for k in range(3))
    fit = fit_decay(DecayDataset(n_qubits=2, entries=entries))
    assert fit.degenerate
    assert abs(fit.predict(4) - 1.0) < 1e-6


@pytest.mark.parametrize("rates,u", [
    ({4: 100, 8: 100, 12: 100, 16: 100}, 1.0),  # no decay at all
    ({1: 90, 2: 25, 4: 25, 8: 25}, 0.0),  # at the baseline 1/4 from L = 2 on
], ids=["u=1", "u=0"])
def test_fit_lands_exactly_on_an_end_of_u(rates, u):
    # golden-section probes stay inside their bracket; only the end tries
    # give the exact bound and a zero residual
    entries = tuple(
        DatasetEntry(length=length, circuit_id=k, shots=100, successes=successes, seed=0)
        for length, successes in rates.items() for k in range(3))
    fit = fit_decay(DecayDataset(n_qubits=2, entries=entries))
    assert fit.u == u
    assert fit.residual_norm == 0.0


def test_fit_requires_two_lengths():
    entries = (DatasetEntry(length=4, circuit_id=0, shots=10, successes=5, seed=0),)
    with pytest.raises(ValueError):
        fit_decay(DecayDataset(n_qubits=2, entries=entries))


def test_fit_with_bootstrap_attaches_ci():
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=500)
    fit = fit_decay(ds, resamples=100, rng=0)
    assert fit.bootstrap_ci is not None
    lo, hi = fit.bootstrap_ci
    assert lo <= hi
    assert fit.resamples == 100


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_zero_variance_data_gives_zero_width():
    entries = tuple(
        DatasetEntry(length=length, circuit_id=k, shots=100, successes=100, seed=0)
        for length in (2, 4) for k in range(4))
    ds = DecayDataset(n_qubits=2, entries=entries)
    lo, hi = bootstrap_ci(ds, resamples=120, rng=7)
    assert hi - lo < 1e-12


def test_bootstrap_deterministic_given_seed():
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=400)
    assert bootstrap_ci(ds, resamples=80, rng=5) == bootstrap_ci(ds, resamples=80, rng=5)


@pytest.mark.parametrize("resamples", [2.5, 2.0, "3"])
def test_resamples_that_are_not_an_integer_raise(resamples):
    # taken through operator.index: 2.5 ran two resamples and recorded 2
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=400)
    with pytest.raises(TypeError):
        bootstrap_ci(ds, resamples=resamples, rng=5)
    with pytest.raises(TypeError):
        fit_decay(ds, resamples=resamples, rng=5)


def test_fit_records_a_numpy_integer_resample_count_as_an_int():
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=400)
    fit = fit_decay(ds, resamples=np.int64(20), rng=5)
    assert type(fit.resamples) is int and fit.resamples == 20
    assert fit.bootstrap_ci == bootstrap_ci(ds, resamples=20, rng=5)


_NOT_INTEGERS = [True, False, np.True_, 1.5]


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize("call", [
    lambda ds, v: fit_decay(ds, resamples=v, rng=5),
    lambda ds, v: bootstrap_ci(ds, resamples=v, rng=5),
    lambda ds, v: bootstrap_ci(ds, resamples=20, rng=v),
    lambda ds, v: frame_potential_profile(2, [1, 2], 16, rng=v),
    lambda ds, v: scatter_experiment(2, 1, 0.01, rng=v, lengths=(2, 4),
                                     circuits_per_length=1, shots=10),
], ids=["fit_decay-resamples", "bootstrap_ci-resamples", "bootstrap_ci-rng",
        "frame_potential_profile-rng", "scatter_experiment-rng"])
def test_seeds_and_resamples_that_are_bools_or_fractions_raise(call, value):
    # a bool was taken as the int 1: resamples=True ran one resample with a
    # zero-width interval, and rng=True ran as seed 1
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=400)
    with pytest.raises(TypeError):
        call(ds, value)


def test_numpy_integer_seeds_keep_their_streams_and_none_is_fresh_entropy():
    ds = _synthetic_dataset(2, 0.7, 0.9, (2, 4, 8), shots=400)
    assert bootstrap_ci(ds, resamples=20, rng=np.int32(5)) == bootstrap_ci(ds, resamples=20, rng=5)
    assert (frame_potential_profile(2, [1, 2], 16, rng=np.uint8(3))
            == frame_potential_profile(2, [1, 2], 16, rng=3))
    assert len(frame_potential_profile(2, [1, 2], 16, rng=None)) == 2
    lo, hi = bootstrap_ci(ds, resamples=20, rng=None)
    assert lo <= hi


_SCATTER_DESIGN = dict(p_max=0.01, rng=3, lengths=(1, 2), circuits_per_length=2, shots=10)


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("call", [
    lambda v: simulate_survival(sample_experiment(1, 2, (2,), 2), NoiseModel(), shots=v, rng=1),
    lambda v: simulate_survival(sample_experiment(1, 2, (2,), 2), NoiseModel(), shots=10,
                                rng=1, jobs=v),
    lambda v: sample_experiment(1, 4, (4, v), 2),
    lambda v: sample_experiment(1, 4, (4,), v),
    lambda v: frame_potential_profile(2, [2, v], 10, rng=1),
    lambda v: frame_potential_profile(2, [2], v, rng=1),
    lambda v: scatter_experiment(4, 2, **dict(_SCATTER_DESIGN, shots=v)),
    lambda v: scatter_experiment(4, 2, **dict(_SCATTER_DESIGN, circuits_per_length=v)),
    lambda v: scatter_experiment(4, 2, **dict(_SCATTER_DESIGN, lengths=(1, v, 2))),
    lambda v: scatter_experiment(4, v, **_SCATTER_DESIGN),
], ids=["simulate_survival-shots", "simulate_survival-jobs", "sample_experiment-length",
        "sample_experiment-count", "frame_potential_profile-length",
        "frame_potential_profile-samples", "scatter_experiment-shots",
        "scatter_experiment-count", "scatter_experiment-length",
        "scatter_experiment-experiments"])
def test_lengths_and_counts_that_are_bools_or_fractions_raise(call, value):
    # these ran: shots=True one shot, stored as True in the dataset; a
    # length 4.7 as L = 4; circuits_per_length=True one circuit a length
    with pytest.raises(TypeError):
        call(value)


def test_numpy_integer_lengths_and_counts_keep_their_streams():
    i = np.int64
    stacks = sample_experiment(1, 4, (i(4), 8), i(2))
    assert ([(s.length, s.seeds, s.circuit_ids) for s in stacks]
            == [(s.length, s.seeds, s.circuit_ids) for s in sample_experiment(1, 4, (4, 8), 2)])
    noise = NoiseModel(two_qubit=Depolarizing(0.05))
    dataset = simulate_survival(stacks, noise, shots=i(50), rng=1, jobs=i(1))
    assert dataset == simulate_survival(stacks, noise, shots=50, rng=1)
    assert type(dataset.entries[0].shots) is int
    assert (frame_potential_profile(2, [i(2), 4], i(10), rng=1)
            == frame_potential_profile(2, [2, 4], 10, rng=1))
    assert (scatter_experiment(4, i(2), 0.01, rng=3, lengths=(i(1), 2),
                               circuits_per_length=i(2), shots=i(10))
            == scatter_experiment(4, 2, **_SCATTER_DESIGN))


@pytest.mark.parametrize("change", [dict(p_max=1.5), dict(p_max=-0.01), dict(p_max=math.nan),
                                    dict(num_experiments=-3)],
                         ids=["p-above-1", "p-below-0", "p-nan", "negative-experiments"])
def test_scatter_experiment_rejects_a_bad_rate_or_experiment_count_before_drawing(change):
    # p_max = 1.5 gave five points (p up to 0.873), and -3 experiments gave []
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    args = {**_SCATTER_DESIGN, "num_experiments": 5, "rng": rng, **change}
    with pytest.raises(ValueError, match="p_max|num_experiments"):
        scatter_experiment(4, **args)
    assert rng.bit_generator.state == state
    assert scatter_experiment(4, 0, **_SCATTER_DESIGN) == []


@pytest.mark.parametrize("change,error", [
    (dict(circuits_per_length=True), TypeError), (dict(circuits_per_length=0), ValueError),
    (dict(lengths=(0, 2)), ValueError), (dict(n_qubits=66), ValueError),
    (dict(n_qubits=0), ValueError), (dict(n_qubits=3), ValueError),
    (dict(n_qubits=4.0), TypeError)],
    ids=["count-bool", "count-0", "length-0", "n-66", "n-0", "n-odd", "n-float"])
def test_scatter_experiment_rejects_a_bad_design_before_drawing(change, error):
    # each of these raised only after the experiments' draws had advanced
    # rng, and with no experiments circuits_per_length=True gave []
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    args = {"n_qubits": 4, **_SCATTER_DESIGN, "num_experiments": 5, "rng": rng, **change}
    for count in (5, 0):
        with pytest.raises(error):
            scatter_experiment(**dict(args, num_experiments=count))
    assert rng.bit_generator.state == state
    assert scatter_experiment(4, 0, **_SCATTER_DESIGN) == []


@pytest.mark.parametrize("row", [(4, 0, 100, -5, 0), (4, 0, 0, 5, 0), (0, 0, 100, 5, 0)],
                         ids=["negative-successes", "no-shots", "length-0"])
def test_a_dataset_built_in_memory_rejects_rows_no_experiment_gives(row):
    # fit_decay fitted these: u = 0.0039 without a warning for -5 successes,
    # the same with only a RuntimeWarning for 0 shots, and a degenerate
    # u = 1.0 for L = 0
    with pytest.raises(ValueError, match="dataset row needs"):
        fit_decay(DecayDataset(2, [DatasetEntry(*row), DatasetEntry(8, 1, 100, 50, 1)]))


def test_bootstrap_memory_is_bounded_by_the_grid_chunk():
    # 1000 resamples of the standard n = 10 design (4 lengths x 10 circuits):
    # the traced numpy allocations peak below 2 MB, where ranking all rows
    # on the u grid at once took about 10 MB
    rng = np.random.default_rng(3)
    entries = tuple(
        DatasetEntry(length=length, circuit_id=k, shots=1000, seed=0,
                     successes=int(rng.binomial(1000, 0.95 * 0.9 ** (length - 1) + 2 ** -10)))
        for length in (4, 8, 12, 16) for k in range(10))
    ds = DecayDataset(n_qubits=10, entries=entries)
    bootstrap_ci(ds, resamples=10, rng=0)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        bootstrap_ci(ds, resamples=1000, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_percentiles_are_numpys_linear_rule_bit_for_bit():
    rng = np.random.default_rng(17)
    for size in list(range(1, 41)) + rng.integers(41, 3000, size=1000).tolist():
        values = rng.random(size) if size % 3 else rng.integers(0, 5, size) / 4.0
        q = rng.uniform(0.0, 100.0, size=3) if size % 2 else np.array([16.0, 84.0, 100.0])
        expected = np.percentile(values, q)
        assert _percentiles(values, q).tobytes() == expected.tobytes()


def test_bootstrap_does_not_import_numpy_ma():
    script = (
        "import sys\n"
        "from mirrorbench.analysis import bootstrap_ci\n"
        "from mirrorbench.simulator import DatasetEntry, DecayDataset\n"
        "entries = [DatasetEntry(L, i, 100, 90 - 5 * L + i, 0)\n"
        "           for L in (1, 2, 4) for i in range(3)]\n"
        "bootstrap_ci(DecayDataset(2, entries), resamples=50, rng=1)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(analysis_module.__file__))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_bootstrap_width_shrinks_with_shots():
    # median CI width over seeds shrinks when every circuit gets 16x the shots
    p = 0.02
    noise = NoiseModel(two_qubit=Depolarizing(p))
    widths = {}
    for shots in (50, 800):
        per_seed = []
        for seed in range(8):
            specs = sample_experiment(300 + seed, 2, (4, 8, 12), 5)
            ds = simulate_survival(specs, noise, shots, rng=600 + seed)
            lo, hi = bootstrap_ci(ds, resamples=120, rng=900 + seed)
            per_seed.append(hi - lo)
        widths[shots] = float(np.median(per_seed))
    assert widths[800] < widths[50]


# ---------------------------------------------------------------------------
# Frame potential
# ---------------------------------------------------------------------------


def _dense_layer(unitaries, rng, bits):
    """One random layer applied to a batch of dense unitaries.

    The exact reference for ``_SampledCliffords.apply_layer``: it draws from
    ``rng`` in the same order and multiplies the 2^n x 2^n matrices out.
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
    return unitaries * phase.T[:, :, None]


def _basis_bits(n_qubits):
    d = 2 ** n_qubits
    return (np.arange(d)[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1


def _dense_profile(n_qubits, lengths, samples, seed):
    """(Phi_2, standard error) per length from dense unitaries, in float sums.

    Follows ``frame_potential_profile``'s documented block rule and draw order.
    """
    d = 2 ** n_qubits
    bits = _basis_bits(n_qubits)
    rng = np.random.default_rng(seed)
    values = {x: [] for x in lengths if x > 0}
    block = max(16, min(samples, (1 << 22) // (d * d)))
    remaining = samples
    while remaining > 0:
        m = min(block, remaining)
        unitaries = np.tile(np.eye(d, dtype=complex), (m, 1, 1))
        for depth in range(1, max(lengths) + 1):
            unitaries = _dense_layer(unitaries, rng, bits)
            if depth in values:
                values[depth].append(np.abs(np.einsum("bii->b", unitaries)) ** 4)
        remaining -= m
    out = []
    for x in lengths:
        if x == 0:
            out.append((float(d) ** 4, 0.0))
            continue
        v = np.concatenate(values[x])
        out.append((v.mean(), v.std(ddof=1) / math.sqrt(samples)))
    return out


@pytest.mark.parametrize("n_qubits,samples", [(2, 400), (4, 200), (6, 40), (8, 8)])
def test_trace_squared_equals_dense_trace(n_qubits, samples):
    d = 2 ** n_qubits
    bits = _basis_bits(n_qubits)
    fast_rng = np.random.default_rng(n_qubits)
    dense_rng = np.random.default_rng(n_qubits)
    cliffords = _SampledCliffords(n_qubits, samples)
    unitaries = np.tile(np.eye(d, dtype=complex), (samples, 1, 1))
    for _ in range(6):
        cliffords.apply_layer(fast_rng)
        unitaries = _dense_layer(unitaries, dense_rng, bits)
        dense = np.abs(np.einsum("bii->b", unitaries)) ** 2
        np.testing.assert_allclose(cliffords.trace_squared(), dense, rtol=0, atol=1e-9)


def test_frame_potential_word_holds_every_generator():
    # the 2n generator bits of the widest register the frame potential
    # accepts must fit its word
    n = FRAME_POTENTIAL_QUBIT_LIMIT
    gens = _SampledCliffords(n, 1).generators
    assert np.iinfo(gens.dtype).bits >= 2 * n
    assert gens.tolist() == [1 << j for j in range(2 * n)]


@pytest.mark.parametrize("n_qubits,samples,seed", [(4, 2000, 5), (6, 300, 7)])
def test_frame_potential_profile_equals_dense_oracle(n_qubits, samples, seed):
    lengths = range(0, 17, 2)
    profile = frame_potential_profile(n_qubits, lengths, samples, rng=seed)
    oracle = _dense_profile(n_qubits, lengths, samples, seed)
    assert [e.length for e in profile] == list(lengths)
    for est, (phi2, std_error) in zip(profile, oracle):
        assert est.phi2 == pytest.approx(phi2, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)


def test_frame_potential_zero_length_exact():
    [est] = frame_potential_profile(4, (0,), 128)
    assert est.phi2 == float(2 ** 16)
    assert est.std_error == 0.0


def test_frame_potential_single_layer_two_qubits_matches_enumeration():
    # exact enumeration over 24^2 Clifford pairs and the single matching
    from mirrorbench.operators import CLIFFORD_UNITARIES, UZZ_MATRIX
    total = 0.0
    for i in range(24):
        for j in range(24):
            u = UZZ_MATRIX @ np.kron(CLIFFORD_UNITARIES[i], CLIFFORD_UNITARIES[j])
            total += abs(np.trace(u)) ** 4
    exact = total / 24 ** 2
    [est] = frame_potential_profile(2, (1,), 20000, rng=3)
    assert abs(est.phi2 - exact) <= 3.0 * est.std_error
    assert est.std_error > 0


def test_frame_potential_validation():
    with pytest.raises(ValueError):
        frame_potential_profile(3, (2,), 100)
    with pytest.raises(ValueError):
        frame_potential_profile(10, (2,), 100)
    with pytest.raises(ValueError):
        frame_potential_profile(2, (2,), 1)


def test_frame_potential_rejects_no_lengths():
    with pytest.raises(ValueError, match="need at least one length"):
        frame_potential_profile(4, [], 100)


def test_frame_potential_profile_matches_single_runs_statistically():
    profile = frame_potential_profile(2, (1, 2), 20000, rng=11)
    assert [e.length for e in profile] == [1, 2]
    [single] = frame_potential_profile(2, (2,), 20000, rng=12)
    joint_se = math.hypot(profile[1].std_error, single.std_error)
    assert abs(profile[1].phi2 - single.phi2) <= 4 * joint_se


def test_frame_potential_deterministic_for_seed():
    [a] = frame_potential_profile(2, (3,), 4000, rng=21)
    [b] = frame_potential_profile(2, (3,), 4000, rng=21)
    assert a == b


def _transpose_bits(masks: np.ndarray, width: int) -> np.ndarray:
    """Swap the row axis of ``(rows, m)`` bitmasks with their bit axis.

    Bit r of ``out[f, s]`` is bit f of ``masks[r, s]``; ``out`` has ``width``
    rows and the word type of ``masks``.
    """
    shifts = np.arange(width, dtype=masks.dtype)[:, None]
    out = np.zeros((width, masks.shape[1]), dtype=masks.dtype)
    for r, row in enumerate(masks):
        out |= ((row >> shifts) & 1) << r
    return out


# ``_LETTER_MASK_ROWS`` in the frame potential's 16-bit words; every mask is
# all ones or zero, so it truncates exactly
_LETTER_MASK_ROWS_16 = _LETTER_MASK_ROWS.astype(np.uint16)


class _ReferenceSampledCliffords:
    """The reference for ``analysis._SampledCliffords``: the same draws and
    images, one fresh array per step, through ``operators``' round rules.

    ``operators``' bit-packed layout over the 2n generators X_0..X_{n-1},
    Z_0..Z_{n-1}: bit j of ``x[p, s]`` and ``z[p, s]`` is the X and Z part,
    at physical qubit p, of ``U_s g_j U_s^dagger`` in Hermitian letters, and
    bit j of ``signs[s]`` marks a minus sign.  The words are ``uint16``:
    n <= ``FRAME_POTENTIAL_QUBIT_LIMIT`` = 8, so the 2n generator bits fit.
    Every sample starts at the identity.
    """

    def __init__(self, n_qubits: int, samples: int):
        self.generators = np.uint16(1) << np.arange(2 * n_qubits, dtype=np.uint16)
        self.x = np.repeat(self.generators[:n_qubits, None], samples, axis=1)
        self.z = np.repeat(self.generators[n_qubits:, None], samples, axis=1)
        self.signs = np.zeros(samples, dtype=np.uint16)

    def apply_layer(self, rng: np.random.Generator) -> None:
        """Append one random layer: Cliffords, then UZZ on a random matching.

        The matching of sample s is a uniform permutation ``perm[s]`` of the
        qubits whose consecutive entries pair up, so the qubit at position j
        is paired with the one at position ``j ^ 1``; each qubit's partner
        is read by the flat index of its position, ``perm[s, j] m + s``.
        """
        n, m = self.x.shape
        cliffords = rng.integers(0, 24, size=(m, n))
        perm = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        masks = np.take(_LETTER_MASK_ROWS_16, cliffords.T, axis=1)
        self.signs ^= np.bitwise_xor.reduce(_clifford_signs(self.x, self.z, masks), axis=0)
        self.x, self.z = _clifford_round(self.x, self.z, masks)
        at = perm.T * m + np.arange(m)  # word of position j of sample s, at [j, s]
        x_partner = np.empty_like(self.x)
        x_partner.reshape(-1)[at] = self.x.reshape(-1)[at[np.arange(n) ^ 1]]
        self.signs ^= np.bitwise_xor.reduce(_uzz_signs(self.x, self.z, x_partner), axis=0)
        self.z = _uzz_round(self.x, self.z, x_partner)

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
        images = np.concatenate([self.x, self.z])
        # Row X_p (Z_p) of S + I: the generators whose image has an X (Z)
        # part at qubit p, XOR the generator X_p (Z_p) itself.
        rows = images ^ gens
        # Reduced row echelon form by a scan over the rows: each row in turn,
        # already cleared of the earlier rows' pivot columns, pivots on its
        # lowest set column and clears that column from every other row.
        # The form is unique, so the order of the scan does not matter.
        for r in range(2 * n):
            row = rows[r].copy()
            rows ^= row * ((rows & (row & -row)) != 0)
            rows[r] = row
        # Each nonzero row pivots on its lowest set column, ``lead``, which
        # no other row holds; the other columns are free.  Free column f
        # gives the kernel vector v_f: f and the pivot column of every row
        # that holds f.  Only the (free column, sample) pairs are kept.
        lead = rows & -rows
        free = ~np.bitwise_or.reduce(lead, axis=0)
        column, sample = np.nonzero((free >> np.arange(2 * n, dtype=free.dtype)[:, None]) & 1)
        column = column.astype(rows.dtype)
        held = (rows[:, sample] >> column) & 1
        vectors = (1 << column) | np.bitwise_or.reduce(lead[:, sample] * held, axis=0)
        # Image j is i^phase[j] X^x_img[j] Z^z_img[j]: an i per Y letter, -1
        # per minus sign.  The generators of any v multiply, in ascending
        # order, to X^vx Z^vz with phase 1, so U keeps the sign of that Pauli
        # iff the images of v multiply, in the same order, to phase 1.
        transposed = _transpose_bits(images, 2 * n)[:, sample]
        x_img = transposed & ((1 << n) - 1)
        z_img = transposed >> n
        minus = ((self.signs[sample] & gens) != 0).view(np.uint8)
        phase = np.bitwise_count(x_img & z_img) + 2 * minus
        total = np.zeros(len(sample), dtype=np.uint8)  # phases add mod 4
        z_held = np.zeros_like(vectors)
        for j in range(2 * n):
            bit = ((vectors >> j) & 1).astype(np.uint8)
            total += bit * (phase[j] + 2 * np.bitwise_count(z_held & x_img[j]))
            z_held ^= bit * z_img[j]
        flipped = np.bincount(sample[total % 4 != 0], minlength=m)
        return np.where(flipped == 0, 1 << np.bincount(sample, minlength=m), 0)


@pytest.mark.parametrize("seed", [3, 29])
@pytest.mark.parametrize("n_qubits,samples", [
    (2, 1), (2, 17), (4, 1), (4, 17), (4, 10000), (6, 1), (6, 17), (6, 1024),
    (8, 1), (8, 17), (8, 64)])
def test_sampled_cliffords_equal_reference_every_layer(n_qubits, samples, seed):
    # the work-buffer kernel draws the same values from the same stream and
    # holds the same images, signs and traces, bit for bit, at every depth
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = _SampledCliffords(n_qubits, samples)
    ref = _ReferenceSampledCliffords(n_qubits, samples)
    for _ in range(16):
        fast.apply_layer(fast_rng)
        ref.apply_layer(ref_rng)
        for name in ("x", "z", "signs"):
            assert getattr(fast, name).dtype == np.uint16
            np.testing.assert_array_equal(getattr(fast, name), getattr(ref, name))
        np.testing.assert_array_equal(fast.trace_squared(), ref.trace_squared())
    assert fast_rng.integers(2 ** 63) == ref_rng.integers(2 ** 63)


@pytest.mark.parametrize("n_qubits,samples", [(2, 300), (4, 517), (6, 1100), (8, 100)])
def test_frame_potential_profile_equals_reference_kernel(monkeypatch, n_qubits, samples):
    # a last block shorter than the others (1024 at n = 6, 64 at n = 8) too
    lengths = (0, 1, 2, 5, 9)
    profile = frame_potential_profile(n_qubits, lengths, samples, rng=8)
    monkeypatch.setattr(analysis_module, "_SampledCliffords", _ReferenceSampledCliffords)
    assert profile == frame_potential_profile(n_qubits, lengths, samples, rng=8)


# tracemalloc peaks of ``frame_potential_profile(n, range(0, 17, 2), samples,
# rng=5)`` after a 64-sample call, in bytes, of the kernel that allocated
# fresh arrays at every step; the work-buffer kernel stays within them
_FRAME_POTENTIAL_PEAKS = {2: (10000, 1174600), 4: (10000, 2260728), 6: (4000, 418376),
                          8: (500, 58584)}


@pytest.mark.parametrize("n_qubits", sorted(_FRAME_POTENTIAL_PEAKS))
def test_frame_potential_memory_within_fresh_array_kernel(n_qubits):
    samples, bound = _FRAME_POTENTIAL_PEAKS[n_qubits]
    frame_potential_profile(n_qubits, range(0, 17, 2), 64, rng=5)
    tracemalloc.start()
    try:
        frame_potential_profile(n_qubits, range(0, 17, 2), samples, rng=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound



# ---------------------------------------------------------------------------
# Scatter studies and estimator calibration
# ---------------------------------------------------------------------------


def test_scatter_experiment_points_and_determinism():
    pts = scatter_experiment(2, 3, 0.05, rng=5, lengths=(2, 4), circuits_per_length=3,
                             shots=50)
    assert len(pts) == 3
    for pt in pts:
        assert isinstance(pt, ScatterPoint)
        assert 0.0 <= pt.p <= 0.05
        assert abs(pt.u_true - depolarizing_tensor_unitarity(pt.p, 1)) < 1e-14
        assert 0.0 <= pt.u_est <= 1.0
    again = scatter_experiment(2, 3, 0.05, rng=5, lengths=(2, 4), circuits_per_length=3,
                               shots=50)
    assert pts == again
    with pytest.raises(ValueError, match="two distinct lengths"):
        scatter_experiment(2, 3, 0.05, rng=5, lengths=(4, 4), circuits_per_length=3,
                           shots=50)


def test_scatter_experiment_compiles_a_bounded_chunk_of_experiments(monkeypatch):
    # memory must not grow with the number of experiments: with a budget of
    # two experiments' cells, seven experiments compile in chunks of at most
    # two, and give the points of one chunk holding all seven.  A chunk
    # compiles one stack per length, so its size is the sum of two stacks.
    import mirrorbench.circuits as circuits_module

    compile_stack = circuits_module._circuit_stack
    sizes = []

    def recording(stack, *args):
        sizes.append(len(stack[0]))
        return compile_stack(stack, *args)

    def per_chunk():
        assert len(sizes) % 2 == 0 and sizes[::2] == sizes[1::2]
        return [a + b for a, b in zip(sizes[::2], sizes[1::2])]

    monkeypatch.setattr(circuits_module, "_circuit_stack", recording)
    kwargs = dict(rng=5, lengths=(2, 4), circuits_per_length=3, shots=50)
    whole = scatter_experiment(2, 7, 0.05, **kwargs)
    assert per_chunk() == [42]
    sizes.clear()
    monkeypatch.setattr(analysis_module, "_SCATTER_CELLS", 2 * 3 * (2 + 4) * 2)
    assert scatter_experiment(2, 7, 0.05, **kwargs) == whole
    assert per_chunk() == [12, 12, 12, 6]


def test_scatter_experiment_memory_within_per_batch_tables():
    # each table slice of a stack builds its own table, as run's batches do:
    # the tracemalloc peak of this study stays within 1,792,219 bytes
    scatter_experiment(4, 1, 0.02, rng=1, shots=10)
    tracemalloc.start()
    try:
        scatter_experiment(4, 10, 0.02, rng=123, shots=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1792219


def _scatter_reference(n_qubits, num_experiments, p_max, seed, lengths,
                       circuits_per_length, shots, cells):
    """Scatter points one experiment at a time through the public pipeline,
    sample_experiment -> simulate_survival ->
    survival_points, fitted per chunk of experiments with _fit_rows."""
    rng = np.random.default_rng(seed)
    draws = [(float(rng.uniform(0.0, p_max)), int(rng.integers(0, 2 ** 63 - 1)),
              int(rng.integers(0, 2 ** 63 - 1))) for _ in range(num_experiments)]
    chunk = max(1, cells // (circuits_per_length * sum(lengths) * n_qubits))
    points = []
    for start in range(0, num_experiments, chunk):
        group = draws[start:start + chunk]
        rows = [survival_points(simulate_survival(
                    sample_experiment(gen_seed, n_qubits, lengths, circuits_per_length),
                    NoiseModel(two_qubit=Depolarizing(p)), shots, rng=sim_seed))
                for p, gen_seed, sim_seed in group]
        _, u_est, _ = _fit_rows(rows[0][0], np.array([row[1] for row in rows]),
                                np.array([row[2] for row in rows]), 1.0 / 2 ** n_qubits)
        points += [ScatterPoint(p, depolarizing_tensor_unitarity(p, n_qubits // 2), float(u))
                   for (p, _, _), u in zip(group, u_est)]
    return points


@pytest.mark.parametrize("n_qubits,lengths,circuits", [
    (2, (1, 3, 1), 3), (4, (2, 5), 3), (10, (1, 2, 4), 10), (64, (1, 3), 3)])
def test_scatter_experiment_is_the_per_experiment_pipeline(monkeypatch, n_qubits, lengths,
                                                           circuits):
    # bit for bit, over consecutive seeds, with chunks of two experiments;
    # at n = 10 each mean is over 10 circuits, enough for the order of the
    # sum to show, and at n = 64 a small table budget cuts each stack into
    # slices
    import mirrorbench.simulator as simulator_module

    cells = 2 * circuits * sum(lengths) * n_qubits
    monkeypatch.setattr(analysis_module, "_SCATTER_CELLS", cells)
    if n_qubits == 64:
        monkeypatch.setattr(simulator_module, "_TABLE_WORDS", 16 * 2 * 3 * 32)
    for seed in range(20):
        assert scatter_experiment(n_qubits, 5, 0.05, rng=seed, lengths=lengths,
                                  circuits_per_length=circuits, shots=40) == \
            _scatter_reference(n_qubits, 5, 0.05, seed, lengths, circuits, 40, cells)


def test_estimator_calibration_at_fixed_noise():
    # mean(u_est - u_true) consistent with zero across repeated experiments
    p = 0.02
    u_true = depolarizing_tensor_unitarity(p, 1)
    noise = NoiseModel(two_qubit=Depolarizing(p))
    diffs = []
    for k in range(50):
        specs = sample_experiment(1000 + k, 2, (4, 8, 12, 16), 10)
        ds = simulate_survival(specs, noise, 400, rng=2000 + k)
        diffs.append(fit_decay(ds).u - u_true)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se
