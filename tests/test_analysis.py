"""Decay fitting, bootstrap intervals, frame potential, scatter studies."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from mirrorbench.analysis import (
    FitResult,
    ScatterPoint,
    _SampledCliffords,
    _fit_rows,
    _length_groups,
    _resample_points,
    bootstrap_ci,
    fit_decay,
    frame_potential,
    frame_potential_profile,
    scatter_experiment,
    survival_points,
)
from mirrorbench.channels import Depolarizing, depolarizing_tensor_unitarity
from mirrorbench.circuits import sample_experiment
from mirrorbench.operators import CLIFFORD_UNITARIES
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


@pytest.mark.parametrize("n_qubits,samples", [(2, 400), (4, 200), (6, 40)])
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
    est = frame_potential(4, 0, 128)
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
    est = frame_potential(2, 1, 20000, rng=3)
    assert abs(est.phi2 - exact) <= 3.0 * est.std_error
    assert est.std_error > 0


def test_frame_potential_validation():
    with pytest.raises(ValueError):
        frame_potential(3, 2, 100)
    with pytest.raises(ValueError):
        frame_potential(10, 2, 100)
    with pytest.raises(ValueError):
        frame_potential(2, 2, 1)


def test_frame_potential_profile_matches_single_runs_statistically():
    profile = frame_potential_profile(2, (1, 2), 20000, rng=11)
    assert [e.length for e in profile] == [1, 2]
    single = frame_potential(2, 2, 20000, rng=12)
    joint_se = math.hypot(profile[1].std_error, single.std_error)
    assert abs(profile[1].phi2 - single.phi2) <= 4 * joint_se


def test_frame_potential_deterministic_for_seed():
    a = frame_potential(2, 3, 4000, rng=21)
    b = frame_potential(2, 3, 4000, rng=21)
    assert a == b


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
