"""Channel algebra in the Pauli basis: construction, invariants, decay law."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mirrorbench.channels import (
    AmplitudeDamping,
    DecayLawParams,
    Depolarizing,
    StochasticPauli,
    UnitaryError,
    computational_state_vector,
    depolarizing_tensor_unitarity,
    f_value,
    fidelity_bounds,
    inverse_half_channel,
    nonunital_split,
    pauli_labels,
    pi1,
    pi2,
    process_fidelity,
    random_stochastic_pauli,
    single_qubit_clifford_group,
    stochastic_pauli_tensor,
    superop_of,
    superop_of_unitary,
    t_sequence,
    twirl_over_group,
    unitarity,
)

from conftest import (
    PAULIS_1Q,
    all_pauli_labels,
    pauli_matrix_from_label,
    ptm_of_kraus_ref,
    ptm_of_unitary_ref,
)


def test_pauli_labels_order():
    assert list(pauli_labels(1)) == ["I", "X", "Y", "Z"]
    assert list(pauli_labels(2))[:5] == ["II", "IX", "IY", "IZ", "XI"]
    assert len(pauli_labels(3)) == 64
    assert list(pauli_labels(2)) == all_pauli_labels(2)


def test_superop_of_unitary_matches_reference(rng):
    for n in (1, 2):
        d = 2 ** n
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u = expm(1j * (h + h.conj().T))
        got = superop_of_unitary(u)
        np.testing.assert_allclose(got, ptm_of_unitary_ref(u), atol=1e-12)
        assert np.allclose(got[0], pi1(d)[0], atol=1e-10)  # trace preserving
        assert np.allclose(got[:, 0], pi1(d)[:, 0], atol=1e-10)  # unital


def test_depolarizing_ptm_is_uniform_contraction():
    for n, p in ((1, 0.1), (2, 0.35)):
        op = superop_of(Depolarizing(p), n)
        ref = np.eye(4 ** n) * (1.0 - p)
        ref[0, 0] = 1.0
        np.testing.assert_allclose(op, ref, atol=1e-14)


def test_stochastic_pauli_matches_kraus_reference():
    probs = (0.05, 0.02, 0.03)  # X, Y, Z in label order
    op = superop_of(StochasticPauli(probs), 1)
    p0 = 1.0 - sum(probs)
    kraus = [math.sqrt(p0) * PAULIS_1Q["I"],
             math.sqrt(probs[0]) * PAULIS_1Q["X"],
             math.sqrt(probs[1]) * PAULIS_1Q["Y"],
             math.sqrt(probs[2]) * PAULIS_1Q["Z"]]
    np.testing.assert_allclose(op, ptm_of_kraus_ref(kraus, 1), atol=1e-12)


def test_stochastic_pauli_two_qubit_order():
    # a lone IX error: probability vector indexed by pauli_labels(2)[1:]
    probs = np.zeros(15)
    probs[0] = 0.25  # "IX"
    op = superop_of(StochasticPauli(tuple(probs)), 2)
    kraus = [math.sqrt(0.75) * np.eye(4),
             math.sqrt(0.25) * pauli_matrix_from_label("IX")]
    np.testing.assert_allclose(op, ptm_of_kraus_ref(kraus, 2), atol=1e-12)


def test_stochastic_pauli_validation():
    with pytest.raises(ValueError):
        StochasticPauli((0.5, 0.6, 0.2))  # sums above one
    with pytest.raises(ValueError):
        StochasticPauli((0.1, -0.01, 0.0))
    with pytest.raises(ValueError):
        StochasticPauli((0.1, 0.1))  # not 4^m - 1 entries


@pytest.mark.parametrize("slot", range(3))
def test_stochastic_pauli_rejects_a_nan_probability(slot):
    # NaN fails every comparison, so a range check written as "p < 0 or
    # p > 1" lets it through and the channel draws no fault
    for size in (3, 15):  # one qubit and two
        probs = [0.001] * size
        probs[slot] = math.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            StochasticPauli(tuple(probs))


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_unitary_error_rejects_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        UnitaryError("XI", theta)


def test_unitary_error_matches_expm():
    for axis, theta in (("Z", 0.3), ("X", -0.7), ("ZZ", 0.25)):
        n = len(axis)
        op = superop_of(UnitaryError(axis, theta), n)
        u = expm(-0.5j * theta * pauli_matrix_from_label(axis))
        np.testing.assert_allclose(op, ptm_of_unitary_ref(u), atol=1e-12)


def test_amplitude_damping_matches_kraus():
    gamma = 0.23
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    one = superop_of(AmplitudeDamping(gamma), 1)
    np.testing.assert_allclose(one, ptm_of_kraus_ref([k0, k1], 1), atol=1e-12)
    assert np.allclose(one[0], pi1(2)[0], atol=1e-10)  # trace preserving
    assert not np.allclose(one[:, 0], pi1(2)[:, 0], atol=1e-10)  # not unital
    # two-qubit version is the kron of per-qubit PTMs
    two = superop_of(AmplitudeDamping(gamma), 2)
    kraus2 = [np.kron(a, b) for a in (k0, k1) for b in (k0, k1)]
    np.testing.assert_allclose(two, ptm_of_kraus_ref(kraus2, 2), atol=1e-12)


def test_tensor_and_stochastic_pauli_tensor():
    a = StochasticPauli((0.04, 0.01, 0.02))
    b = StochasticPauli((0.03, 0.02, 0.05))
    combined = superop_of(stochastic_pauli_tensor(a, b), 2)
    ref = np.kron(superop_of(a, 1), superop_of(b, 1))
    np.testing.assert_allclose(combined, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def test_f_fidelity_unitarity_depolarizing():
    p = 0.1
    op = superop_of(Depolarizing(p), 1)
    assert abs(f_value(op) - (1 - p)) < 1e-14
    assert abs(process_fidelity(op) - (1 - 0.75 * p)) < 1e-14
    assert abs(unitarity(op) - (1 - p) ** 2) < 1e-14


def test_unitarity_frozen_value():
    op = superop_of(Depolarizing(0.01), 1)
    assert abs(unitarity(op) - 0.9801) < 1e-12


def test_unitarity_of_unitary_channel_is_one(rng):
    op = superop_of(UnitaryError("Z", 0.4), 1)
    assert abs(unitarity(op) - 1.0) < 1e-12


def test_projectors():
    for d in (2, 4):
        p1 = pi1(d)
        p2 = pi2(d)
        np.testing.assert_allclose(p1 + p2, np.eye(d * d), atol=1e-15)
        np.testing.assert_allclose(p1 @ p1, p1, atol=1e-15)
        np.testing.assert_allclose(p2 @ p2, p2, atol=1e-15)
        assert p1[0, 0] == 1.0 and np.trace(p2) == d * d - 1


def test_twirl_is_depolarizing_projection(rng):
    assert len(single_qubit_clifford_group()) == 24
    for _ in range(5):
        op = superop_of(random_stochastic_pauli(rng), 1)
        tw = twirl_over_group(op)
        f = f_value(op)
        ref = pi1(2) + f * pi2(2)
        np.testing.assert_allclose(tw, ref, atol=1e-12)


def test_t_sequence_recursion_shape(rng):
    op = superop_of(random_stochastic_pauli(rng), 1)
    f = f_value(op)
    u = unitarity(op)
    for ell in range(1, 7):
        t = t_sequence(op, length=ell)
        ref = pi1(2) + f * u ** (ell - 1) * pi2(2)
        assert np.max(np.abs(t - ref)) < 1e-10


def test_t_sequence_nonunital_inverse_pairing():
    # amplitude damping is not unital; the transpose-based inverse-half
    # channel still reproduces the unitarity-governed contraction
    op = superop_of(AmplitudeDamping(0.3), 1)
    u = unitarity(op)
    f = f_value(op)
    for ell in range(1, 6):
        t = t_sequence(op, op_inv=inverse_half_channel(op), length=ell)
        ref = pi1(2) + f * u ** (ell - 1) * pi2(2)
        assert np.max(np.abs(t - ref)) < 1e-10


def test_nonunital_split_reassembles():
    op = superop_of(AmplitudeDamping(0.4), 1)
    e_n, e_u = nonunital_split(op)
    np.testing.assert_allclose(pi1(2) + e_n + e_u, op, atol=1e-14)
    # unital part has empty first row and column
    assert np.allclose(e_u[0, :], 0) and np.allclose(e_u[:, 0], 0)
    # nonunital part lives in the first column below the unit entry
    assert np.allclose(e_n[0, :], 0) and np.allclose(e_n[1:, 1:], 0)


def test_inverse_half_channel_v_factor_equals_unitarity():
    for gamma in (0.1, 0.3, 0.55):
        op = superop_of(AmplitudeDamping(gamma), 1)
        inv = inverse_half_channel(op)
        d = 2
        v = np.trace(pi2(d) @ inv @ pi2(d) @ op) / (d * d - 1)
        assert abs(v - unitarity(op)) < 1e-12


def test_fidelity_bounds_hold_and_saturate(rng):
    for _ in range(100):
        op = superop_of(random_stochastic_pauli(rng), 1)
        lo, hi = fidelity_bounds(unitarity(op), 2)
        fid = process_fidelity(op)
        assert lo - 1e-12 <= fid <= hi + 1e-12
    dep = superop_of(Depolarizing(0.2), 1)
    _, hi = fidelity_bounds(unitarity(dep), 2)
    assert abs(process_fidelity(dep) - hi) < 1e-10


def test_depolarizing_tensor_unitarity_against_ptm():
    for n_pairs in (1, 2):
        for p in (0.0, 0.01, 0.1, 1.0):
            pair = superop_of(Depolarizing(p), 2)
            direct = unitarity(pair if n_pairs == 1 else np.kron(pair, pair))
            closed = depolarizing_tensor_unitarity(p, n_pairs)
            assert abs(direct - closed) < 1e-10


def test_depolarizing_tensor_unitarity_frozen_values():
    assert abs(depolarizing_tensor_unitarity(0.01, 1) - 0.9801) < 1e-10
    assert abs(depolarizing_tensor_unitarity(0.01, 2) - 0.9628905970588234) < 1e-10


# ---------------------------------------------------------------------------
# States, effects, decay law
# ---------------------------------------------------------------------------


def test_computational_vectors_single_qubit():
    r = computational_state_vector(1, 0)
    ref = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    np.testing.assert_allclose(r, ref, atol=1e-15)
    assert abs(r @ r - 1.0) < 1e-14  # the projector effect |0><0| has r's coordinates


def test_computational_vectors_norm_and_overlap(rng):
    n = 3
    bits = int(rng.integers(0, 2 ** n))
    other = bits ^ (2 ** n - 1)
    r = computational_state_vector(n, bits)
    assert abs(r @ r - 1.0) < 1e-12
    assert abs(computational_state_vector(n, other) @ r) < 1e-12


def test_decay_law_ideal_spam_single_qubit(rng):
    op = superop_of(random_stochastic_pauli(rng), 1)
    params = DecayLawParams.from_channel(
        op,
        computational_state_vector(1, 0),
        computational_state_vector(1, 0),
    )
    assert abs(params.amplitude - 0.5) < 1e-12
    assert abs(params.baseline - 0.5) < 1e-12
    assert abs(params.f - f_value(op)) < 1e-12
    assert abs(params.u - unitarity(op)) < 1e-12
    # p(L) = A f u^{L-1} + B
    pred = params.predict(3)
    ref = 0.5 * params.f * params.u ** 2 + 0.5
    assert abs(pred - ref) < 1e-14


def test_random_stochastic_pauli_is_valid_and_seeded():
    a = random_stochastic_pauli(np.random.default_rng(11))
    b = random_stochastic_pauli(np.random.default_rng(11))
    assert a == b
    assert all(p >= 0 for p in a.probs)
    assert sum(a.probs) <= 1.0 + 1e-12


def test_superop_validation():
    with pytest.raises(ValueError):
        Depolarizing(1.5)
    with pytest.raises(ValueError):
        AmplitudeDamping(-0.1)


# every public function that takes a PTM checks its shape: a square
# (4^k, 4^k) matrix with 1 <= k <= 4
_PTM_TAKERS = {
    "f_value": f_value,
    "process_fidelity": process_fidelity,
    "unitarity": unitarity,
    "t_sequence": t_sequence,
    "nonunital_split": nonunital_split,
    "inverse_half_channel": inverse_half_channel,
    "DecayLawParams.from_channel": lambda op: DecayLawParams.from_channel(
        op, computational_state_vector(1, 0), computational_state_vector(1, 0)),
}
_MALFORMED = {
    "not-square": np.eye(4)[:, :3],
    "not-4^k": np.eye(3),
    "k=5": np.zeros((4 ** 5, 4 ** 5)),
}


@pytest.mark.parametrize("shape", sorted(_MALFORMED))
@pytest.mark.parametrize("name", sorted(_PTM_TAKERS))
def test_ptm_functions_reject_malformed_matrices(name, shape):
    with pytest.raises(ValueError):
        _PTM_TAKERS[name](_MALFORMED[shape])


def test_t_sequence_rejects_two_qubit_ptms():
    # the twirl is over the single-qubit Cliffords only
    op = superop_of(Depolarizing(0.1), 2)
    with pytest.raises(ValueError):
        t_sequence(op)
    with pytest.raises(ValueError):
        twirl_over_group(op)
