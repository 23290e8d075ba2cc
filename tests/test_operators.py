"""Pauli algebra, the 24 single-qubit Cliffords, and the Z-observable rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorbench.operators import (
    _CLIFF_COMPOSE,
    _CLIFF_INVERSE,
    _CLIFF_WORDS,
    _LETTER_IMAGES,
    _PAULI_CLIFF_INDEX,
    CLIFFORD_UNITARIES,
    UZZ_MATRIX,
)

from pauli_reference import (
    CliffordGate,
    NativeGate,
    PauliOperator,
    ZObservables,
    conjugate_by_clifford,
    conjugate_by_uzz,
    pauli_multiply,
    sample_clifford,
    sample_pauli,
    x_image,
    z_image,
)

from conftest import (
    PAULIS_1Q,
    UZZ_REF,
    all_pauli_labels,
    pauli_matrix_from_label,
)


def random_pauli(rng, n):
    p = sample_pauli(rng, n)
    # random phase so tests exercise the full signed algebra
    phase = (1j) ** int(rng.integers(0, 4))
    return PauliOperator(n, p.x, p.z, p.phase * phase)


# ---------------------------------------------------------------------------
# Pauli labels, matrices, multiplication
# ---------------------------------------------------------------------------


def test_label_round_trip_single_qubit():
    for prefix, sign in (("+", 1), ("-", -1), ("+i", 1j), ("-i", -1j)):
        for letter in "IXYZ":
            label = prefix + letter
            p = PauliOperator.from_label(label)
            assert p.to_label() == label
            np.testing.assert_array_equal(
                p.to_matrix(), sign * PAULIS_1Q[letter])


def test_label_round_trip_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n)
        q = PauliOperator.from_label(p.to_label())
        assert q == p


def test_to_matrix_matches_kron_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        label = p.to_label()
        sign = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}[
            label[:2] if label[1] == "i" else label[0]]
        body = label[2:] if label[1] == "i" else label[1:]
        ref = sign * pauli_matrix_from_label(body)
        np.testing.assert_array_equal(p.to_matrix(), ref)


def test_qubit_zero_is_leftmost_kron_factor():
    p = PauliOperator.from_label("+XI")
    np.testing.assert_array_equal(p.to_matrix(), np.kron(PAULIS_1Q["X"], np.eye(2)))


def test_multiply_matches_matrix_product(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        q = random_pauli(rng, n)
        prod = pauli_multiply(p, q)
        np.testing.assert_array_equal(prod.to_matrix(), p.to_matrix() @ q.to_matrix())
        assert (p * q) == prod


def test_adjoint_matches_dagger(rng):
    for _ in range(60):
        p = random_pauli(rng, int(rng.integers(1, 4)))
        np.testing.assert_array_equal(p.adjoint().to_matrix(), p.to_matrix().conj().T)


def test_commutation_matches_matrices(rng):
    for _ in range(80):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        q = random_pauli(rng, n)
        comm = p.to_matrix() @ q.to_matrix() - q.to_matrix() @ p.to_matrix()
        assert p.commutes_with(q) == bool(np.allclose(comm, 0))


def test_weight_and_identity():
    p = PauliOperator.from_label("+XIYZ")
    assert p.weight == 3
    assert not p.is_identity()
    minus_id = PauliOperator.from_label("-II")
    assert minus_id.is_identity(up_to_phase=True)
    assert not minus_id.is_identity()
    assert PauliOperator.identity(3).is_identity()


def test_phase_canonicalization_rejects_bad_phase():
    with pytest.raises(ValueError):
        PauliOperator(1, 0, 0, phase=0.5 + 0.5j)


# ---------------------------------------------------------------------------
# Single-qubit Clifford group
# ---------------------------------------------------------------------------


def test_clifford_group_has_24_distinct_elements():
    flat = CLIFFORD_UNITARIES.reshape(24, 4)
    for i in range(24):
        for j in range(i + 1, 24):
            u, v = flat[i], flat[j]
            # equal up to global phase would make them the same element
            inner = abs(np.vdot(u, v))
            assert inner < 2.0 - 1e-9


def test_clifford_identity_is_index_zero():
    assert _CLIFF_WORDS[0] == ()
    np.testing.assert_allclose(CLIFFORD_UNITARIES[0], np.eye(2), atol=1e-12)
    every = np.arange(24)
    np.testing.assert_array_equal(_CLIFF_COMPOSE[0], every)
    np.testing.assert_array_equal(_CLIFF_COMPOSE[:, 0], every)


def test_named_cliffords_match_literals():
    from conftest import H2, S2
    for word, ref in ((("h",), H2), (("s",), S2)):
        u = CLIFFORD_UNITARIES[_CLIFF_WORDS.index(word)]
        phase = np.vdot(ref, u) / 2
        np.testing.assert_allclose(u, phase * ref, atol=1e-12)
        assert abs(abs(phase) - 1) < 1e-12


def test_unitaries_are_products_of_their_words():
    from conftest import H2, S2
    assert len(set(_CLIFF_WORDS)) == 24
    for c, word in enumerate(_CLIFF_WORDS):
        u = np.eye(2, dtype=complex)
        for letter in word:  # time order
            u = {"h": H2, "s": S2}[letter] @ u
        np.testing.assert_allclose(CLIFFORD_UNITARIES[c], u, atol=1e-12)


def test_compose_table_matches_matrix_product():
    for i in range(24):
        for j in range(24):
            prod = CLIFFORD_UNITARIES[i] @ CLIFFORD_UNITARIES[j]
            c = CLIFFORD_UNITARIES[_CLIFF_COMPOSE[i, j]]
            overlap = abs(np.trace(c.conj().T @ prod)) / 2
            assert abs(overlap - 1) < 1e-10


def test_inverse_table():
    for i in range(24):
        assert _CLIFF_COMPOSE[i, _CLIFF_INVERSE[i]] == 0
        assert _CLIFF_COMPOSE[_CLIFF_INVERSE[i], i] == 0


def test_clifford_images_match_dense_conjugation():
    x = PAULIS_1Q["X"]
    z = PAULIS_1Q["Z"]
    y = PAULIS_1Q["Y"]
    for c in range(24):
        u = CLIFFORD_UNITARIES[c]
        # the Y image is read from the letter table, as ZObservables reads it
        to_x, to_z, minus = _LETTER_IMAGES[c][2]
        y_image = (-1) ** minus * PAULIS_1Q["IXZY"[to_x + 2 * to_z]]
        for image, base in ((x_image(c).to_matrix(), x), (z_image(c).to_matrix(), z),
                            (y_image, y)):
            ref = u @ base @ u.conj().T
            np.testing.assert_allclose(image, ref, atol=1e-12)


def test_from_pauli_code():
    for code, label in enumerate("IXYZ"):
        u = CLIFFORD_UNITARIES[_PAULI_CLIFF_INDEX[code]]
        ref = PAULIS_1Q[label]
        overlap = abs(np.trace(u.conj().T @ ref)) / 2
        assert abs(overlap - 1) < 1e-12


def test_sample_clifford_deterministic_and_in_range():
    rng = np.random.default_rng(3)
    seq = [sample_clifford(rng) for _ in range(50)]
    rng = np.random.default_rng(3)
    assert seq == [sample_clifford(rng) for _ in range(50)]
    assert set(seq) <= set(range(24))
    assert len(set(seq)) > 10


def test_sample_pauli_deterministic(rng):
    p = sample_pauli(rng, 8)
    assert p.n_qubits == 8
    assert p.phase in (1, 1j, -1, -1j)


# ---------------------------------------------------------------------------
# Conjugation by gates
# ---------------------------------------------------------------------------


def _embed(mat, qubits, n):
    """Embed a 1- or 2-qubit matrix densely, qubit 0 leftmost."""
    if len(qubits) == 1:
        factors = [PAULIS_1Q["I"]] * n
        factors[qubits[0]] = mat
        out = factors[0]
        for f in factors[1:]:
            out = np.kron(out, f)
        return out
    a, b = qubits
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    for idx in range(d):
        for jdx in range(d):
            ia, ib = (idx >> (n - 1 - a)) & 1, (idx >> (n - 1 - b)) & 1
            ja, jb = (jdx >> (n - 1 - a)) & 1, (jdx >> (n - 1 - b)) & 1
            rest_i = idx & ~((1 << (n - 1 - a)) | (1 << (n - 1 - b)))
            rest_j = jdx & ~((1 << (n - 1 - a)) | (1 << (n - 1 - b)))
            if rest_i == rest_j:
                out[idx, jdx] = mat[2 * ia + ib, 2 * ja + jb]
    return out


def test_uzz_matrix_literal():
    np.testing.assert_allclose(UZZ_MATRIX, UZZ_REF, atol=1e-15)


def test_conjugate_by_clifford_matches_dense(rng):
    n = 3
    for _ in range(60):
        p = random_pauli(rng, n)
        qubit = int(rng.integers(n))
        c = sample_clifford(rng)
        got = conjugate_by_clifford(p, c, qubit)
        u = _embed(CLIFFORD_UNITARIES[c], (qubit,), n)
        ref = u @ p.to_matrix() @ u.conj().T
        np.testing.assert_allclose(got.to_matrix(), ref, atol=1e-10)


def test_conjugate_by_uzz_all_two_qubit_paulis():
    for label in all_pauli_labels(2):
        p = PauliOperator.from_label("+" + label)
        got = conjugate_by_uzz(p, (0, 1))
        ref = UZZ_REF @ p.to_matrix() @ UZZ_REF.conj().T
        np.testing.assert_allclose(got.to_matrix(), ref, atol=1e-12)


def test_conjugate_by_uzz_embedded(rng):
    n = 4
    u = _embed(UZZ_REF, (1, 3), n)
    for _ in range(40):
        p = random_pauli(rng, n)
        got = conjugate_by_uzz(p, (1, 3))
        ref = u @ p.to_matrix() @ u.conj().T
        np.testing.assert_allclose(got.to_matrix(), ref, atol=1e-10)


# ---------------------------------------------------------------------------
# Z-observable pass
# ---------------------------------------------------------------------------


@st.composite
def gate_lists(draw):
    """A qubit count and any gate list on it, mirror or not."""
    n = draw(st.integers(2, 6))
    clifford_gate = st.builds(CliffordGate, st.integers(0, n - 1),
                              st.integers(0, 23))
    uzz_gate = st.permutations(range(n)).map(lambda perm: NativeGate(tuple(perm[:2])))
    return n, draw(st.lists(st.one_of(clifford_gate, uzz_gate), max_size=30))


def _signed_image(observables, q, n):
    """Observable q of the pass as a canonical PauliOperator."""
    x = sum(((observables.x[p] >> q) & 1) << p for p in range(n))
    z = sum(((observables.z[p] >> q) & 1) << p for p in range(n))
    sign = -1 if (observables.signs >> q) & 1 else 1
    return PauliOperator(n, x, z, sign * 1j ** (x & z).bit_count())


@settings(max_examples=200, deadline=None)
@given(gate_lists())
def test_z_observables_match_pauli_conjugation(case):
    n, gates = case
    observables = ZObservables(n)
    images = [PauliOperator(n, 0, 1 << q) for q in range(n)]
    for gate in gates:
        observables.apply(gate)
        if isinstance(gate, CliffordGate):
            images = [conjugate_by_clifford(p, gate.clifford, gate.qubit) for p in images]
        else:
            images = [conjugate_by_uzz(p, gate.qubits) for p in images]
        assert [_signed_image(observables, q, n) for q in range(n)] == images
    if all(p.x == 0 and p.z == 1 << q for q, p in enumerate(images)):
        assert observables.outcome() == tuple(int(p.phase == -1) for p in images)
    else:
        with pytest.raises(ValueError, match="not a mirror"):
            observables.outcome()
