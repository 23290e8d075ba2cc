"""Mirror circuit sampling, compilation, serialization, and QASM export."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorbench.circuits import (
    CompiledCircuit,
    LayerSpec,
    MirrorCircuitSpec,
    build_mirror_circuit,
    circuit_from_json,
    circuit_to_json,
    load_circuit,
    mirror_circuit_spec,
    sample_experiment,
    sample_layer,
    sample_matching,
    save_circuit,
    to_qasm,
)
from mirrorbench.operators import (
    CliffordGate,
    NativeGate,
    SingleQubitClifford,
    clifford_named,
)

from conftest import H2, S2, UZZ_REF, kron_all


# ---------------------------------------------------------------------------
# Dense unitaries (qubit 0 is the most significant basis bit)
# ---------------------------------------------------------------------------


def _embed_1q_unitary(mat: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for q in range(n_qubits):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


def _uzz_layer_diag(matching, n_qubits: int) -> np.ndarray:
    d = 2 ** n_qubits
    idx = np.arange(d)
    diag = np.ones(d, dtype=complex)
    for a, b in matching:
        bit_a = (idx >> (n_qubits - 1 - a)) & 1
        bit_b = (idx >> (n_qubits - 1 - b)) & 1
        sgn = np.where(bit_a == bit_b, 1.0, -1.0)
        diag *= np.exp(-1j * np.pi / 4.0 * sgn)
    return diag


def unitary_of(layers, n_qubits: int) -> np.ndarray:
    """Dense unitary of the forward half (no Paulis); L = 0 gives identity."""
    d = 2 ** n_qubits
    total = np.eye(d, dtype=complex)
    for layer in layers:
        cmat = np.array([[1.0 + 0j]])
        for c in layer.cliffords:
            cmat = np.kron(cmat, c.unitary)
        total = cmat @ total
        total = _uzz_layer_diag(layer.matching, n_qubits)[:, None] * total
    return total


def compiled_unitary(circuit: CompiledCircuit) -> np.ndarray:
    """Dense unitary of the executed gate list."""
    d = 2 ** circuit.n_qubits
    total = np.eye(d, dtype=complex)
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            mat = _embed_1q_unitary(gate.clifford.unitary, gate.qubit,
                                    circuit.n_qubits)
            total = mat @ total
        else:
            total = _uzz_layer_diag([gate.qubits], circuit.n_qubits)[:, None] * total
    return total


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_matching_covers_all_qubits(rng):
    for n in (2, 4, 6, 8):
        matching = sample_matching(rng, n)
        flat = [q for pair in matching for q in pair]
        assert sorted(flat) == list(range(n))
        assert len(matching) == n // 2


def test_sample_matching_two_qubits_is_fixed(rng):
    assert sample_matching(rng, 2) == ((0, 1),)


def test_sample_layer_structure(rng):
    layer = sample_layer(rng, 6)
    assert isinstance(layer, LayerSpec)
    assert len(layer.cliffords) == 6
    assert all(0 <= c.index < 24 for c in layer.cliffords)


def test_mirror_circuit_spec_deterministic():
    a = mirror_circuit_spec(123, 4, 5)
    b = mirror_circuit_spec(123, 4, 5)
    assert a == b
    assert len(a.layers) == 5
    assert len(a.randomizing_paulis) == 10
    c = mirror_circuit_spec(124, 4, 5)
    assert c != a


def test_sample_experiment_shape_and_ids():
    specs = sample_experiment(7, 4, (2, 4), 3)
    assert len(specs) == 6
    assert [s.length for s in specs] == [2, 2, 2, 4, 4, 4]
    assert [s.circuit_id for s in specs] == [0, 1, 2, 3, 4, 5]
    again = sample_experiment(7, 4, (2, 4), 3)
    assert specs == again


def test_spec_validation():
    with pytest.raises(ValueError):
        mirror_circuit_spec(1, 3, 2)  # odd qubit count
    with pytest.raises(ValueError):
        mirror_circuit_spec(1, 2, 0)  # zero length


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def test_compiled_gate_counts():
    for seed, n, length in ((0, 2, 1), (1, 4, 3), (2, 6, 4)):
        circuit = build_mirror_circuit(mirror_circuit_spec(seed, n, length))
        sq = [g for g in circuit.gates if isinstance(g, CliffordGate)]
        uzz = [g for g in circuit.gates if isinstance(g, NativeGate)]
        assert len(sq) == 2 * length * n
        assert len(uzz) == 2 * length * (n // 2)
        assert circuit.mirror_start == length * (n + n // 2)
        assert len(circuit.expected_outcome) == n


def test_one_clifford_per_qubit_per_round():
    circuit = build_mirror_circuit(mirror_circuit_spec(5, 4, 3))
    rounds = []
    current = {}
    for g in circuit.gates:
        if isinstance(g, CliffordGate):
            assert g.qubit not in current
            current[g.qubit] = g
            if len(current) == 4:
                rounds.append(current)
                current = {}
        else:
            assert not current  # UZZ layers sit between complete rounds
    assert len(rounds) == 6


def _success_probability(circuit: CompiledCircuit) -> float:
    """Probability of the expected outcome on the noiseless compiled circuit."""
    n = circuit.n_qubits
    u = compiled_unitary(circuit)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    state = u @ state
    index = 0
    for q, bit in enumerate(circuit.expected_outcome):
        index |= int(bit) << (n - 1 - q)
    return float(abs(state[index]) ** 2)


def test_noiseless_compiled_circuit_is_deterministic():
    for seed in range(6):
        circuit = build_mirror_circuit(mirror_circuit_spec(seed, 2, int(1 + seed % 4)))
        assert abs(_success_probability(circuit) - 1.0) < 1e-9


def test_noiseless_compiled_circuit_four_qubits():
    circuit = build_mirror_circuit(mirror_circuit_spec(42, 4, 3))
    assert abs(_success_probability(circuit) - 1.0) < 1e-9


def test_compiled_unitary_equals_pauli_times_mirror_identity():
    # the executed circuit acts as a Pauli operator: all basis states map to
    # definite basis states with unit probability
    circuit = build_mirror_circuit(mirror_circuit_spec(9, 2, 2))
    u = compiled_unitary(circuit)
    amp = np.abs(u) ** 2
    assert np.allclose(np.max(amp, axis=0), 1.0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 2), n=st.sampled_from((2, 4, 6)),
       length=st.integers(1, 4))
def test_compiled_circuit_equals_its_final_pauli(seed, n, length):
    # the whole executed gate list, Paulis folded in, is the final Pauli
    spec = mirror_circuit_spec(seed, n, length)
    u = compiled_unitary(build_mirror_circuit(spec))
    ref = spec.final_pauli.to_matrix()
    phase = np.vdot(ref, u) / 2 ** n
    assert abs(abs(phase) - 1) < 1e-9
    np.testing.assert_allclose(u, phase * ref, atol=1e-9)


def test_forward_half_unitary_shape():
    spec = mirror_circuit_spec(3, 2, 2)
    u = unitary_of(spec.layers, 2)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    circuit = build_mirror_circuit(mirror_circuit_spec(11, 4, 2))
    data = circuit_to_json(circuit)
    loaded = circuit_from_json(json.loads(json.dumps(data)))
    assert loaded.n_qubits == circuit.n_qubits
    assert loaded.length == circuit.length
    assert loaded.gates == circuit.gates
    assert loaded.expected_outcome == circuit.expected_outcome
    assert loaded.mirror_start == circuit.mirror_start
    assert loaded.spec == circuit.spec


def test_json_rejects_wrong_version():
    circuit = build_mirror_circuit(mirror_circuit_spec(1, 2, 1))
    data = circuit_to_json(circuit)
    data["version"] = 99
    with pytest.raises(ValueError):
        circuit_from_json(data)


def _edit_clifford_index(data):
    gate = next(g for g in data["gates"] if g["gate"] == "c1")
    edited = clifford_named("H").compose(SingleQubitClifford(gate["index"]))
    gate["index"] = edited.index  # an extra H: the gates are no longer a Pauli


def _edit_expected_outcome(data):
    first = data["expected_outcome"][0]
    data["expected_outcome"] = "10"[int(first)] + data["expected_outcome"][1:]


def _edit_final_pauli(data):
    sign, letters = data["final_pauli"][0], data["final_pauli"][1:]
    flipped = {"I": "X", "X": "I", "Z": "Y", "Y": "Z"}[letters[0]]
    data["final_pauli"] = sign + flipped + letters[1:]


def _edit_gate_qubit(data):
    data["gates"][0]["q"] = -1


def _edit_mirror_start(data):
    data["mirror_start"] = 0  # would put @inverse= noise on the forward half


@pytest.mark.parametrize("edit", [_edit_clifford_index, _edit_expected_outcome,
                                  _edit_final_pauli, _edit_gate_qubit,
                                  _edit_mirror_start])
def test_json_rejects_edited_circuit(edit):
    data = circuit_to_json(build_mirror_circuit(mirror_circuit_spec(11, 4, 2)))
    circuit_from_json(json.loads(json.dumps(data)))
    edit(data)
    with pytest.raises(ValueError):
        circuit_from_json(data)


def test_save_and_load_circuit(tmp_path):
    circuit = build_mirror_circuit(mirror_circuit_spec(17, 2, 2))
    path = tmp_path / "circ.json"
    save_circuit(circuit, path)
    loaded = load_circuit(path)
    assert loaded.gates == circuit.gates
    # file is stable on disk
    save_circuit(circuit, tmp_path / "again.json")
    assert (tmp_path / "circ.json").read_text() == (tmp_path / "again.json").read_text()


def test_indented_version_1_file_still_loads(tmp_path):
    circuit = build_mirror_circuit(mirror_circuit_spec(17, 4, 3))
    path = tmp_path / "indented.json"
    with open(path, "w") as fh:  # the layout files were written in before
        json.dump(circuit_to_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")
    loaded = load_circuit(path)
    assert circuit_to_json(loaded) == circuit_to_json(circuit)
    save_circuit(circuit, tmp_path / "compact.json")
    assert "\n" not in (tmp_path / "compact.json").read_text().rstrip("\n")
    assert circuit_to_json(load_circuit(tmp_path / "compact.json")) == circuit_to_json(circuit)


# ---------------------------------------------------------------------------
# QASM export
# ---------------------------------------------------------------------------


_QASM_OPS = {
    "h": H2,
    "s": S2,
    "id": np.eye(2, dtype=complex),
}


def _unitary_from_qasm(text: str, n: int) -> np.ndarray:
    """Rebuild the circuit unitary from emitted QASM 2.0 text."""
    u = np.eye(2 ** n, dtype=complex)
    cx01 = {}

    def embed1(mat, q):
        factors = [np.eye(2, dtype=complex)] * n
        factors[q] = mat
        return kron_all(factors)

    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith(
        ("OPENQASM", "include", "qreg", "creg", "measure"))]
    pattern_1q = re.compile(r"^(h|s|id) q\[(\d+)\];$")
    pattern_rz = re.compile(r"^rz\(pi/2\) q\[(\d+)\];$")
    pattern_cx = re.compile(r"^cx q\[(\d+)\],q\[(\d+)\];$")
    for ln in body:
        m = pattern_1q.match(ln)
        if m:
            u = embed1(_QASM_OPS[m.group(1)], int(m.group(2))) @ u
            continue
        m = pattern_rz.match(ln)
        if m:
            rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
            u = embed1(rz, int(m.group(1))) @ u
            continue
        m = pattern_cx.match(ln)
        if m:
            a, b = int(m.group(1)), int(m.group(2))
            d = 2 ** n
            cx = np.zeros((d, d), dtype=complex)
            for idx in range(d):
                if (idx >> (n - 1 - a)) & 1:
                    cx[idx ^ (1 << (n - 1 - b)), idx] = 1.0
                else:
                    cx[idx, idx] = 1.0
            u = cx @ u
            continue
        raise AssertionError(f"unrecognized QASM line: {ln}")
    return u


def test_qasm_reproduces_compiled_unitary_exactly():
    circuit = build_mirror_circuit(mirror_circuit_spec(23, 2, 2))
    text = to_qasm(circuit)
    assert text.startswith("OPENQASM 2.0;")
    assert "measure q -> c;" in text
    rebuilt = _unitary_from_qasm(text, 2)
    np.testing.assert_allclose(rebuilt, compiled_unitary(circuit), atol=1e-10)


def test_qasm_four_qubits():
    circuit = build_mirror_circuit(mirror_circuit_spec(29, 4, 1))
    rebuilt = _unitary_from_qasm(to_qasm(circuit), 4)
    np.testing.assert_allclose(rebuilt, compiled_unitary(circuit), atol=1e-10)


def test_uzz_reference_decomposition():
    # cx a,b ; rz(pi/2) b ; cx a,b equals the native entangler exactly
    n = 2
    text = "\n".join(["cx q[0],q[1];", "rz(pi/2) q[1];", "cx q[0],q[1];"])
    np.testing.assert_allclose(_unitary_from_qasm(text, n), UZZ_REF, atol=1e-12)
