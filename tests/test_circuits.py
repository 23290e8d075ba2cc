"""Mirror circuit sampling, compilation, serialization, and QASM export."""

import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorbench.circuits import (
    CircuitCheckError,
    CircuitStack,
    CircuitWidthError,
    CompilationError,
    _batches,
    _check_stack,
    _circuit_stack,
    _draw_stack,
    _experiment_seeds,
    _experiment_stacks,
    _field_stack,
    _file_fields,
    _mirror_start,
    _stack_json,
    _uzz_layers,
    _z_pass,
    circuit_to_json,
    mirror_circuit_spec,
    mirror_circuit_stack,
    read_circuit,
    read_circuits,
    sample_experiment,
    save_circuit,
    to_qasm,
)
from mirrorbench.operators import _CLIFF_WORDS, CLIFFORD_UNITARIES

from conftest import H2, S2, UZZ_REF, kron_all, pauli_matrix_from_label
from pauli_reference import (
    CliffordGate,
    NativeGate,
    ZObservables,
    after_hadamard,
    circuit_to_v1_json,
    gate_list,
    round_gates,
)


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


def unitary_of(cliffords, matchings, n_qubits: int) -> np.ndarray:
    """Dense unitary of the forward half (no Paulis); L = 0 gives identity."""
    d = 2 ** n_qubits
    total = np.eye(d, dtype=complex)
    for layer, matching in zip(cliffords, matchings):
        cmat = np.array([[1.0 + 0j]])
        for c in layer:
            cmat = np.kron(cmat, CLIFFORD_UNITARIES[c])
        total = cmat @ total
        total = _uzz_layer_diag(matching, n_qubits)[:, None] * total
    return total


def compiled_unitary(circuit: CircuitStack) -> np.ndarray:
    """Dense unitary of the executed gate list."""
    d = 2 ** circuit.n_qubits
    total = np.eye(d, dtype=complex)
    for gate in gate_list(circuit):
        if isinstance(gate, CliffordGate):
            mat = _embed_1q_unitary(CLIFFORD_UNITARIES[gate.clifford], gate.qubit,
                                    circuit.n_qubits)
            total = mat @ total
        else:
            total = _uzz_layer_diag([gate.qubits], circuit.n_qubits)[:, None] * total
    return total


def _rows(stacks) -> list:
    """The file dicts of every circuit of ``stacks``, in order."""
    return [data for stack in stacks for data in _stack_json(stack)]


def _loaded(data) -> CircuitStack:
    """The checked stack of one that ``read_circuit`` gives for a file
    holding the JSON ``data``."""
    n, length, circuit_id, seed, lists = _file_fields(data)
    stack, rounds, stored = _field_stack([lists], n, length)
    return _circuit_stack(stack, [seed], [circuit_id], rounds, stored)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _reference_draw(seed, n, length):
    """The spec arrays of ``mirror_circuit_stack``'s documented draw, one rng
    call at a time."""
    rng = np.random.default_rng(seed)
    cliffords = rng.integers(24, size=(length, n))
    perm = rng.permuted(np.tile(np.arange(n), (length, 1)), axis=1)
    matchings = np.sort(perm.reshape(length, n // 2, 2), axis=2)
    paulis = rng.integers(4, size=(2 * length + 1, n))
    return cliffords, matchings, paulis


def test_sample_matching_covers_all_qubits(rng):
    for n in (2, 4, 6, 8):
        _, matchings, _ = _draw_stack([int(rng.integers(2 ** 32))], n, 1)
        matching = matchings[0, 0].tolist()
        flat = [q for pair in matching for q in pair]
        assert sorted(flat) == list(range(n))
        assert len(matching) == n // 2


def test_sample_matching_two_qubits_is_fixed(rng):
    _, matchings, _ = _draw_stack(rng.integers(2 ** 32, size=4).tolist(), 2, 3)
    assert matchings.tolist() == [[[[0, 1]]] * 3] * 4


@pytest.mark.parametrize("n", [2, 4, 64])
@pytest.mark.parametrize("count", [1, 1000])
def test_sample_matchings_are_sorted_pairs_of_a_permutation(n, count):
    # draw for draw: after the Cliffords, one rng.permuted of the L rows,
    # cut into sorted pairs
    seeds = [n + count, n + count + 1]
    _, matchings, _ = _draw_stack(seeds, n, count)
    for row, seed in zip(matchings, seeds):
        expected = _reference_draw(seed, n, count)[1]
        assert row.shape == expected.shape and row.dtype == expected.dtype
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("n", [2, 4, 10, 64])
@pytest.mark.parametrize("length", [1, 3, 16])
def test_draw_stack_rows_are_each_seeds_spec(n, length):
    seeds = [1000 * n + length + k for k in range(5)]
    stack = _draw_stack(seeds, n, length)
    assert [arr.shape for arr in stack] == [
        (5, length, n), (5, length, n // 2, 2), (5, 2 * length + 1, n)]
    assert all(arr.dtype == np.int64 and not arr.flags.writeable for arr in stack)
    for c, seed in enumerate(seeds):
        spec = mirror_circuit_spec(seed, n, length, circuit_id=c)
        assert (spec.seeds, spec.circuit_ids) == ((seed,), (c,))
        for arr, expected, name in zip(stack, _reference_draw(seed, n, length),
                                       ("cliffords", "matchings", "paulis")):
            np.testing.assert_array_equal(getattr(spec, name), expected[None])
            np.testing.assert_array_equal(arr[c], getattr(spec, name)[0])
            assert not getattr(spec, name).flags.writeable


@pytest.mark.parametrize("n", [2, 4, 64])
def test_mirror_circuit_stack_rows_are_each_seeds_circuit(n):
    seeds = [7 * n + k for k in range(4)]
    for ids, expected_ids in ((None, (0, 1, 2, 3)), ([5, 9, 2, 4], (5, 9, 2, 4))):
        stack = mirror_circuit_stack(seeds, n, 3, circuit_ids=ids)
        assert (stack.seeds, stack.circuit_ids) == (tuple(seeds), expected_ids)
        for c, (seed, circuit_id) in enumerate(zip(seeds, expected_ids)):
            alone = mirror_circuit_spec(seed, n, 3, circuit_id=circuit_id)
            for name in ("cliffords", "matchings", "paulis", "rounds", "outcome",
                         "x_images", "z_images"):
                np.testing.assert_array_equal(getattr(stack, name)[c],
                                              getattr(alone, name)[0])
    with pytest.raises(ValueError, match="one or more seeds"):
        mirror_circuit_stack([], n, 3)
    with pytest.raises(ValueError, match="one circuit id per seed"):
        mirror_circuit_stack(seeds, n, 3, circuit_ids=[0, 1])


def test_stack_check_rejects_what_a_spec_rejects():
    stack = [arr.copy() for arr in _draw_stack([3, 4, 5], 4, 3)]
    _check_stack(stack)
    for k, at, value, message in (
            (0, (1, 2, 0), 24, "cliffords entries"),
            (0, (2, 0, 3), -1, "cliffords entries"),
            (1, (0, 1, 0, 1), 4, "matchings entries"),
            (2, (2, 6, 1), 4, "paulis entries")):
        edited = [arr.copy() for arr in stack]
        edited[k][at] = value
        with pytest.raises(ValueError, match=message):
            _check_stack(edited)
        with pytest.raises(ValueError, match=message):
            _check_stack([arr[at[0]][None] for arr in edited])
    edited = [arr.copy() for arr in stack]
    edited[1][2, 1, 0] = edited[1][2, 0, 1]  # one qubit in two pairs, one in none
    with pytest.raises(ValueError, match="every qubit exactly once"):
        _check_stack(edited)
    with pytest.raises(ValueError, match="every qubit exactly once"):
        _check_stack([arr[2][None] for arr in edited])


def test_draw_stack_rejects_bad_sizes():
    for n, length, message in ((3, 2, "even"), (0, 2, "even"), (4, 0, "length")):
        with pytest.raises(ValueError, match=message):
            _draw_stack([1], n, length)
        with pytest.raises(ValueError, match=message):
            mirror_circuit_spec(1, n, length)


def test_sample_layer_structure(rng):
    # a layer is one row of the spec: a Clifford per qubit and a matching
    spec = mirror_circuit_spec(int(rng.integers(2 ** 32)), 6, 1)
    assert spec.cliffords[0].shape == (1, 6)
    assert all(0 <= c < 24 for c in spec.cliffords[0, 0])
    assert spec.matchings[0].shape == (1, 3, 2)


def test_mirror_circuit_spec_deterministic():
    a = mirror_circuit_spec(123, 4, 5)
    b = mirror_circuit_spec(123, 4, 5)
    assert _rows([a]) == _rows([b])
    assert len(a.cliffords[0]) == 5
    assert len(a.paulis[0, :-1]) == 10  # randomizers; the last row is the final Pauli
    c = mirror_circuit_spec(124, 4, 5)
    assert _rows([c]) != _rows([a])


@pytest.mark.parametrize("value", [True, False, np.True_, 1.5])
@pytest.mark.parametrize("call", [
    lambda v: sample_experiment(v, 2, [2], 1),
    lambda v: mirror_circuit_stack([v], 2, 2),
    lambda v: mirror_circuit_stack([1], 2, 2, [v]),
    lambda v: mirror_circuit_spec(v, 2, 2),
], ids=["sample_experiment-rng", "mirror_circuit_stack-seed",
        "mirror_circuit_stack-circuit_id", "mirror_circuit_spec-seed"])
def test_seeds_and_circuit_ids_that_are_bools_or_fractions_raise(call, value):
    # sample_experiment ran True as seed 1 and raised AttributeError for
    # 1.5; mirror_circuit_stack kept True as a seed, which save_circuit wrote
    # as "seed":true and read_circuit refused
    with pytest.raises(TypeError):
        call(value)


def test_sample_experiment_takes_none_as_fresh_entropy():
    # None raised AttributeError
    stacks = sample_experiment(None, 2, [2, 4], 3)
    assert [c for stack in stacks for c in stack.circuit_ids] == list(range(6))


def test_a_stack_of_numpy_integer_seeds_round_trips_through_files(tmp_path):
    # the np.int64 seeds were kept, and save_circuit could not encode them;
    # they are stored as ints and draw the ints' streams
    seeds = np.arange(3)
    stack = mirror_circuit_stack(seeds, 2, 2, seeds)
    assert [type(v) for v in stack.seeds + stack.circuit_ids] == [int] * 6
    assert _stack_json(stack) == _stack_json(mirror_circuit_stack([0, 1, 2], 2, 2))
    for i in range(3):
        path = tmp_path / f"circuit_{i}.json"
        save_circuit(mirror_circuit_stack(seeds[i:i + 1], 2, 2, seeds[i:i + 1]), path)
        loaded = read_circuit(path)
        assert (loaded.seeds, loaded.circuit_ids) == ((i,), (i,))
        assert circuit_to_json(loaded) == _stack_json(stack)[i]


def test_sample_experiment_shape_and_ids():
    specs = _rows(sample_experiment(7, 4, (2, 4), 3))
    assert len(specs) == 6
    assert [s["L"] for s in specs] == [2, 2, 2, 4, 4, 4]
    assert [s["circuit_id"] for s in specs] == [0, 1, 2, 3, 4, 5]
    again = _rows(sample_experiment(7, 4, (2, 4), 3))
    assert specs == again


def _scalar_seeds(rng, lengths, count):
    """An experiment's (length, seed) cells drawn one scalar at a time."""
    return [(length, int(rng.integers(0, 2 ** 63 - 1)))
            for length in lengths for _ in range(count)]


@pytest.mark.parametrize("given", ["int", "generator"])
def test_experiment_seeds_are_one_scalar_draw_per_spec(given):
    # seeds 0-49 x 400 specs: one vectorised draw gives the values of 400
    # scalar draws and leaves a given generator where they leave it, which
    # matters because sample_experiment advances the caller's generator
    lengths = (4, 8, 12, 16)
    for seed in range(50):
        reference = np.random.default_rng(seed)
        expected = _scalar_seeds(reference, lengths, 100)
        if given == "int":
            assert _experiment_seeds(seed, lengths, 100) == expected
            continue
        rng = np.random.default_rng(seed)
        assert _experiment_seeds(rng, lengths, 100) == expected
        assert rng.bit_generator.state == reference.bit_generator.state
        stacks = sample_experiment(rng, 2, (1, 2), 3)
        assert [(s.length, seed) for s in stacks for seed in s.seeds] == \
            _scalar_seeds(reference, (1, 2), 3)
        assert rng.bit_generator.state == reference.bit_generator.state


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
        circuit = mirror_circuit_spec(seed, n, length)
        gates = gate_list(circuit)
        sq = [g for g in gates if isinstance(g, CliffordGate)]
        uzz = [g for g in gates if isinstance(g, NativeGate)]
        assert len(sq) == 2 * length * n
        assert len(uzz) == 2 * length * (n // 2)
        assert _mirror_start(circuit.n_qubits, circuit.length) == length * (n + n // 2)
        assert circuit.outcome.shape == (1, n)


def test_one_clifford_per_qubit_per_round():
    circuit = mirror_circuit_spec(5, 4, 3)
    rounds = []
    current = {}
    for g in gate_list(circuit):
        if isinstance(g, CliffordGate):
            assert g.qubit not in current
            current[g.qubit] = g
            if len(current) == 4:
                rounds.append(current)
                current = {}
        else:
            assert not current  # UZZ layers sit between complete rounds
    assert len(rounds) == 6


def _success_probability(circuit: CircuitStack) -> float:
    """Probability of the expected outcome on the noiseless compiled circuit."""
    n = circuit.n_qubits
    u = compiled_unitary(circuit)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    state = u @ state
    index = 0
    for q, bit in enumerate(circuit.outcome[0].tolist()):
        index |= bit << (n - 1 - q)
    return float(abs(state[index]) ** 2)


def test_noiseless_compiled_circuit_is_deterministic():
    specs = [mirror_circuit_spec(seed, 2, 1 + seed % 4) for seed in range(6)]
    for circuit in specs:
        assert abs(_success_probability(circuit) - 1.0) < 1e-9


def test_noiseless_compiled_circuit_four_qubits():
    circuit = mirror_circuit_spec(42, 4, 3)
    assert abs(_success_probability(circuit) - 1.0) < 1e-9


def test_compiled_unitary_equals_pauli_times_mirror_identity():
    # the executed circuit acts as a Pauli operator: all basis states map to
    # definite basis states with unit probability
    circuit = mirror_circuit_spec(9, 2, 2)
    u = compiled_unitary(circuit)
    amp = np.abs(u) ** 2
    assert np.allclose(np.max(amp, axis=0), 1.0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 2), n=st.sampled_from((2, 4, 6)),
       length=st.integers(1, 4))
def test_compiled_circuit_equals_its_final_pauli(seed, n, length):
    # the whole executed gate list, Paulis folded in, is the final Pauli
    spec = mirror_circuit_spec(seed, n, length)
    u = compiled_unitary(spec)
    ref = pauli_matrix_from_label("".join("IXYZ"[c] for c in spec.paulis[0, -1]))
    phase = np.vdot(ref, u) / 2 ** n
    assert abs(abs(phase) - 1) < 1e-9
    np.testing.assert_allclose(u, phase * ref, atol=1e-9)


def test_forward_half_unitary_shape():
    spec = mirror_circuit_spec(3, 2, 2)
    u = unitary_of(spec.cliffords[0], spec.matchings[0], 2)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    circuit = mirror_circuit_spec(11, 4, 2)
    data = circuit_to_json(circuit)
    loaded = _loaded(json.loads(json.dumps(data)))
    assert loaded.n_qubits == circuit.n_qubits
    assert loaded.length == circuit.length
    np.testing.assert_array_equal(loaded.rounds, circuit.rounds)
    np.testing.assert_array_equal(loaded.outcome, circuit.outcome)
    assert circuit_to_json(loaded) == data  # the spec, ids and mirror_start too


def test_json_rejects_wrong_version():
    data = circuit_to_json(mirror_circuit_spec(1, 2, 1))
    data["version"] = 99
    with pytest.raises(ValueError):
        _loaded(data)


# Each edit takes a version-1 or a version-2 circuit dict.


def _edit_clifford_index(data):
    if data["version"] == 1:
        gate = next(g for g in data["gates"] if g["gate"] == "c1")
        # an extra H: the gates are no longer a Pauli
        gate["index"] = after_hadamard(gate["index"])
    else:
        data["rounds"][0] = after_hadamard(data["rounds"][0])


def _edit_expected_outcome(data):
    if data["version"] == 1:
        first = data["expected_outcome"][0]
        data["expected_outcome"] = "10"[int(first)] + data["expected_outcome"][1:]
    else:
        data["expected_outcome"][0] ^= 1


def _edit_final_pauli(data):
    if data["version"] == 1:
        sign, letters = data["final_pauli"][0], data["final_pauli"][1:]
        flipped = {"I": "X", "X": "I", "Z": "Y", "Y": "Z"}[letters[0]]
        data["final_pauli"] = sign + flipped + letters[1:]
    else:  # codes 0-3 are I, X, Y, Z: XOR 1 swaps I, X and Y, Z
        data["paulis"][-data["n"]] ^= 1


def _edit_gate_qubit(data):
    if data["version"] == 1:
        data["gates"][0]["q"] = -1
    else:
        data["matchings"][0] = -1


def _edit_mirror_start(data):
    data["mirror_start"] = 0  # would put @inverse= noise on the forward half


_EDITS = [_edit_clifford_index, _edit_expected_outcome, _edit_final_pauli,
          _edit_gate_qubit, _edit_mirror_start]


@pytest.mark.parametrize("edit", _EDITS)
def test_json_rejects_edited_circuit(edit):
    data = circuit_to_json(mirror_circuit_spec(11, 4, 2))
    _loaded(json.loads(json.dumps(data)))
    edit(data)
    with pytest.raises(ValueError):
        _loaded(data)


@pytest.mark.parametrize("edit", _EDITS)
def test_json_rejects_edited_version_1_circuit(edit):
    data = circuit_to_v1_json(mirror_circuit_spec(11, 4, 2))
    _loaded(json.loads(json.dumps(data)))
    edit(data)
    with pytest.raises(ValueError):
        _loaded(data)


@pytest.mark.parametrize("version_1", [False, True], ids=["v2", "v1"])
@pytest.mark.parametrize("edit", _EDITS)
def test_read_circuit_of_an_edited_file_names_the_file(tmp_path, edit, version_1):
    # read_circuit is read_circuits of one path, so its errors name the
    # file as run's do; the file loads before the edit
    circuit = mirror_circuit_spec(11, 4, 2)
    data = (circuit_to_v1_json if version_1 else circuit_to_json)(circuit)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert circuit_to_json(read_circuit(path)) == circuit_to_json(circuit)
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"^bad circuit file edited\.json: "):
        read_circuit(path)


def test_read_circuits_positions_follow_the_order_of_the_paths(tmp_path):
    # two lengths interleaved in name order: the stacks come in path order,
    # each a run of consecutive files of one (n, L), so circuit i of the
    # stacks is the file at paths[i]
    rows = _rows(sample_experiment(4, 4, (2, 3), 3))  # ids 0-2 at L = 2, 3-5 at L = 3
    order = [0, 3, 1, 4, 2, 5]
    paths = [tmp_path / f"c{k}.json" for k in range(len(order))]
    for path, i in zip(paths, order):
        path.write_text(json.dumps(rows[i]))
    read = read_circuits(paths)
    assert all(isinstance(stack, CircuitStack) for stack in read)
    assert [stack.length for stack in read] == [2, 3, 2, 3, 2, 3]
    assert [i for stack in read for i in stack.circuit_ids] == order
    assert [row for stack in read for row in _stack_json(stack)] == [rows[i] for i in order]
    (tmp_path / "c1.json").write_text("{")  # never read: reading stops at c0
    with pytest.raises(CircuitWidthError, match="^limited to 2 qubits, got 4-qubit circuits$"):
        read_circuits(paths, max_qubits=2)


def test_save_and_load_circuit(tmp_path):
    circuit = mirror_circuit_spec(17, 2, 2)
    path = tmp_path / "circ.json"
    save_circuit(circuit, path)
    loaded = read_circuit(path)
    np.testing.assert_array_equal(loaded.rounds, circuit.rounds)
    # file is stable on disk
    save_circuit(circuit, tmp_path / "again.json")
    assert (tmp_path / "circ.json").read_text() == (tmp_path / "again.json").read_text()


def test_circuit_stack_arrays_are_read_only(tmp_path):
    # drawn as a stack, loaded from a file, and above 64 qubits (no images)
    save_circuit(mirror_circuit_spec(3, 4, 2), tmp_path / "circ.json")
    for stack in (sample_experiment(3, 4, (2,), 3)[0], read_circuit(tmp_path / "circ.json"),
                  mirror_circuit_spec(3, 66, 1)):
        for name in ("cliffords", "matchings", "paulis", "rounds", "outcome",
                     "x_images", "z_images"):
            arr = getattr(stack, name)
            if arr is None:
                assert stack.n_qubits > 64
                continue
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1


def test_single_circuit_calls_refuse_a_stack_of_several(tmp_path):
    from mirrorbench.simulator import NoiseModel, run_dense, run_stabilizer

    [stack] = sample_experiment(3, 2, (2,), 2)
    for call in (lambda: run_stabilizer(stack, NoiseModel(), 10, np.random.default_rng(0)),
                 lambda: run_dense(stack, NoiseModel()),
                 lambda: save_circuit(stack, tmp_path / "circ.json"),
                 lambda: to_qasm(stack),
                 lambda: circuit_to_json(stack)):
        with pytest.raises(ValueError, match="a stack of one circuit, got 2 circuits"):
            call()
    assert not (tmp_path / "circ.json").exists()


def test_indented_version_1_file_still_loads(tmp_path):
    circuit = mirror_circuit_spec(17, 4, 3)
    path = tmp_path / "indented.json"
    with open(path, "w") as fh:  # the layout files were written in before
        json.dump(circuit_to_v1_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")
    loaded = read_circuit(path)
    assert circuit_to_json(loaded) == circuit_to_json(circuit)
    save_circuit(circuit, tmp_path / "compact.json")
    assert "\n" not in (tmp_path / "compact.json").read_text().rstrip("\n")
    compact = read_circuit(tmp_path / "compact.json")
    assert circuit_to_json(compact) == circuit_to_json(circuit)


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
    circuit = mirror_circuit_spec(23, 2, 2)
    text = to_qasm(circuit)
    assert text.startswith("OPENQASM 2.0;")
    assert "measure q -> c;" in text
    rebuilt = _unitary_from_qasm(text, 2)
    np.testing.assert_allclose(rebuilt, compiled_unitary(circuit), atol=1e-10)


def test_qasm_four_qubits():
    circuit = mirror_circuit_spec(29, 4, 1)
    rebuilt = _unitary_from_qasm(to_qasm(circuit), 4)
    np.testing.assert_allclose(rebuilt, compiled_unitary(circuit), atol=1e-10)


def test_uzz_reference_decomposition():
    # cx a,b ; rz(pi/2) b ; cx a,b equals the native entangler exactly
    n = 2
    text = "\n".join(["cx q[0],q[1];", "rz(pi/2) q[1];", "cx q[0],q[1];"])
    np.testing.assert_allclose(_unitary_from_qasm(text, n), UZZ_REF, atol=1e-12)


# ---------------------------------------------------------------------------
# The round-wise Z pass against the per-gate reference
# ---------------------------------------------------------------------------


def _reference_pass(rounds, matchings, n, length):
    """The per-gate pass: the outcome (None unless a mirror) and the
    ``(round, part, x, z)`` images after each Clifford round and UZZ layer."""
    reference = ZObservables(n)
    snapshots = []
    for r, gates in enumerate(round_gates(rounds, matchings)):
        parts = ((0, n), (1, len(gates))) if r < length else ((1, n // 2), (0, len(gates)))
        done = 0
        for part, end in parts:
            for gate in gates[done:end]:
                reference.apply(gate)
            done = end
            snapshots.append((r, part, list(reference.x), list(reference.z)))
    try:
        return reference.outcome(), snapshots
    except ValueError:
        return None, snapshots


def _check_z_pass_against_reference(rounds, matchings, n, length):
    """Check one batch, ``(C, 2L, n)`` rounds and ``(C, L, n/2, 2)``
    matchings, against the per-gate pass of each circuit; return which
    circuits are mirrors.  Images are kept, as word 0, only up to 64 qubits."""
    outcome, mirrors, x_images, z_images = _z_pass(rounds, _uzz_layers(matchings))
    assert (x_images is None) == (z_images is None) == (n > 64)
    for c in range(len(rounds)):
        expected, snapshots = _reference_pass(rounds[c], matchings[c], n, length)
        assert mirrors[c] == (expected is not None)
        if expected is None:
            spec = mirror_circuit_spec(0, n, length)
            with pytest.raises(ValueError, match=r"each Z_q to \+/-Z_q"):
                _circuit_stack((spec.cliffords, matchings[c][None], spec.paulis), [0], [0],
                               rounds[c][None], np.zeros((1, n), dtype=np.int64))
            continue
        assert tuple(outcome[c].tolist()) == expected
        if x_images is not None:
            for r, part, x, z in snapshots:
                assert x_images[c, r, part].tolist() == x
                assert z_images[c, r, part].tolist() == z
    return mirrors.tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from((2, 4, 6, 10, 66)),
       length=st.integers(1, 4), edits=st.lists(
           st.tuples(st.integers(0, 10 ** 6), st.integers(0, 23)), max_size=2))
def test_z_pass_matches_the_per_gate_reference(seed, n, length, edits):
    spec = mirror_circuit_spec(seed, n, length)
    rounds = spec.rounds[0].copy()
    for position, index in edits:  # mostly no longer a mirror
        rounds.flat[position % rounds.size] = index
    [mirror] = _check_z_pass_against_reference(rounds[None], spec.matchings, n, length)
    assert mirror or edits


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from((2, 4, 6, 66)),
       length=st.integers(1, 3), count=st.integers(2, 6), data=st.data())
def test_edited_rounds_fail_only_their_own_circuit_of_a_batch(seed, n, length, count, data):
    # one batch of circuits, some with edited rounds: the batch's verdict on
    # each circuit is its own per-gate pass, so exactly the edited circuits
    # that are no longer mirrors, or no longer give their stored outcome, fail
    [circuits] = sample_experiment(seed, n, (length,), count)
    rounds = circuits.rounds.copy()
    edited = data.draw(st.sets(st.integers(0, count - 1), max_size=count))
    for c in sorted(edited):
        position = data.draw(st.integers(0, rounds[c].size - 1))
        rounds[c].flat[position] = data.draw(st.integers(0, 23))
    matchings = circuits.matchings
    mirrors = _check_z_pass_against_reference(rounds, matchings, n, length)
    outcome = _z_pass(rounds, _uzz_layers(matchings))[0]
    failing = [c for c in range(count) if not mirrors[c]
               or not np.array_equal(outcome[c], circuits.outcome[c])]
    assert set(failing) <= edited
    parsed = ((circuits.cliffords, matchings, circuits.paulis), circuits.seeds,
              circuits.circuit_ids, rounds, circuits.outcome)
    if not failing:
        assert len(_circuit_stack(*parsed)) == count
        return
    with pytest.raises(CircuitCheckError) as info:
        _circuit_stack(*parsed)
    assert info.value.index == failing[0]


def test_compiled_images_are_the_z_pass():
    for n in (64, 66):  # up to 64 qubits the images are kept, as one word
        circuit = mirror_circuit_spec(3, n, 2)
        if n == 64:
            assert circuit.x_images.shape == circuit.z_images.shape == (1, 4, 2, 64)
        else:
            assert circuit.x_images is None and circuit.z_images is None
        assert _check_z_pass_against_reference(
            circuit.rounds, circuit.matchings, n, 2) == [True]


def test_build_mirror_circuits_equals_each_circuit_built_alone():
    # checks _circuit_stack's batch compile: mixed n and interleaved
    # lengths, stacked by (n, L): each row of a stack is its circuit
    # compiled alone
    shapes = [(4, 8), (4, 4), (6, 8), (4, 8), (2, 2), (66, 2), (4, 4), (6, 8), (4, 8)]
    for n, length in dict.fromkeys(shapes):
        ids = [i for i, shape in enumerate(shapes) if shape == (n, length)]
        seeds = [100 + i for i in ids]
        batched = _circuit_stack(_draw_stack(seeds, n, length), seeds, ids)
        assert batched.circuit_ids == tuple(ids)
        assert not batched.rounds.flags.writeable
        for c, (i, seed) in enumerate(zip(ids, seeds)):
            alone = mirror_circuit_spec(seed, n, length, circuit_id=i)
            for name in ("cliffords", "matchings", "paulis", "rounds", "outcome"):
                np.testing.assert_array_equal(getattr(batched, name)[c],
                                              getattr(alone, name)[0])
            for images, alone_images in ((batched.x_images, alone.x_images),
                                         (batched.z_images, alone.z_images)):
                if n > 64:
                    assert images is None and alone_images is None
                else:
                    np.testing.assert_array_equal(images[c], alone_images[0])
            expected, snapshots = _reference_pass(batched.rounds[c], batched.matchings[c],
                                                  n, length)
            assert tuple(batched.outcome[c].tolist()) == expected
            if batched.x_images is not None:
                for r, part, x, z in snapshots:
                    assert batched.x_images[c, r, part].tolist() == x
                    assert batched.z_images[c, r, part].tolist() == z


def test_build_mirror_circuits_batches_by_size():
    # checks _batches' compile cut: a batch holds at most _BATCH_WORDS
    # image words; every batch gives the same circuits
    specs = sample_experiment(8, 4, (3, 2), 5)
    batches = _batches([(spec.n_qubits, spec.length) for spec in specs for _ in spec.seeds])
    assert batches == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert _batches([(256, 1)] * 20) == [list(range(16)), list(range(16, 20))]
    assert _batches([(2048, 1)] * 2) == [[0], [1]]
    assert _rows(specs) == [circuit_to_json(mirror_circuit_spec(
        data["seed"], 4, data["L"], circuit_id=data["circuit_id"])) for data in _rows(specs)]


def test_experiment_stacks_are_the_sampled_experiment_batch_by_batch():
    # each length's circuits are a stack of their own, in circuit-id order,
    # also where a length repeats; at n = 256 a stack holds at most 16
    # circuits, so 18 are cut into 16 and 2.  Each stack, turned into files
    # as generate writes them, gives the sampled circuits compiled alone
    for n, lengths, count, order in (
            (4, (3, 2, 3), 4, list(range(12))),
            (256, (1,), 18, list(range(18)))):
        cells = _experiment_seeds(9, lengths, count)
        whole = [mirror_circuit_spec(seed, n, length, circuit_id=i)
                 for i, (length, seed) in enumerate(cells)]
        written = []
        for stack in _experiment_stacks(9, n, lengths, count):
            written += _stack_json(stack)
        assert [data["circuit_id"] for data in written] == order
        assert written == [circuit_to_json(whole[i]) for i in order]
        assert written == _rows(sample_experiment(9, n, lengths, count))


def test_a_failing_spec_names_its_circuit_id(monkeypatch):
    import mirrorbench.circuits as circuits_module

    merged_rounds = circuits_module._merged_rounds

    def break_second_of_length_3(cliffords, matchings, paulis):
        rounds = merged_rounds(cliffords, matchings, paulis)
        if cliffords.shape[1] == 3:  # an extra H in round 0 of the batch's second circuit
            rounds[1, 0, 0] = after_hadamard(rounds[1, 0, 0])
        return rounds

    monkeypatch.setattr(circuits_module, "_merged_rounds", break_second_of_length_3)
    with pytest.raises(CompilationError, match=r"compiled circuit 5 is wrong"):
        sample_experiment(5, 4, (2, 3), 4)  # circuit ids 0-7; 5 breaks


# ---------------------------------------------------------------------------
# Edited circuit files
# ---------------------------------------------------------------------------


def _outcome_probability(circuit) -> float:
    """P(stored outcome) for |0...0> pushed through the gate list, as a state
    vector; each Clifford is the product of its H/S word."""
    n = circuit.n_qubits
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    bits = np.indices((2,) * n)
    for gate in gate_list(circuit):
        if isinstance(gate, CliffordGate):
            u = np.eye(2, dtype=complex)
            for letter in _CLIFF_WORDS[gate.clifford]:
                u = {"h": H2, "s": S2}[letter] @ u
            state = np.moveaxis(np.tensordot(u, state, axes=(1, gate.qubit)), 0, gate.qubit)
        else:
            a, b = gate.qubits
            state = state * np.exp(-1j * np.pi / 4 * np.where(bits[a] == bits[b], 1, -1))
    return float(abs(state[tuple(circuit.outcome[0].tolist())]) ** 2)


def _integer_slots(data):
    return ([(key, None) for key, value in sorted(data.items()) if type(value) is int]
            + [(key, i) for key, value in sorted(data.items()) if isinstance(value, list)
               for i in range(len(value))])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from((2, 4, 6)),
       length=st.integers(1, 3), data=st.data())
def test_single_integer_edit_is_rejected_or_still_correct(seed, n, length, data):
    # any one integer of a version-2 file changed: the load either fails, or
    # gives a circuit that sends |0...0> to its stored outcome for certain
    original = circuit_to_json(mirror_circuit_spec(seed, n, length))
    key, i = data.draw(st.sampled_from(_integer_slots(original)))
    value = data.draw(st.one_of(st.integers(-2, 30), st.integers()))
    edited = json.loads(json.dumps(original))
    if i is None:
        edited[key] = value
    else:
        edited[key][i] = value
    try:
        circuit = _loaded(edited)
    except ValueError:
        return
    assert abs(_outcome_probability(circuit) - 1.0) < 1e-9


def test_diagonal_cliffords_pass_the_check_at_gate_0():
    # the check proves U maps each Z_q to +/-Z_q, not that U is a Pauli: a
    # diagonal Clifford ahead of gate 0 fixes Z_0, so 4 of the 24 indices load
    data = circuit_to_json(mirror_circuit_spec(11, 4, 2))
    loaded = []
    for index in range(24):
        data["rounds"][0] = index
        try:
            loaded.append(_loaded(data))
        except ValueError:
            continue
    assert len(loaded) == 4
    for circuit in loaded:
        assert abs(_outcome_probability(circuit) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Matching distribution
# ---------------------------------------------------------------------------


def test_matchings_are_uniform():
    # 6 qubits have 5 * 3 * 1 = 15 perfect matchings; each of five
    # consecutive seeds draws 3000 through sample_experiment, and Pearson's
    # statistic must stay below the 1 - 1e-4 quantile of chi-square with 14
    # degrees of freedom (41.1)
    from scipy.stats import chi2
    bound = chi2.ppf(1.0 - 1e-4, 14)
    for seed in range(5):
        specs = sample_experiment(seed, 6, (10,), 300)
        counts = Counter(tuple(sorted(map(tuple, matching))) for spec in specs
                         for circuit in spec.matchings.tolist() for matching in circuit)
        assert len(counts) == 15
        expected = 3000 / 15
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < bound, (seed, stat, bound)
