"""Noisy simulation: fault masks, stabilizer and dense backends, datasets."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorbench.channels import (
    AmplitudeDamping,
    Depolarizing,
    StochasticPauli,
    stochastic_pauli_tensor,
)
from mirrorbench.circuits import build_mirror_circuit, mirror_circuit_spec
from mirrorbench.operators import CliffordGate, SingleQubitClifford
from mirrorbench.simulator import (
    DatasetEntry,
    DecayDataset,
    NoiseModel,
    _read_entry,
    compile_fault_program,
    kernel_pauli_probs,
    propagate_faults,
    read_dataset_csv,
    read_dataset_json,
    run_dense,
    run_stabilizer,
    simulate_survival,
    write_dataset_csv,
    write_dataset_json,
)

from conftest import I2, X2, Y2, Z2


PAULI_1Q = StochasticPauli((0.03, 0.01, 0.02))
PAULI_2Q = stochastic_pauli_tensor(PAULI_1Q, StochasticPauli((0.02, 0.04, 0.01)))


def _binomial_sigma(p: float, shots: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / shots)


# ---------------------------------------------------------------------------
# Noise model, code tables and fault masks
# ---------------------------------------------------------------------------


def test_noise_model_arity_validation():
    with pytest.raises(ValueError):
        NoiseModel(two_qubit=PAULI_1Q)  # one-qubit channel in two-qubit slot
    with pytest.raises(ValueError):
        NoiseModel(single_qubit=PAULI_2Q)
    with pytest.raises(ValueError):
        NoiseModel(inverse_half_override=PAULI_1Q)


def test_stabilizer_compatibility_flag():
    assert NoiseModel(two_qubit=Depolarizing(0.1)).stabilizer_compatible()
    assert NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q).stabilizer_compatible()
    assert not NoiseModel(two_qubit=AmplitudeDamping(0.1)).stabilizer_compatible()


def test_kernel_probs_single_qubit_order():
    # kernel code k = x + 2z: index 1 = X, 2 = Z, 3 = Y
    probs = kernel_pauli_probs(StochasticPauli((0.1, 0.2, 0.3)), 1)
    np.testing.assert_allclose(probs, [0.4, 0.1, 0.3, 0.2], atol=1e-15)


def test_kernel_probs_depolarizing_uniform():
    probs = kernel_pauli_probs(Depolarizing(0.3), 2)
    assert abs(probs[0] - (1 - 0.3 * 15 / 16)) < 1e-15
    np.testing.assert_allclose(probs[1:], 0.3 / 16, atol=1e-15)
    assert abs(probs.sum() - 1.0) < 1e-12


def _letter_code_map():
    """code_map[c, k]: symplectic code (x + 2z) of C P C^dagger for P of code k."""
    letters = [I2, X2, Z2, Y2]
    table = np.zeros((24, 4), dtype=np.uint64)
    for idx in range(24):
        u = SingleQubitClifford(idx).unitary
        for code, pauli in enumerate(letters):
            image = u @ pauli @ u.conj().T
            overlaps = [abs(np.trace(ref @ image)) for ref in letters]
            table[idx, code] = int(np.argmax(overlaps))
    return table


def _oracle_flips(circuit, noise, uniforms):
    """Per-shot final X-masks from frames pushed through one op at a time.

    Each fault site takes the next uniform column and the first Pauli code
    whose cumulative probability exceeds it.
    """
    one = np.uint64(1)
    code_map = _letter_code_map()
    x = np.zeros(len(uniforms), dtype=np.uint64)
    z = np.zeros(len(uniforms), dtype=np.uint64)
    column = 0
    for pos, gate in enumerate(circuit.gates):
        if isinstance(gate, CliffordGate):
            q = np.uint64(gate.qubit)
            new = code_map[gate.clifford.index][((x >> q) & one) | (((z >> q) & one) << one)]
            x = (x & ~(one << q)) | ((new & one) << q)
            z = (z & ~(one << q)) | (((new >> one) & one) << q)
            params = noise.single_qubit
        else:
            a, b = (np.uint64(q) for q in gate.qubits)
            differ = ((x >> a) ^ (x >> b)) & one
            z ^= (differ << a) | (differ << b)
            params = noise.two_qubit
            if pos >= circuit.mirror_start and noise.inverse_half_override is not None:
                params = noise.inverse_half_override
        if params is None:
            continue
        cum = np.cumsum(kernel_pauli_probs(params, len(gate.qubits)))
        cum[-1] = 1.0
        k = np.searchsorted(cum, uniforms[:, column], side="right").astype(np.uint64)
        column += 1
        for slot, qubit in enumerate(gate.qubits):
            q = np.uint64(qubit)
            x ^= ((k >> np.uint64(2 * slot)) & one) << q
            z ^= ((k >> np.uint64(2 * slot + 1)) & one) << q
    assert column == uniforms.shape[1]
    return x


@pytest.mark.parametrize("n_qubits,length", [(2, 3), (4, 4), (10, 6), (64, 4)])
def test_propagate_faults_matches_frame_oracle(n_qubits, length):
    circuit = build_mirror_circuit(mirror_circuit_spec(3 + n_qubits, n_qubits, length))
    noise = NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q,
                       inverse_half_override=Depolarizing(0.2))
    program = compile_fault_program(circuit, noise)
    uniforms = np.random.default_rng(7).random((2048, program.n_faults))
    flips = propagate_faults(program, uniforms)
    np.testing.assert_array_equal(flips, _oracle_flips(circuit, noise, uniforms))
    assert np.count_nonzero(flips) > 0


# ---------------------------------------------------------------------------
# Backend agreement and degenerate limits
# ---------------------------------------------------------------------------


def test_stabilizer_matches_dense_probability():
    shots = 40000
    noise = NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q)
    rng = np.random.default_rng(11)
    for seed in (0, 1, 2):
        circuit = build_mirror_circuit(mirror_circuit_spec(seed, 2, 3))
        exact = run_dense(circuit, noise)
        record = run_stabilizer(circuit, noise, shots, rng)
        rate = record.successes / shots
        assert abs(rate - exact) < 5 * _binomial_sigma(exact, shots)


def test_inverse_half_override_changes_rates():
    spec = mirror_circuit_spec(5, 2, 4)
    circuit = build_mirror_circuit(spec)
    noisy = NoiseModel(two_qubit=Depolarizing(0.3))
    clean_half = NoiseModel(two_qubit=Depolarizing(0.3),
                            inverse_half_override=Depolarizing(0.0))
    p_noisy = run_dense(circuit, noisy)
    p_half = run_dense(circuit, clean_half)
    assert p_half > p_noisy + 0.01


def test_zero_noise_always_succeeds():
    circuit = build_mirror_circuit(mirror_circuit_spec(8, 4, 3))
    record = run_stabilizer(circuit, NoiseModel(), 2000, np.random.default_rng(0))
    assert record.successes == 2000
    assert abs(run_dense(circuit, NoiseModel()) - 1.0) < 1e-12


def test_fully_depolarizing_hits_baseline():
    noise = NoiseModel(two_qubit=Depolarizing(1.0))
    circuit = build_mirror_circuit(mirror_circuit_spec(21, 2, 4))
    assert abs(run_dense(circuit, noise) - 0.25) < 1e-12
    shots = 20000
    record = run_stabilizer(circuit, noise, shots, np.random.default_rng(1))
    rate = record.successes / shots
    assert abs(rate - 0.25) < 5 * _binomial_sigma(0.25, shots)


def test_stabilizer_rejects_non_pauli_noise():
    circuit = build_mirror_circuit(mirror_circuit_spec(2, 2, 1))
    noise = NoiseModel(two_qubit=AmplitudeDamping(0.2))
    with pytest.raises(ValueError, match="stochastic Pauli"):
        run_stabilizer(circuit, noise, 10, np.random.default_rng(0))


def test_run_dense_rejects_large_systems():
    circuit = build_mirror_circuit(mirror_circuit_spec(2, 6, 1))
    with pytest.raises(ValueError):
        run_dense(circuit, NoiseModel())


# ---------------------------------------------------------------------------
# simulate_survival determinism and layout
# ---------------------------------------------------------------------------


def test_simulate_survival_deterministic_and_jobs_invariant():
    specs = [mirror_circuit_spec(s, 2, ell, circuit_id=i)
             for i, (s, ell) in enumerate(((0, 1), (1, 1), (2, 2), (3, 2)))]
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    a = simulate_survival(specs, noise, 500, rng=42)
    b = simulate_survival(specs, noise, 500, rng=42)
    assert a == b
    c = simulate_survival(specs, noise, 500, rng=42, jobs=2)
    assert a == c
    d = simulate_survival(specs, noise, 500, rng=43)
    assert a != d


def test_simulate_survival_accepts_compiled_circuits():
    specs = [mirror_circuit_spec(0, 2, 1), mirror_circuit_spec(1, 2, 2)]
    compiled = [build_mirror_circuit(s) for s in specs]
    noise = NoiseModel(two_qubit=Depolarizing(0.05))
    assert simulate_survival(specs, noise, 300, rng=9) == \
        simulate_survival(compiled, noise, 300, rng=9)


def test_simulate_survival_dense_backend_draws_binomial():
    specs = [mirror_circuit_spec(4, 2, 2)]
    noise = NoiseModel(two_qubit=Depolarizing(0.2))
    ds = simulate_survival(specs, noise, 100000, rng=5, backend="dense")
    exact = run_dense(build_mirror_circuit(specs[0]), noise)
    rate = ds.entries[0].successes / ds.entries[0].shots
    assert abs(rate - exact) < 5 * _binomial_sigma(exact, 100000)


def test_dataset_round_trips(tmp_path):
    specs = [mirror_circuit_spec(s, 2, 1 + s % 3, circuit_id=s) for s in range(4)]
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    ds = simulate_survival(specs, noise, 200, rng=3)
    csv_path = tmp_path / "d.csv"
    json_path = tmp_path / "d.json"
    write_dataset_csv(ds, csv_path)
    write_dataset_json(ds, json_path)
    assert read_dataset_csv(csv_path) == ds
    assert read_dataset_json(json_path) == ds


def test_dataset_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense,header\n1,2\n")
    with pytest.raises((ValueError, KeyError)):
        read_dataset_csv(bad)


@settings(max_examples=300, deadline=None)
@given(shots=st.integers(-3, 2 ** 40), successes=st.integers(-3, 2 ** 40))
def test_read_entry_accepts_exactly_the_possible_counts(shots, successes):
    possible = shots >= 1 and 0 <= successes <= shots
    try:
        entry = _read_entry("4", "1", str(shots), str(successes), "0")
    except ValueError:
        assert not possible
    else:
        assert possible
        assert (entry.shots, entry.successes) == (shots, successes)


def test_dataset_entries_cover_all_circuits():
    specs = [mirror_circuit_spec(s, 2, 2, circuit_id=s) for s in range(3)]
    ds = simulate_survival(specs, NoiseModel(), 50, rng=1)
    assert ds.n_qubits == 2
    assert len(ds.entries) == 3
    assert sorted(e.circuit_id for e in ds.entries) == [0, 1, 2]
    assert all(e.shots == 50 for e in ds.entries)
    assert ds.lengths() == (2,)
