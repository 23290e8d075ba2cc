"""Noisy simulation: fault masks, stabilizer and dense backends, datasets."""

import itertools
import math
import os
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorbench.channels import (
    AmplitudeDamping,
    Depolarizing,
    StochasticPauli,
    UnitaryError,
    computational_state_vector,
    stochastic_pauli_tensor,
)
from mirrorbench.circuits import (
    _circuit_stack,
    _draw_stack,
    _mirror_start,
    mirror_circuit_spec,
    mirror_circuit_stack,
    sample_experiment,
)
from mirrorbench import simulator
from mirrorbench.operators import _CLIFF_WORDS, CLIFFORD_UNITARIES
from mirrorbench.simulator import (
    DatasetEntry,
    DecayDataset,
    NoiseModel,
    _DENSE_WORDS,
    _SEARCH,
    _SHOT_BLOCK,
    _TABLE_WORDS,
    _block_flips,
    _channel,
    _code_ranks,
    _dense_survivals,
    _fault_sites,
    _fault_tables,
    _local_ptm,
    _counted,
    _read_entry,
    _site_class,
    _stack_counts,
    _stack_survivors,
    _task_runs,
    kernel_pauli_probs,
    read_dataset_csv,
    read_dataset_json,
    run_dense,
    run_stabilizer,
    simulate_survival,
    write_dataset_csv,
    write_dataset_json,
)

from conftest import H2, I2, PAULIS_1Q, S2, UZZ_REF, X2, Y2, Z2, kron_all
from pauli_reference import CliffordGate, ZObservables, gate_list


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


@pytest.mark.parametrize("slot", ["two_qubit", "single_qubit", "inverse_half_override"])
def test_noise_model_rejects_a_non_channel(slot):
    # a spec string is not a channel: the error names it, not a qubit count
    with pytest.raises(TypeError, match="'depolarizing:0.1' is not a channel"):
        NoiseModel(**{slot: "depolarizing:0.1"})


def test_stabilizer_compatibility_flag():
    assert NoiseModel(two_qubit=Depolarizing(0.1)).stabilizer_compatible()
    assert NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q).stabilizer_compatible()
    assert not NoiseModel(two_qubit=AmplitudeDamping(0.1)).stabilizer_compatible()


def test_kernel_probs_single_qubit_order():
    # kernel code k = x + 2z: index 1 = X, 2 = Z, 3 = Y
    probs = kernel_pauli_probs(StochasticPauli((0.1, 0.2, 0.3)), 1)
    np.testing.assert_allclose(probs, [0.4, 0.1, 0.3, 0.2], atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_probs_match_the_digit_loop(k):
    # the table must place the same floats in the same slots as this loop
    full = StochasticPauli(tuple(np.random.default_rng(k).random(4 ** k - 1) / 4 ** k))
    ref = np.zeros(4 ** k)
    for ptm_idx, prob in enumerate(full.full_probs()):
        kern, rest = 0, ptm_idx
        for slot in reversed(range(k)):  # PTM digits run first slot qubit first
            kern |= (0, 1, 3, 2)[rest % 4] << (2 * slot)
            rest //= 4
        ref[kern] = prob
    assert kernel_pauli_probs(full, k).tobytes() == ref.tobytes()


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
        u = CLIFFORD_UNITARIES[idx]
        for code, pauli in enumerate(letters):
            image = u @ pauli @ u.conj().T
            overlaps = [abs(np.trace(ref @ image)) for ref in letters]
            table[idx, code] = int(np.argmax(overlaps))
    return table


def _oracle_flips(circuit, noise, uniforms):
    """Per-shot final X-masks from frames pushed through one op at a time.

    Each fault site takes the next uniform column and the first Pauli code
    whose cumulative probability exceeds it.  Also returns the faults drawn
    (the cells at or above P(identity)) as (shot, site, code) arrays.
    """
    one = np.uint64(1)
    code_map = _letter_code_map()
    x = np.zeros(len(uniforms), dtype=np.uint64)
    z = np.zeros(len(uniforms), dtype=np.uint64)
    faults = []
    column = 0
    for pos, gate in enumerate(gate_list(circuit)):
        if isinstance(gate, CliffordGate):
            q = np.uint64(gate.qubit)
            new = code_map[gate.clifford][((x >> q) & one) | (((z >> q) & one) << one)]
            x = (x & ~(one << q)) | ((new & one) << q)
            z = (z & ~(one << q)) | (((new >> one) & one) << q)
            params = noise.single_qubit
        else:
            a, b = (np.uint64(q) for q in gate.qubits)
            differ = ((x >> a) ^ (x >> b)) & one
            z ^= (differ << a) | (differ << b)
            params = noise.two_qubit
            if (pos >= _mirror_start(circuit.n_qubits, circuit.length)
                    and noise.inverse_half_override is not None):
                params = noise.inverse_half_override
        if params is None:
            continue
        cum = np.cumsum(kernel_pauli_probs(params, len(gate.qubits)))
        cum[-1] = 1.0
        k = np.searchsorted(cum, uniforms[:, column], side="right").astype(np.uint64)
        shots = np.flatnonzero(uniforms[:, column] >= cum[0])
        faults.append((shots, np.full(len(shots), column), k[shots].astype(np.intp)))
        column += 1
        for slot, qubit in enumerate(gate.qubits):
            q = np.uint64(qubit)
            x ^= ((k >> np.uint64(2 * slot)) & one) << q
            z ^= ((k >> np.uint64(2 * slot + 1)) & one) << q
    assert column == uniforms.shape[1]
    return x, tuple(np.concatenate(parts) for parts in zip(*faults))


class FaultProgram(NamedTuple):
    masks: np.ndarray
    classes: tuple


def _fault_program(circuit, noise):
    """The ``(sites, 16)`` fault table and the site classes of one circuit:
    a stack of one of ``_fault_tables``."""
    sites, classes = _fault_sites(circuit.n_qubits, circuit.length, noise)
    masks = _fault_tables(circuit.x_images, circuit.z_images, circuit.uzz_layers, sites)
    return FaultProgram(masks[0], classes)


def _stacked(circuits, noise):
    """The fault table of stacks of one circuit of one (n, L), built as one
    stack."""
    sites, _ = _fault_sites(circuits[0].n_qubits, circuits[0].length, noise)
    return _fault_tables(*(np.concatenate([getattr(c, name) for c in circuits])
                           for name in ("x_images", "z_images", "uzz_layers")), sites)


@pytest.mark.parametrize("n_qubits,length", [(2, 3), (4, 4), (10, 6), (64, 4)])
def test_propagate_faults_matches_frame_oracle(n_qubits, length):
    # the oracle's faults of two circuits of one stack, given to the block
    # decode as draws: each fault's place in its class's (shot, site) grid,
    # and a uniform that the class's conditional table turns into its code
    circuits = [mirror_circuit_spec(3 + n_qubits + c, n_qubits, length) for c in range(2)]
    noise = NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q,
                       inverse_half_override=Depolarizing(0.2))
    sites, classes = _fault_sites(n_qubits, length, noise)
    drawn = {id(cls): (cls, [], [], []) for cls in classes}
    expected = []
    for c, circuit in enumerate(circuits):
        uniforms = np.random.default_rng((7, c)).random((2048, len(sites[0])))
        flips, (shots, fault_sites, codes) = _oracle_flips(circuit, noise, uniforms)
        expected.append(flips)
        for cls in classes:
            mine = np.isin(fault_sites, cls.sites)
            _, counts, places, draws = drawn[id(cls)]
            counts.append((c, int(mine.sum())))
            places.append(shots[mine] * len(cls.sites)
                          + np.searchsorted(cls.sites, fault_sites[mine]))
            draws.append(np.concatenate([[0.0], cls.cum_codes])[codes[mine] - 1])
    flips = _block_flips(_stacked(circuits, noise), 2048, drawn.values())
    np.testing.assert_array_equal(flips, np.stack(expected))
    assert np.count_nonzero(flips) > 0


CLOSE = StochasticPauli((0.1, 0.0001, 0.1))  # code boundaries 1/2000 apart
RANK_NOISES = {
    "depolarizing": NoiseModel(two_qubit=Depolarizing(0.05), single_qubit=Depolarizing(0.01)),
    "pauli": NoiseModel(two_qubit=stochastic_pauli_tensor(PAULI_1Q, PAULI_1Q),
                        single_qubit=PAULI_1Q),
    "zero-entries": NoiseModel(
        two_qubit=stochastic_pauli_tensor(StochasticPauli((0.02, 0.0, 0.01)),
                                          StochasticPauli((0.0, 0.0, 0.03))),
        single_qubit=StochasticPauli((0.0, 0.02, 0.0))),
    "close-boundaries": NoiseModel(two_qubit=stochastic_pauli_tensor(CLOSE, CLOSE),
                                   single_qubit=CLOSE),
}


@pytest.mark.parametrize("noise", RANK_NOISES.values(), ids=RANK_NOISES)
def test_code_ranks_equal_searchsorted(noise):
    # at every boundary, the double just below each, both ends of [0, 1)
    # and 10^5 uniforms, for the one- and two-qubit classes
    _, classes = _fault_sites(4, 2, noise)
    assert len(classes) == 2
    rng = np.random.default_rng(31)
    for cls in classes:
        cum = cls.cum_codes
        points = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)],
                                 rng.random(10 ** 5)])
        points = points[points < 1.0]
        expected = np.searchsorted(cum, points, side="right")
        np.testing.assert_array_equal(_code_ranks(cls, points.copy()), expected)
        assert cls.rank_table.dtype == np.uint8 and cls.rank_table.shape == (256,)
    cum = classes[1].cum_codes
    if noise is RANK_NOISES["zero-entries"]:
        assert np.any(np.diff(cum) == 0.0)
    if noise is RANK_NOISES["close-boundaries"]:
        assert np.min(np.diff(cum)[np.diff(cum) > 0]) < 1.0 / 256
        assert np.any(classes[0].rank_table == _SEARCH)


def _reference_block_flips(masks, block, drawn):
    """The block decode with each uniform's rank binary-searched."""
    count, n_sites = masks.shape[:2]
    table = masks.reshape(-1)[1:]
    flips = np.zeros(count * block, dtype=np.uint64)
    for cls, counts, places, uniforms in drawn:
        ranks = np.searchsorted(cls.cum_codes, np.concatenate(uniforms), side="right")
        shot, index = np.divmod(np.concatenate(places), len(cls.sites))
        index = cls.sites[index]
        if count > 1:
            circuits, sizes = zip(*counts)
            index += np.repeat(np.multiply(circuits, n_sites), sizes)
            shot += np.repeat(np.multiply(circuits, block), sizes)
        index *= 16
        index += ranks
        np.bitwise_xor.at(flips, shot, table[index])
    return flips.reshape(count, block)


@pytest.mark.parametrize("n_qubits,length", [(4, 3), (10, 6)])
def test_block_flips_equal_the_searchsorted_reference(n_qubits, length):
    # a stack of six circuits, each under its own noise (the scatter
    # study's classes, some of them q = 0, and dense ones), decoded in
    # slices of one, two and three circuits as _stack_survivors cuts them
    circuits = [mirror_circuit_spec(50 + c, n_qubits, length) for c in range(6)]
    noises = [NoiseModel(two_qubit=Depolarizing(0.3 * (c % 3)),
                         single_qubit=StochasticPauli((0.05, 0.0, 0.1 * (c % 2))))
              for c in range(6)]
    masks = _stacked(circuits, noises[1])
    classes = [_fault_sites(n_qubits, length, noise)[1] for noise in noises]
    rng = np.random.default_rng(32)
    block = 3000
    for start, stop in ((0, 1), (1, 3), (3, 6)):
        drawn = {}
        for c in range(start, stop):
            for cls in classes[c]:
                cells = block * len(cls.sites)
                faults = int(rng.binomial(cells, cls.q)) if cls.q > 0.0 else 0
                if faults:
                    _, counts, places, uniforms = drawn.setdefault(id(cls), (cls, [], [], []))
                    counts.append((c - start, faults))
                    places.append(rng.choice(cells, faults, replace=False, shuffle=False))
                    uniforms.append(rng.random(faults))
        copies = [(cls, list(counts), [p.copy() for p in places], [u.copy() for u in uniforms])
                  for cls, counts, places, uniforms in drawn.values()]
        expected = _reference_block_flips(masks[start:stop], block, copies)
        flips = _block_flips(masks[start:stop], block, drawn.values())
        np.testing.assert_array_equal(flips, expected)
        assert np.count_nonzero(flips) > 0


def _reference_fault_program(circuit, noise):
    """The fault program built gate by gate with the per-gate Z pass.

    Masks come from ``ZObservables.fault_masks`` after each noisy gate, and
    the sites are grouped by ``(channel, arity)`` in order of first site.
    """
    observables = ZObservables(circuit.n_qubits)
    masks = []
    class_sites = {}
    for pos, gate in enumerate(gate_list(circuit)):
        observables.apply(gate)
        if isinstance(gate, CliffordGate):
            params = noise.single_qubit
        elif (pos >= _mirror_start(circuit.n_qubits, circuit.length)
              and noise.inverse_half_override is not None):
            params = noise.inverse_half_override
        else:
            params = noise.two_qubit
        if params is None:
            continue
        class_sites.setdefault((params, len(gate.qubits)), []).append(len(masks))
        row = observables.fault_masks(gate.qubits)
        masks.append(row + [0] * (16 - len(row)))
    assert observables.outcome() == tuple(circuit.outcome[0].tolist())
    return np.array(masks, dtype=np.uint64).reshape(-1, 16), class_sites


MASK_NOISES = (
    NoiseModel(single_qubit=PAULI_1Q),
    NoiseModel(two_qubit=PAULI_2Q),
    NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q),
    NoiseModel(two_qubit=Depolarizing(0.05), inverse_half_override=PAULI_2Q),
    NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q,
               inverse_half_override=Depolarizing(0.02)),
    NoiseModel(two_qubit=Depolarizing(0.05), inverse_half_override=Depolarizing(0.05)),
    NoiseModel(inverse_half_override=Depolarizing(0.05)),
)


@pytest.mark.parametrize("n_qubits", [2, 4, 10, 64])
@pytest.mark.parametrize("noise", MASK_NOISES)
def test_round_wise_masks_equal_the_per_gate_reference(n_qubits, noise):
    for seed, length in ((n_qubits, 1), (n_qubits + 1, 3), (n_qubits + 2, 6)):
        circuit = mirror_circuit_spec(seed, n_qubits, length)
        program = _fault_program(circuit, noise)
        masks, class_sites = _reference_fault_program(circuit, noise)
        np.testing.assert_array_equal(program.masks, masks)
        assert len(program.classes) == len(class_sites)
        for cls, ((params, arity), sites) in zip(program.classes, class_sites.items()):
            np.testing.assert_array_equal(cls.sites, sites)
            ref = _site_class(kernel_pauli_probs(params, arity), sites)
            assert cls.q == ref.q
            np.testing.assert_array_equal(cls.cum_codes, ref.cum_codes)


def _mixed_length_circuits(n_qubits, count=12):
    """``count`` stacks of one circuit whose lengths 1, 3 and 6 take turns,
    so each length's table batches gather positions that are not adjacent."""
    return [mirror_circuit_spec(100 * n_qubits + i, n_qubits, (1, 3, 6)[i % 3], circuit_id=i)
            for i in range(count)]


def _length_stacks(circuits):
    """The stacks of one ``circuits`` drawn again as one stack per length,
    in order of length, and the circuits in the order of those stacks."""
    ordered = sorted(circuits, key=lambda c: c.length)
    stacks = []
    for length, group in itertools.groupby(ordered, key=lambda c: c.length):
        group = list(group)
        seeds = [c.seeds[0] for c in group]
        stacks.append(_circuit_stack(_draw_stack(seeds, group[0].n_qubits, length), seeds,
                                     [c.circuit_ids[0] for c in group]))
    return stacks, ordered


def _table_slices(sizes, noise):
    """The positions of circuits of the given (n, L) ``sizes``, grouped by
    size in order of first appearance, each group cut into slices of at
    most ``_TABLE_WORDS`` table words (16 per fault site and circuit) and
    at least one circuit, as the stack runner cuts a stack of one noise."""
    groups = {}
    for i, size in enumerate(sizes):
        groups.setdefault(size, []).append(i)
    out = []
    for size, members in groups.items():
        count = max(1, _TABLE_WORDS // max(16 * len(_fault_sites(*size, noise)[0][0]), 1))
        out.extend(members[k:k + count] for k in range(0, len(members), count))
    return out


@pytest.mark.parametrize("n_qubits", [2, 4, 10, 64])
@pytest.mark.parametrize("noise", MASK_NOISES)
def test_batched_fault_tables_equal_each_circuit_compiled_alone(n_qubits, noise):
    circuits = _mixed_length_circuits(n_qubits)
    batches = _table_slices([(c.n_qubits, c.length) for c in circuits], noise)
    assert sorted(pos for batch in batches for pos in batch) == list(range(len(circuits)))
    if n_qubits == 64 and None not in (noise.single_qubit, noise.two_qubit):
        # 1,152 sites at L = 6: three circuits fill a batch, so the four of
        # that length are cut in two
        assert len(batches) == 4
    for batch in batches:
        group = [circuits[pos] for pos in batch]
        assert len({c.length for c in group}) == 1
        sites, _ = _fault_sites(n_qubits, group[0].length, noise)
        masks = _fault_tables(np.concatenate([c.x_images for c in group]),
                              np.concatenate([c.z_images for c in group]),
                              np.concatenate([c.uzz_layers for c in group]), sites)
        assert len(batch) == 1 or masks.size <= _TABLE_WORDS
        for circuit, table in zip(group, masks):
            np.testing.assert_array_equal(table, _fault_program(circuit, noise).masks)
        # a one-qubit site's codes 4-15 are zero, not copies of codes 0-3
        (_, is_uzz, _), _ = _fault_sites(n_qubits, group[0].length, noise)
        assert not masks[:, ~is_uzz, 4:].any()


@pytest.mark.parametrize("n_qubits", [2, 64])
@pytest.mark.parametrize("noise", MASK_NOISES)
def test_fault_tables_write_every_code_of_an_empty_table(n_qubits, noise, monkeypatch):
    # the table is taken with np.empty, so every code, 0 included, must be
    # written: built over a buffer of old words, it is the same table
    circuits = [mirror_circuit_spec(s, n_qubits, 3) for s in range(3)]
    masks = _stacked(circuits, noise)
    monkeypatch.setattr(simulator.np, "empty",
                        lambda shape, dtype: np.full(shape, 0xDEADBEEF, dtype=dtype))
    np.testing.assert_array_equal(_stacked(circuits, noise), masks)


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_survival_counts_are_each_circuits_run_stabilizer(jobs):
    # n = 64 with one-qubit noise: twelve circuits as three stacks, one per
    # length, so the stack of L = 6 spans two table batches and so two tasks
    # under either jobs; circuit c of the stacks draws from (master, c)
    stacks, circuits = _length_stacks(_mixed_length_circuits(64))
    assert [len(stack) for stack in stacks] == [4, 4, 4]
    noise = NoiseModel(two_qubit=Depolarizing(0.002),
                       single_qubit=StochasticPauli((0.001, 0.0005, 0.001)))
    assert len(_table_slices([(64, 6)] * 4, noise)) == 2
    master, shots = 77, 300
    ds = simulate_survival(stacks, noise, shots, rng=master, jobs=jobs)
    expected = [run_stabilizer(circuit, noise, shots,
                               np.random.default_rng(np.random.SeedSequence((master, pos))))
                for pos, circuit in enumerate(circuits)]
    assert [e.successes for e in ds.entries] == expected
    assert [(e.length, e.circuit_id) for e in ds.entries] == \
        [(c.length, c.circuit_ids[0]) for c in circuits]
    assert 0 < sum(expected) < shots * len(circuits)


@pytest.mark.parametrize("n_qubits,lengths,count,sizes", [
    (4, (4, 8, 4), 2, [2, 2, 2]),  # a repeated length is a stack of its own
    (64, (6, 1, 6), 4, [4, 4, 4]),  # a stack of L = 6 spans two table batches
    (64, (1,), 257, [256, 1]),  # 256 circuits fill a stack's image words
    (256, (1,), 18, [16, 2]),  # above both backends' limits: the stacks alone
])
def test_sampled_stacks_run_as_their_circuits_alone(n_qubits, lengths, count, sizes):
    # sample_experiment's stacks are in circuit-id order, so each circuit's
    # position among them, which names its child stream, is its circuit id:
    # the dataset is that of each circuit drawn, compiled and run alone
    stacks = sample_experiment(5, n_qubits, lengths, count)
    assert [len(stack) for stack in stacks] == sizes
    rows = [(stack.length, circuit_id, seed) for stack in stacks
            for circuit_id, seed in zip(stack.circuit_ids, stack.seeds)]
    assert [circuit_id for _, circuit_id, _ in rows] == list(range(len(rows)))
    alone = [mirror_circuit_spec(seed, n_qubits, length, circuit_id=circuit_id)
             for length, circuit_id, seed in rows]
    stacked = [(stack, c) for stack in stacks for c in range(len(stack))]
    for (stack, c), circuit in zip(stacked, alone):
        for name in ("cliffords", "matchings", "paulis", "rounds", "outcome"):
            np.testing.assert_array_equal(getattr(stack, name)[c], getattr(circuit, name)[0])
    noise = NoiseModel(two_qubit=Depolarizing(0.002),
                       single_qubit=StochasticPauli((0.001, 0.0005, 0.001)))
    backends = [backend for backend, limit in (("stabilizer", 64), ("dense", 8))
                if n_qubits <= limit]
    for backend in backends:
        ds = simulate_survival(stacks, noise, 300, rng=31, backend=backend)
        assert ds == simulate_survival(alone, noise, 300, rng=31, backend=backend)
        # two workers cut the stacks into tasks of at most half the circuits
        assert ds == simulate_survival(stacks, noise, 300, rng=31, jobs=2, backend=backend)
        assert [(e.length, e.circuit_id, e.seed) for e in ds.entries] == rows
        assert 0 < sum(e.successes for e in ds.entries) < 300 * len(rows)


def test_simulate_survival_memory_does_not_grow_with_the_circuit_count():
    # n = 64, L = 16: 16,384 table words a circuit, so four fill a batch.
    # The traced peak of 24 circuits is that of 8 within 64 KB, and below
    # 1.5 MB.
    circuits = [mirror_circuit_spec(s, 64, 16, circuit_id=s) for s in range(24)]
    noise = NoiseModel(two_qubit=Depolarizing(0.001))
    simulate_survival(circuits[:1], noise, 100, rng=0)  # caches outside the trace
    peaks = []
    for count in (8, 24):
        tracemalloc.start()
        try:
            simulate_survival(circuits[:count], noise, 1000, rng=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert peaks[1] < 1.5 * 2 ** 20


def _reference_survivors(masks, classes, shots, rng):
    """The per-circuit shot loop that the stack loop replaced: per block of
    ``_SHOT_BLOCK`` shots and per class, the binomial number of faulty
    cells, their places and their codes' uniforms, then the masks XORed
    into their shots."""
    successes = 0
    for done in range(0, shots, _SHOT_BLOCK):
        block = min(_SHOT_BLOCK, shots - done)
        flips = np.zeros(block, dtype=np.uint64)
        for cls in classes:
            if cls.q == 0.0:
                continue
            cells = block * len(cls.sites)
            count = int(rng.binomial(cells, cls.q))
            if count == 0:
                continue
            shot, pos = np.divmod(rng.choice(cells, count, replace=False, shuffle=False),
                                  len(cls.sites))
            codes = 1 + np.searchsorted(cls.cum_codes, rng.random(count), side="right")
            np.bitwise_xor.at(flips, shot, masks[cls.sites[pos], codes])
        successes += int(np.count_nonzero(flips == 0))
    return successes


def _circuit_noises(count):
    """One noise per circuit, all placing the same sites but each with its
    own classes, as the scatter study passes them; in every fourth both
    classes have q = 0."""
    return [NoiseModel(two_qubit=Depolarizing(0.004 * (i % 4)),
                       single_qubit=StochasticPauli((0.001 * (i % 4), 0.0005 * (i % 4),
                                                     0.002 * (i % 4))))
            for i in range(count)]


@pytest.mark.parametrize("shots", [1, 100, 8193])
@pytest.mark.parametrize("n_qubits", [2, 4, 10, 64])
def test_stack_loop_counts_equal_the_per_circuit_loop(n_qubits, shots):
    # twelve circuits, lengths 1, 3 and 6 interleaved, each with its own
    # noise and child stream (consecutive positions); 8193 shots take two
    # blocks
    circuits = _mixed_length_circuits(n_qubits)
    noises = _circuit_noises(len(circuits))
    sizes = [(c.n_qubits, c.length) for c in circuits]
    counts = []
    for batch in _table_slices(sizes, noises[1]):
        streams = [np.random.SeedSequence((21, i)) for i in batch]
        rngs = [np.random.default_rng(seq) for seq in streams]
        untouched = [rng.bit_generator.state for rng in rngs]
        masks = _stacked([circuits[i] for i in batch], noises[1])
        classes = [_fault_sites(*sizes[i], noises[i])[1] for i in batch]
        stacked = _stack_survivors(masks, classes, shots, rngs)
        sites, _ = _fault_sites(*sizes[batch[0]], noises[1])
        assert _counted((None, [np.concatenate([getattr(circuits[i], name) for i in batch])
                                for name in ("x_images", "z_images", "uzz_layers")],
                         sites, classes, shots, [(21, i) for i in batch]))[1] == stacked.tolist()
        for c, i in enumerate(batch):
            reference = np.random.default_rng(streams[c])
            assert stacked[c] == _reference_survivors(masks[c], classes[c], shots, reference)
            assert rngs[c].bit_generator.state == reference.bit_generator.state
            if i % 4 == 0:  # q = 0 in every class: no draw, every shot survives
                assert rngs[c].bit_generator.state == untouched[c]
                assert stacked[c] == shots
            counts.append(int(stacked[c]))
    if shots > 1:
        assert 0 < sum(counts) < shots * len(circuits)


def test_stack_loop_memory_holds_each_fault_a_few_times():
    # n = 64, L = 16, four circuits to a batch, 10k shots (two blocks) at
    # about 7,900 faults per circuit and block: the traced peak of the
    # stack stays below 8 words per fault of one circuit's block, and near
    # that of one circuit alone, as it would not if the loop held the faults
    # of the whole stack
    noise = NoiseModel(two_qubit=Depolarizing(0.001))
    circuits = [mirror_circuit_spec(s, 64, 16) for s in range(4)]
    masks = _stacked(circuits, noise)
    _, classes = _fault_sites(64, 16, noise)
    faults = _SHOT_BLOCK * len(classes[0].sites) * classes[0].q
    peaks = []
    for count in (1, 4):
        tracemalloc.start()
        try:
            _stack_survivors(masks[:count], [classes] * count, 10000,
                             [np.random.default_rng(s) for s in range(count)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * 8 * faults
    assert peaks[1] < peaks[0] + 128 * 1024


def _site_probs(program):
    """probs[j, k]: the probability of Pauli code k at site j, from the classes."""
    probs = np.zeros(program.masks.shape)
    for cls in program.classes:
        given_fault = np.diff(cls.cum_codes, prepend=0.0)
        probs[cls.sites, 0] = 1.0 - cls.q
        probs[cls.sites, 1:1 + len(given_fault)] = cls.q * given_fault
    return probs


def _exact_survival(program, n_qubits):
    """P(all final flips cancel) = 2^-n sum_s prod_j sum_k p_j(k) (-1)^popcount(s & M[j, k])."""
    s = np.arange(2 ** n_qubits, dtype=np.uint64)[:, None]
    total = np.ones(2 ** n_qubits)
    for probs, masks in zip(_site_probs(program), program.masks):
        signs = 1.0 - 2.0 * (np.bitwise_count(s & masks) & 1)
        total *= signs @ probs
    return float(total.mean())


ORACLE_NOISES = (
    NoiseModel(two_qubit=PAULI_2Q),
    NoiseModel(two_qubit=Depolarizing(0.05), single_qubit=PAULI_1Q),
    NoiseModel(two_qubit=PAULI_2Q, single_qubit=StochasticPauli((0.01, 0.0, 0.02)),
               inverse_half_override=Depolarizing(0.0)),
    NoiseModel(two_qubit=Depolarizing(0.02), inverse_half_override=PAULI_2Q),
)


@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
@pytest.mark.parametrize("noise", ORACLE_NOISES)
def test_exact_survival_oracle_matches_dense(n_qubits, noise):
    for seed in range(3):
        circuit = mirror_circuit_spec(seed, n_qubits, 2 + seed)
        exact = _exact_survival(_fault_program(circuit, noise), n_qubits)
        assert abs(exact - run_dense(circuit, noise)) < 1e-9


@pytest.mark.parametrize("n_qubits,length,shots", [(4, 8, 20000), (10, 6, 20000)])
def test_sparse_sampler_matches_exact_survival(n_qubits, length, shots):
    # 20 consecutive circuit seeds; at most one count may lie past 5 sigma
    weak_1q = StochasticPauli((0.002, 0.001, 0.003))
    noise = NoiseModel(two_qubit=Depolarizing(0.01), single_qubit=weak_1q,
                       inverse_half_override=stochastic_pauli_tensor(weak_1q, weak_1q))
    rng = np.random.default_rng(60 + n_qubits)
    excursions = 0
    for seed in range(20):
        circuit = mirror_circuit_spec(seed, n_qubits, length)
        exact = _exact_survival(_fault_program(circuit, noise), n_qubits)
        rate = run_stabilizer(circuit, noise, shots, rng) / shots
        excursions += abs(rate - exact) > 5 * _binomial_sigma(exact, shots)
    assert excursions <= 1


def test_identity_probability_below_zero_is_clamped():
    # the three probabilities sum to 1 + 5e-10, within StochasticPauli's tolerance
    noise = NoiseModel(single_qubit=StochasticPauli((0.5, 0.25, 0.2500000005)),
                       two_qubit=Depolarizing(0.05))
    circuit = mirror_circuit_spec(3, 2, 3)
    program = _fault_program(circuit, noise)
    assert max(cls.q for cls in program.classes) == 1.0
    shots = 20000
    exact = run_dense(circuit, noise)
    rate = run_stabilizer(circuit, noise, shots, np.random.default_rng(4)) / shots
    assert abs(rate - exact) < 5 * _binomial_sigma(exact, shots)


def test_noiseless_class_draws_nothing():
    circuit = mirror_circuit_spec(6, 4, 3)
    noise = NoiseModel(two_qubit=Depolarizing(0.0))  # as `@inverse=none` on both halves
    program = _fault_program(circuit, noise)
    assert [cls.q for cls in program.classes] == [0.0]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert run_stabilizer(circuit, noise, 20000, rng) == 20000
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# Density-matrix oracle for non-Pauli noise
# ---------------------------------------------------------------------------


def _on_qubits(ops, qubits, n):
    """The 2x2 ``ops`` placed at ``qubits`` of an n-qubit register (qubit 0 leftmost)."""
    placed = dict(zip(qubits, ops))
    return kron_all([placed.get(q, I2) for q in range(n)])


def _uzz_on(a, b, n):
    """UZZ on the pair (a, b): ``UZZ_REF``'s diagonal read per basis state."""
    idx = np.arange(2 ** n)
    bit_a = (idx >> (n - 1 - a)) & 1
    bit_b = (idx >> (n - 1 - b)) & 1
    return np.diag(np.diag(UZZ_REF)[2 * bit_a + bit_b])


def _kraus_ops(params, qubits, n):
    """Kraus operators of a channel on ``qubits`` of an n-qubit register."""
    k = len(qubits)
    if isinstance(params, AmplitudeDamping):  # one damping channel per qubit
        g = params.gamma
        damp = (np.array([[1, 0], [0, math.sqrt(1 - g)]]),
                np.array([[0, math.sqrt(g)], [0, 0]]))
        return [_on_qubits(ops, qubits, n) for ops in itertools.product(damp, repeat=k)]
    if isinstance(params, Depolarizing):  # (1-p) rho + p 4^-k sum_P P rho P
        paulis = itertools.product((I2, X2, Y2, Z2), repeat=k)
        return [math.sqrt(1 - params.p) * np.eye(2 ** n)] + [
            math.sqrt(params.p / 4 ** k) * _on_qubits(ops, qubits, n) for ops in paulis]
    if isinstance(params, UnitaryError):
        axis = _on_qubits([PAULIS_1Q[c] for c in params.axis], qubits, n)
        return [math.cos(params.theta / 2) * np.eye(2 ** n)
                - 1j * math.sin(params.theta / 2) * axis]
    raise TypeError(f"no Kraus form for {params!r}")


def _density_matrix_survival(circuit, noise):
    """P(expected outcome) from |0...0><0...0| pushed through the gate list."""
    n = circuit.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for pos, gate in enumerate(gate_list(circuit)):
        if isinstance(gate, CliffordGate):
            u = I2
            for letter in _CLIFF_WORDS[gate.clifford]:  # time order
                u = {"h": H2, "s": S2}[letter] @ u
            u = _on_qubits([u], gate.qubits, n)
            params = noise.single_qubit
        else:
            u = _uzz_on(*gate.qubits, n)
            params = noise.two_qubit
            if (pos >= _mirror_start(circuit.n_qubits, circuit.length)
                    and noise.inverse_half_override is not None):
                params = noise.inverse_half_override
        rho = u @ rho @ u.conj().T
        if params is not None:
            rho = sum(k @ rho @ k.conj().T for k in _kraus_ops(params, gate.qubits, n))
    index = sum(bit << (n - 1 - q) for q, bit in enumerate(circuit.outcome[0].tolist()))
    return float(rho[index, index].real)


NON_PAULI_NOISES = (
    NoiseModel(two_qubit=AmplitudeDamping(0.06), single_qubit=AmplitudeDamping(0.03)),
    NoiseModel(two_qubit=Depolarizing(0.04), single_qubit=AmplitudeDamping(0.05),
               inverse_half_override=AmplitudeDamping(0.1)),
    NoiseModel(two_qubit=UnitaryError("ZZ", 0.3), single_qubit=UnitaryError("X", 0.2)),
    # an asymmetric axis: the channel's first slot is the gate's first qubit
    NoiseModel(two_qubit=AmplitudeDamping(0.05), inverse_half_override=UnitaryError("XY", 0.4)),
)


# (n, index into NON_PAULI_NOISES): every model up to n = 6, and at n = 8
# the coherent and the asymmetric-axis ones, where one circuit's oracle
# takes about 0.5 s
ORACLE_CASES = [(n, i) for n in (2, 4, 6) for i in range(len(NON_PAULI_NOISES))] + [
    (8, 2), (8, 3)]


@pytest.mark.parametrize("n_qubits, noise",
                         [(n, NON_PAULI_NOISES[i]) for n, i in ORACLE_CASES],
                         ids=[f"noise{i}-{n}" for n, i in ORACLE_CASES])
def test_dense_matches_density_matrix_oracle(n_qubits, noise):
    for seed in range(3 if n_qubits < 8 else 1):
        circuit = mirror_circuit_spec(seed, n_qubits, 2 + seed)
        expected = _density_matrix_survival(circuit, noise)
        assert expected < 0.99
        assert abs(run_dense(circuit, noise) - expected) < 1e-12


# ---------------------------------------------------------------------------
# The dense stack kernel against the per-circuit loop
# ---------------------------------------------------------------------------


def _reference_uzz_layer(state, axes, inverse, ptm):
    """``state`` after a UZZ layer merged with its channel (``ptm``, the
    transposed 16x16 PTM), given the layer's pairs one after another as
    ``axes`` and its ``inverse`` permutation."""
    n = len(axes)
    state = state.reshape((4,) * n).transpose(axes)
    for _ in range(n // 2):
        state = np.dot(state.reshape(16, -1).T, ptm)
    return state.reshape((4,) * n).transpose(inverse)


def _reference_dense_survival(rounds, layers, outcome, noise):
    """The per-circuit PTM loop that the stack kernel replaced, on one
    circuit's ``(2L, n)`` rounds, ``(2L, n/2, 2)`` layers and outcome bits:
    a fresh state from every product."""
    steps, n = rounds.shape
    layers = layers.reshape(steps, n)
    inverses = np.argsort(layers, axis=1).tolist()
    layers = layers.tolist()
    clifford_ptms = [_local_ptm(c, _channel(noise, 1, False), 1).T for c in range(24)]
    uzz_ptms = [_local_ptm(None, _channel(noise, 2, mirrored), 2).reshape(16, 16).T
                for mirrored in (False, True)]
    state = computational_state_vector(n, 0)
    for r, cliffords in enumerate(rounds.tolist()):
        mirrored = r >= steps // 2
        if mirrored:
            state = _reference_uzz_layer(state, layers[r], inverses[r], uzz_ptms[1])
        for clifford in cliffords:
            state = np.dot(state.reshape(4, -1).T, clifford_ptms[clifford])
        if not mirrored:
            state = _reference_uzz_layer(state, layers[r], inverses[r], uzz_ptms[0])
    bits = sum(int(bit) << q for q, bit in enumerate(outcome))
    prob = float(computational_state_vector(n, bits) @ state.reshape(-1))
    return min(max(prob, 0.0), 1.0)


def _reference_probabilities(stack, noise):
    return [_reference_dense_survival(stack.rounds[c], stack.uzz_layers[c],
                                      stack.outcome[c], noise) for c in range(len(stack))]


_WEAK_1Q = StochasticPauli((0.01, 0.002, 0.005))
KERNEL_NOISES = (
    NoiseModel(two_qubit=AmplitudeDamping(0.05)),
    NoiseModel(two_qubit=Depolarizing(0.03), inverse_half_override=AmplitudeDamping(0.04)),
    NoiseModel(two_qubit=stochastic_pauli_tensor(_WEAK_1Q, _WEAK_1Q), single_qubit=_WEAK_1Q,
               inverse_half_override=Depolarizing(0.0)),  # pauli@inverse=none
    NoiseModel(two_qubit=UnitaryError("XI", 0.4)),
    NoiseModel(),
)


@pytest.mark.parametrize("noise", KERNEL_NOISES,
                         ids=["amp_damp", "inverse_amp_damp", "pauli_inverse_none",
                              "unitary_XI", "noiseless"])
@pytest.mark.parametrize("length", [1, 3, 6])
@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
def test_dense_stack_is_the_per_circuit_loop_exactly(n_qubits, length, noise):
    # each circuit's products are the same BLAS products on the same views
    # as in the loop, so the probabilities are equal, not merely close
    count = 2 if n_qubits == 8 else 5
    stack = mirror_circuit_stack(range(10 * n_qubits, 10 * n_qubits + count), n_qubits, length)
    probs = _dense_survivals(stack.rounds, stack.uzz_layers, stack.outcome, noise)
    assert probs.shape == (count,)
    assert probs.tolist() == _reference_probabilities(stack, noise)
    assert run_dense(mirror_circuit_spec(10 * n_qubits, n_qubits, length), noise) == probs[0]


@pytest.mark.parametrize("n_qubits,count,batches", [
    (6, 17, [16, 1]),  # a stack spans two buffer batches
    (8, 2, [1, 1]),  # one n = 8 state fills a buffer
])
def test_dense_batches_hold_a_buffer_and_draw_the_per_circuit_counts(
        n_qubits, count, batches, monkeypatch):
    stack = mirror_circuit_stack(range(count), n_qubits, 3)
    seen = []

    def recorded(rounds, *rest):
        seen.append(len(rounds))
        return _dense_survivals(rounds, *rest)

    monkeypatch.setattr(simulator, "_dense_survivals", recorded)
    noise = KERNEL_NOISES[1]
    master, shots = 19, 1000
    ds = simulate_survival(stack, noise, shots, rng=master, backend="dense")
    assert seen == batches
    assert all(size << 2 * n_qubits <= _DENSE_WORDS for size in seen)
    expected = [int(np.random.default_rng(np.random.SeedSequence((master, pos)))
                    .binomial(shots, prob))
                for pos, prob in enumerate(_reference_probabilities(stack, noise))]
    assert [e.successes for e in ds.entries] == expected


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("backend", ["stabilizer", "dense"])
def test_one_stack_runs_as_its_seeds_alone(backend, jobs):
    # mirror_circuit_stack's circuits are those of mirror_circuit_spec, and
    # a stack gives the dataset of its circuits passed as records of one
    seeds = [41, 7, 1003, 12, 5]
    stack = mirror_circuit_stack(seeds, 4, 5, circuit_ids=[3, 4, 5, 6, 7])
    alone = [mirror_circuit_spec(seed, 4, 5, circuit_id=3 + c) for c, seed in enumerate(seeds)]
    noise = NoiseModel(two_qubit=Depolarizing(0.02), single_qubit=_WEAK_1Q)
    ds = simulate_survival(stack, noise, 500, rng=23, jobs=jobs, backend=backend)
    assert ds == simulate_survival(alone, noise, 500, rng=23, jobs=jobs, backend=backend)
    assert [(e.circuit_id, e.seed) for e in ds.entries] == list(zip(range(3, 8), seeds))
    assert 0 < sum(e.successes for e in ds.entries) < 500 * len(seeds)


@pytest.mark.parametrize("jobs", [1, 2])
def test_stack_runner_runs_each_circuit_under_its_own_noise(jobs):
    # n = 64, three stabilizer stacks (L = 1, 3, 6) of six circuits, each
    # circuit with its own noise and child seed: A and B place the same
    # 1,152 sites at L = 6 (so A, B, B, A is one run of the stack, cut at
    # three circuits by table words), C only the UZZ sites, and the
    # noiseless NoiseModel() none.  Each count is that of its circuit run
    # alone, by _counted and by the per-circuit reference loop.
    pool = {"A": NoiseModel(two_qubit=Depolarizing(0.002), single_qubit=_WEAK_1Q),
            "B": NoiseModel(two_qubit=Depolarizing(0.004), single_qubit=_WEAK_1Q),
            "C": NoiseModel(two_qubit=Depolarizing(0.01)),
            "Z": NoiseModel()}
    stacks, _ = _length_stacks(_mixed_length_circuits(64, 18))
    triples = [(stack, [pool[key] for key in order], [(31, s, c) for c in range(len(stack))])
               for s, (stack, order) in enumerate(zip(stacks, ("AABZZC", "ZCCABB", "ABBAZC")))]
    assert [run[:2] for run in _task_runs(stacks[2], triples[2][1], "stabilizer")] == \
        [[0, 4], [4, 5], [5, 6]]
    shots = 200
    counts = _stack_counts(triples, shots, jobs, "stabilizer")
    for (stack, noises, seeds), stack_counts in zip(triples, counts):
        assert stack_counts.dtype == np.int64 and len(stack_counts) == len(stack)
        for c, (noise, seed) in enumerate(zip(noises, seeds)):
            circuit = mirror_circuit_spec(stack.seeds[c], 64, stack.length)
            program = _fault_program(circuit, noise)
            sites, _ = _fault_sites(64, stack.length, noise)
            _, alone = _counted((None, (circuit.x_images, circuit.z_images, circuit.uzz_layers),
                                 sites, [program.classes], shots, [seed]))
            reference = _reference_survivors(program.masks, program.classes, shots,
                                             np.random.default_rng(np.random.SeedSequence(seed)))
            assert [stack_counts[c]] == alone == [reference]
            if noise is pool["Z"]:
                assert stack_counts[c] == shots
    assert 0 < sum(map(np.sum, counts)) < shots * 18
    # a dense stack whose rows change noise: each row's count is drawn from
    # the probability of its circuit under its own noise
    stack = mirror_circuit_stack(range(6), 4, 3)
    noises = [KERNEL_NOISES[k] for k in (0, 0, 4, 3, 1, 0)]
    seeds = [(37, c) for c in range(6)]
    (dense,) = _stack_counts([(stack, noises, seeds)], 1000, jobs, "dense")
    assert [run[:2] for run in _task_runs(stack, noises, "dense")] == \
        [[0, 2], [2, 3], [3, 4], [4, 5], [5, 6]]
    probs = [_dense_survivals(stack.rounds[c:c + 1], stack.uzz_layers[c:c + 1],
                              stack.outcome[c:c + 1], noise)[0]
             for c, noise in enumerate(noises)]
    assert dense.tolist() == [
        int(np.random.default_rng(np.random.SeedSequence(seed)).binomial(1000, prob))
        for prob, seed in zip(probs, seeds)]
    assert dense[2] == 1000  # noiseless


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_memory_is_two_state_buffers():
    noise = KERNEL_NOISES[1]
    # n = 8: two 512 KB buffers, at most the loop's fresh state per product
    circuit = mirror_circuit_spec(3, 8, 2)
    run_dense(circuit, noise)  # caches outside the trace
    args = (circuit.rounds, circuit.uzz_layers, circuit.outcome)
    kernel = _traced_peak(lambda: _dense_survivals(*args, noise))
    loop = _traced_peak(lambda: _reference_dense_survival(*(a[0] for a in args), noise))
    assert kernel <= loop
    # 1,000 n = 4 circuits run in batches of 256 within the same two buffers
    # (as one batch they would take 4 MB), and the rows, layers and dataset
    # take the rest
    stack = mirror_circuit_stack(range(1000), 4, 2)
    peak = _traced_peak(lambda: simulate_survival(stack, noise, 100, rng=1, backend="dense"))
    assert peak <= 2 * _DENSE_WORDS * 8 + 512 * 1024


# ---------------------------------------------------------------------------
# Backend agreement and degenerate limits
# ---------------------------------------------------------------------------


def test_stabilizer_matches_dense_probability():
    shots = 40000
    noise = NoiseModel(two_qubit=PAULI_2Q, single_qubit=PAULI_1Q)
    rng = np.random.default_rng(11)
    for seed in (0, 1, 2):
        circuit = mirror_circuit_spec(seed, 2, 3)
        exact = run_dense(circuit, noise)
        rate = run_stabilizer(circuit, noise, shots, rng) / shots
        assert abs(rate - exact) < 5 * _binomial_sigma(exact, shots)


def test_inverse_half_override_changes_rates():
    circuit = mirror_circuit_spec(5, 2, 4)
    noisy = NoiseModel(two_qubit=Depolarizing(0.3))
    clean_half = NoiseModel(two_qubit=Depolarizing(0.3),
                            inverse_half_override=Depolarizing(0.0))
    p_noisy = run_dense(circuit, noisy)
    p_half = run_dense(circuit, clean_half)
    assert p_half > p_noisy + 0.01


def test_zero_noise_always_succeeds():
    circuit = mirror_circuit_spec(8, 4, 3)
    successes = run_stabilizer(circuit, NoiseModel(), 2000, np.random.default_rng(0))
    assert type(successes) is int and successes == 2000
    assert abs(run_dense(circuit, NoiseModel()) - 1.0) < 1e-12


def test_fully_depolarizing_hits_baseline():
    noise = NoiseModel(two_qubit=Depolarizing(1.0))
    circuit = mirror_circuit_spec(21, 2, 4)
    assert abs(run_dense(circuit, noise) - 0.25) < 1e-12
    shots = 20000
    rate = run_stabilizer(circuit, noise, shots, np.random.default_rng(1)) / shots
    assert abs(rate - 0.25) < 5 * _binomial_sigma(0.25, shots)


def test_stabilizer_rejects_non_pauli_noise():
    circuit = mirror_circuit_spec(2, 2, 1)
    noise = NoiseModel(two_qubit=AmplitudeDamping(0.2))
    with pytest.raises(ValueError, match="stochastic Pauli"):
        run_stabilizer(circuit, noise, 10, np.random.default_rng(0))


def test_run_dense_rejects_large_systems():
    circuit = mirror_circuit_spec(2, 10, 1)
    with pytest.raises(ValueError):
        run_dense(circuit, NoiseModel())


# ---------------------------------------------------------------------------
# simulate_survival determinism and layout
# ---------------------------------------------------------------------------


def test_simulate_survival_deterministic_and_jobs_invariant():
    # seeds 0-3 at lengths 1, 1, 2, 2 as two stacks of two, which two
    # workers run as a task each
    specs, _ = _length_stacks([mirror_circuit_spec(s, 2, ell, circuit_id=i)
                               for i, (s, ell) in enumerate(((0, 1), (1, 1), (2, 2), (3, 2)))])
    assert [len(stack) for stack in specs] == [2, 2]
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    a = simulate_survival(specs, noise, 500, rng=42)
    b = simulate_survival(specs, noise, 500, rng=42)
    assert a == b
    c = simulate_survival(specs, noise, 500, rng=42, jobs=2)
    assert a == c
    d = simulate_survival(specs, noise, 500, rng=43)
    assert a != d


@pytest.mark.parametrize("backend", ["stabilizer", "dense"])
def test_simulate_survival_rejects_zero_shots(backend):
    # a dataset row needs shots >= 1, so neither backend may write one with 0
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    with pytest.raises(ValueError, match="shots must be >= 1"):
        simulate_survival([mirror_circuit_spec(0, 2, 1)], noise, 0, rng=1, backend=backend)


@pytest.mark.parametrize("jobs", [0, -1])
def test_simulate_survival_rejects_fewer_than_one_job(jobs):
    # no worker count below one may fall back to a serial run without a word
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        simulate_survival([mirror_circuit_spec(0, 2, 1)], noise, 100, rng=1, jobs=jobs)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
def test_simulate_survival_rejects_a_seed_that_is_not_an_integer(seed):
    # as default_rng does: 1.5 must not run silently as seed 1
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    with pytest.raises(TypeError):
        simulate_survival(mirror_circuit_spec(0, 2, 1), noise, 10, rng=seed)
    assert simulate_survival(mirror_circuit_spec(0, 2, 1), noise, 10, rng=np.int64(1)) == \
        simulate_survival(mirror_circuit_spec(0, 2, 1), noise, 10, rng=1)


@pytest.mark.parametrize("seed", [True, False, np.True_])
def test_simulate_survival_rejects_a_bool_seed(seed):
    # True ran as seed 1
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    with pytest.raises(TypeError):
        simulate_survival(mirror_circuit_spec(0, 2, 1), noise, 10, rng=seed)


def test_simulate_survival_accepts_compiled_circuits():
    # checks simulate_survival's input types: a stack, or a list of
    # stacks; position 0 is the first circuit either way
    specs = [mirror_circuit_spec(0, 2, 1), mirror_circuit_spec(1, 2, 2)]
    noise = NoiseModel(two_qubit=Depolarizing(0.05))
    assert simulate_survival(specs[0], noise, 300, rng=9) == \
        simulate_survival(specs[:1], noise, 300, rng=9)
    assert simulate_survival(specs, noise, 300, rng=9).entries[0] == \
        simulate_survival(specs[0], noise, 300, rng=9).entries[0]


def test_simulate_survival_dense_backend_draws_binomial():
    specs = [mirror_circuit_spec(4, 2, 2)]
    noise = NoiseModel(two_qubit=Depolarizing(0.2))
    ds = simulate_survival(specs, noise, 100000, rng=5, backend="dense")
    exact = run_dense(specs[0], noise)
    rate = ds.entries[0].successes / ds.entries[0].shots
    assert abs(rate - exact) < 5 * _binomial_sigma(exact, 100000)


def test_simulate_survival_rejects_bad_input():
    noise = NoiseModel(two_qubit=Depolarizing(0.1))
    circuit = mirror_circuit_spec(0, 2, 1)
    for circuits in ([circuit, circuit.rounds], [{"n": 2}], [None]):
        with pytest.raises(TypeError, match="expected a CircuitStack"):
            simulate_survival(circuits, noise, 10, rng=1)
    with pytest.raises(ValueError, match="no circuits given"):
        simulate_survival([], noise, 10, rng=1)
    with pytest.raises(ValueError, match="share a qubit count"):
        simulate_survival([circuit, mirror_circuit_spec(0, 4, 1)], noise, 10, rng=1)


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
