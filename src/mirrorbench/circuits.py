"""Mirror circuit sampling, compilation, and serialization, as integer arrays.

A mirror circuit on an even number of qubits applies L random layers and then
their inverses in reverse order.  Each layer is a round of independent
single-qubit Cliffords followed by a round of UZZ gates on a uniformly random
perfect matching of the qubits.  Uniformly random Pauli layers are inserted at
every layer boundary of both halves plus once before measurement; each
boundary Pauli is cancelled by its push-through partner so the net unitary is
the final Pauli alone, and in the absence of noise the circuit maps |0...0>
to a known computational basis state.

A spec is three integer arrays: ``cliffords (L, n)`` (indices into the
24-element table), ``matchings (L, n/2, 2)`` and ``paulis (2L+1, n)`` (codes
0-3 for I, X, Y, Z; 2L randomizers, then the final Pauli).  Compilation
merges every inserted Pauli (including the X wrappers from the native-gate
inverse of UZZ) into neighboring single-qubit Cliffords by table lookups on
whole arrays, giving ``rounds (2L, n)``, with a UZZ layer after each forward
round and before each mirrored round.

A stack of one (n, L) is the unit of sampling, compiling and file I/O:
``_draw_stack`` draws C specs as ``(C, ...)`` arrays, each row from its own
seed; ``_compile_stack`` merges and checks them in one pass of the images
of the Z_q (each circuit must map each Z_q to +/-Z_q, so that its output on
|0...0> is a basis state, and flip the X part of its final Pauli), keeping
the images when n <= 64 for the fault masks; ``_stack_json`` writes a
stack's files, and ``_file_fields`` and ``_field_stack`` read them back.
The public functions wrap stacks in objects.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .operators import (
    _CLIFF_COMPOSE,
    _CLIFF_INVERSE,
    _CLIFF_WORDS,
    _PAULI_CLIFF_INDEX,
    _clifford_masks,
    _clifford_round,
    _clifford_signs,
    _partners,
    _uzz_round,
    _uzz_signs,
)

CIRCUIT_FORMAT_VERSION = 2

# the Clifford index of the one-qubit Pauli with X bit x and Z bit z, at x + 2z
_FRAME_CLIFF = _PAULI_CLIFF_INDEX[[0, 1, 3, 2]]


class CompilationError(RuntimeError):
    """Raised when a compiled circuit fails its internal consistency check."""


def _check_entries(arr: np.ndarray, high: int, name: str) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= high):
        raise ValueError(f"{name} entries must lie in [0, {high})")


def _int_array(values, shape: tuple, high: int, name: str) -> np.ndarray:
    """A read-only int64 copy of ``values``, of ``shape`` with entries in [0, high)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or arr.shape != shape:
        raise ValueError(f"{name} must be integers of shape {shape}")
    _check_entries(arr, high, name)
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


def _check_matchings(matchings: np.ndarray, n: int) -> None:
    """Every ``(n/2, 2)`` matching of ``matchings`` (any leading axes) pairs
    every qubit exactly once."""
    covered = np.sort(matchings.reshape(matchings.shape[:-2] + (n,)), axis=-1)
    if not (covered == np.arange(n)).all():
        raise ValueError("each matching must pair every qubit exactly once")


@dataclass(frozen=True, eq=False)
class MirrorCircuitSpec:
    """Abstract description of one mirror circuit on an even ``n_qubits``
    >= 2 with L = ``length`` forward layers (2L rounds): ``(L, n)`` Clifford
    indices, ``(L, n/2, 2)`` qubit pairs (a perfect matching per layer) and
    ``(2L+1, n)`` Pauli codes (0-3 for I, X, Y, Z: a randomizer per layer
    boundary of both halves, forward first, then mirrored in execution
    order, then the final Pauli), with the ``seed`` it was drawn from and
    its dataset row's ``circuit_id``.
    """

    n_qubits: int
    length: int
    cliffords: np.ndarray
    matchings: np.ndarray
    paulis: np.ndarray
    seed: int
    circuit_id: int = 0

    def __post_init__(self):
        n, length = self.n_qubits, self.length
        if n < 2 or n % 2:
            raise ValueError("n_qubits must be even and >= 2")
        if length < 1:
            raise ValueError("length must be >= 1")
        for name, (shape, high) in zip(_SPEC_ARRAYS, _file_shapes(n, length)):
            object.__setattr__(self, name,
                               _int_array(getattr(self, name), shape, high, name))
        _check_matchings(self.matchings, n)

    def __eq__(self, other):
        if not isinstance(other, MirrorCircuitSpec):
            return NotImplemented
        return ((self.n_qubits, self.length, self.seed, self.circuit_id)
                == (other.n_qubits, other.length, other.seed, other.circuit_id)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("cliffords", "matchings", "paulis")))

    __hash__ = object.__hash__


def _uzz_layers(matchings: np.ndarray) -> np.ndarray:
    """The UZZ layer of each round in execution order: after forward round r
    it is ``matchings[r]``, before mirrored round ``2L-1-k`` ``matchings[k]``.
    Any leading axes (such as a circuit axis) are kept."""
    return np.concatenate([matchings, matchings[..., ::-1, :, :]], axis=-3)


@lru_cache(maxsize=64)
def _gate_layout(n: int, length: int) -> tuple:
    """Per gate of the execution order (forward round r runs its n
    Cliffords, then its n/2 UZZ gates; mirrored rounds the UZZ layer first):
    its round, whether it is a UZZ, and its slot, the qubit of a Clifford or
    the pair of a UZZ (read-only arrays, cached per size)."""
    half = n // 2
    rounds = np.repeat(np.arange(2 * length), n + half)
    pos = np.tile(np.arange(n + half), 2 * length)
    mirrored = rounds >= length
    is_uzz = np.where(mirrored, pos < half, pos >= n)
    slot = pos - np.where(mirrored, half * ~is_uzz, n * is_uzz)
    for array in (rounds, is_uzz, slot):
        array.flags.writeable = False
    return rounds, is_uzz, slot


def _mirror_start(n: int, length: int) -> int:
    """The forward half's gate count, ``L (n + n/2)``: in execution order
    the mirrored half starts here, and so does ``@inverse=`` noise.  Circuit
    files store it, and the loader checks it."""
    return length * (n + n // 2)


@dataclass(frozen=True, eq=False)
class CompiledCircuit:
    """Executable rounds, the noiseless measurement outcome and the Z images.

    ``rounds[r, q]`` is the merged Clifford at qubit q in round r; forward
    round r (r < L) is followed by UZZ on ``uzz_layers[r]``, mirrored round
    r preceded by it.  ``expected_outcome`` is the noiseless outcome bit per
    qubit.  ``x_images`` and ``z_images`` are ``(2L, 2, n)`` uint64 when
    n <= 64, the only circuits with fault masks, and None above: bit q at
    ``[r, 0, p]`` is the X (in ``z_images`` the Z) part, at qubit p, of the
    image of Z_q after round r's Cliffords, and at ``[r, 1, p]`` after its
    UZZ layer.
    """

    spec: MirrorCircuitSpec
    rounds: np.ndarray
    expected_outcome: tuple
    x_images: np.ndarray = field(repr=False)
    z_images: np.ndarray = field(repr=False)

    @property
    def n_qubits(self) -> int:
        return self.spec.n_qubits

    @property
    def length(self) -> int:
        return self.spec.length

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def circuit_id(self) -> int:
        return self.spec.circuit_id

    @property
    def uzz_layers(self) -> np.ndarray:
        return _uzz_layers(self.spec.matchings)

    @property
    def mirror_start(self) -> int:
        """The forward half's gate count (``_mirror_start``)."""
        return _mirror_start(self.n_qubits, self.length)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


# the spec arrays, in the order of a stack
_SPEC_ARRAYS = ("cliffords", "matchings", "paulis")


def _check_stack(stack: tuple) -> None:
    """Check a stack of spec arrays as ``MirrorCircuitSpec`` checks one spec:
    entries in range, and every matching pairs every qubit exactly once."""
    _, length, n = stack[0].shape
    for arr, (_, high), name in zip(stack, _file_shapes(n, length), _SPEC_ARRAYS):
        _check_entries(arr, high, name)
    _check_matchings(stack[1], n)


def _draw_stack(seeds: Sequence[int], n_qubits: int, length: int) -> tuple:
    """The read-only int64 ``(cliffords, matchings, paulis)`` of C specs of
    one (n, L), ``(C, L, n)``, ``(C, L, n/2, 2)`` and ``(C, 2L+1, n)``, one
    row per seed, each drawn from its own ``default_rng(seed)`` as
    ``mirror_circuit_spec`` documents; the pairs of the whole stack are
    sorted by one min/max, and the stack is checked once (``_check_stack``).
    """
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError("n_qubits must be even and >= 2")
    if length < 1:
        raise ValueError("length must be >= 1")
    count = len(seeds)
    cliffords = np.empty((count, length, n_qubits), dtype=np.int64)
    perm = np.empty_like(cliffords)
    paulis = np.empty((count, 2 * length + 1, n_qubits), dtype=np.int64)
    tile = np.tile(np.arange(n_qubits, dtype=np.int64), (length, 1))
    for c, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        cliffords[c] = rng.integers(24, size=(length, n_qubits))
        rng.permuted(tile, axis=1, out=perm[c])
        paulis[c] = rng.integers(4, size=(2 * length + 1, n_qubits))
    first, second = perm[..., 0::2], perm[..., 1::2]
    stack = (cliffords, np.stack([np.minimum(first, second), np.maximum(first, second)],
                                 axis=-1), paulis)
    _check_stack(stack)
    for arr in stack:
        arr.flags.writeable = False
    return stack


def _stack_specs(stack: tuple, seeds: Sequence[int], circuit_ids: Sequence[int]) -> list:
    """The specs of the rows of a stack (``_draw_stack``), one per seed."""
    _, length, n = stack[0].shape
    return [MirrorCircuitSpec(n, length, *(arr[c] for arr in stack),
                              seed=seed, circuit_id=circuit_id)
            for c, (seed, circuit_id) in enumerate(zip(seeds, circuit_ids))]


def mirror_circuit_spec(seed: int, n_qubits: int, length: int,
                        circuit_id: int = 0) -> MirrorCircuitSpec:
    """Draw a full circuit spec from a single seed, a stack of one
    (``_draw_stack``): from ``default_rng(seed)``, the Cliffords,
    ``integers(24)`` of shape ``(L, n)``; the matchings, ``rng.permuted`` of
    the L rows of ``tile(arange(n))`` along each row, cut into consecutive
    sorted pairs; the Paulis, ``integers(4)`` of shape ``(2L+1, n)``."""
    [spec] = _stack_specs(_draw_stack([seed], n_qubits, length), [seed], [circuit_id])
    return spec


def _experiment_seeds(rng, lengths: Sequence[int], circuits_per_length: int) -> list:
    """The (length, seed) of each spec of an experiment, in circuit-id order:
    one ``integers(0, 2^63 - 1, size=...)`` draw from ``rng``, which gives
    the values and the generator state of one scalar draw per spec."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    cells = [int(length) for length in lengths for _ in range(circuits_per_length)]
    return list(zip(cells, rng.integers(0, 2 ** 63 - 1, size=len(cells)).tolist()))


def _experiment_stacks(rng, n_qubits: int, lengths: Sequence[int],
                       circuits_per_length: int):
    """Yield an experiment's ``(circuit ids, seeds, stack)`` one batch
    (``_batches``) at a time, each drawn as one stack (``_draw_stack``); only
    the seeds are drawn up front."""
    cells = _experiment_seeds(rng, lengths, circuits_per_length)
    for batch in _batches([(n_qubits, length) for length, _ in cells]):
        seeds = [cells[i][1] for i in batch]
        yield batch, seeds, _draw_stack(seeds, n_qubits, cells[batch[0]][0])


def sample_experiment(rng, n_qubits: int, lengths: Sequence[int],
                      circuits_per_length: int) -> list:
    """Independent circuit specs for each (length, repeat) cell, in
    circuit-id order.

    ``rng`` may be a Generator or an integer seed.  Each spec records its own
    seed so it can be regenerated independently (``mirror_circuit_spec``).
    """
    specs = [spec for ids, seeds, stack in _experiment_stacks(rng, n_qubits, lengths,
                                                              circuits_per_length)
             for spec in _stack_specs(stack, seeds, ids)]
    return sorted(specs, key=lambda spec: spec.circuit_id)


# ---------------------------------------------------------------------------
# Compilation and the Z pass
# ---------------------------------------------------------------------------


# words of one image array in a batch's Z pass: a batch holds at most
# 2^14 / (n * ceil(n/64)) circuits (at least one), so the pass's few live
# arrays stay within 128 KB each, or one circuit's, instead of growing with
# the batch.  Batching pays at small n, where per-step numpy overhead
# dominates; above 2^14 words the pass ran no faster at any n from 4 to 512
# and needs more memory (``generate --n 2048 --lengths 16 --circuits 100``
# peaks at 645 MB as one batch, 156 MB in batches of one)
_BATCH_WORDS = 1 << 14


class CircuitCheckError(ValueError):
    """A circuit of a batch fails its mirror check; ``index`` is its
    position among the circuits given."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _image_words(size: tuple) -> int:
    """Words of one image array of the Z pass per circuit of (n, L) ``size``."""
    n, _ = size
    return n * ((n + 63) // 64)


def _batches(sizes: Sequence[tuple], words=_image_words, budget: int = _BATCH_WORDS) -> list:
    """The positions of circuits of the given (n, L) ``sizes``, grouped by
    size in order of first appearance, each group cut into batches of at
    most ``budget`` words, ``words(size)`` per circuit, and at least one
    circuit."""
    groups = {}
    for i, size in enumerate(sizes):
        groups.setdefault(size, []).append(i)
    out = []
    for size, members in groups.items():
        count = max(1, budget // max(words(size), 1))
        out.extend(members[k:k + count] for k in range(0, len(members), count))
    return out


def _merged_rounds(cliffords: np.ndarray, matchings: np.ndarray,
                   paulis: np.ndarray) -> np.ndarray:
    """The ``(C, 2L, n)`` merged Cliffords of C specs of one (n, L): each
    round's Pauli after its Clifford, after the previous randomizer's frame.

    Round r's frame is randomizer r-1 pushed through the UZZ layers between
    the two rounds: the forward layer r-1 when r <= L, and the X-wrapped
    mirrored layer r when r >= L (``X_a UZZ X_a = UZZ^dagger``; the wraps
    ride the frame instead of being executed).  A UZZ toggles the Z bits of
    a pair whose X bits differ; a wrapped one, of a pair whose X bits agree.
    The last round takes the final Pauli in place of its randomizer, which
    folds the leftover frame into it.  Pauli phases do not matter, since
    merging a Pauli into a Clifford ignores them.
    """
    count, length, n = cliffords.shape
    layers = _uzz_layers(matchings)
    fx = np.zeros((count, 2 * length, n), dtype=bool)
    fz = np.zeros_like(fx)
    fx[:, 1:] = (paulis[:, :-2] == 1) | (paulis[:, :-2] == 2)  # X or Y
    fz[:, 1:] = paulis[:, :-2] >= 2  # Y or Z
    circuit = np.arange(count)[:, None, None]
    for rounds, layer, wrapped in ((np.arange(1, length + 1), np.arange(length), False),
                                   (np.arange(length, 2 * length),
                                    np.arange(length, 2 * length), True)):
        row = rounds[:, None]
        pairs = layers[:, layer]
        a, b = pairs[..., 0], pairs[..., 1]
        toggle = fx[circuit, row, a] ^ fx[circuit, row, b] ^ wrapped
        fz[circuit, row, a] ^= toggle
        fz[circuit, row, b] ^= toggle
    body = np.concatenate([cliffords, _CLIFF_INVERSE[cliffords[:, ::-1]]], axis=1)
    post = _PAULI_CLIFF_INDEX[np.concatenate([paulis[:, :-2], paulis[:, -1:]], axis=1)]
    frame = _FRAME_CLIFF[fx + 2 * fz.astype(np.intp)]
    return _CLIFF_COMPOSE[post, _CLIFF_COMPOSE[body, frame]]


def _z_pass(rounds: np.ndarray, layers: np.ndarray) -> tuple:
    """Carry the images of every Z_q through C circuits of one (n, L) at once.

    ``rounds`` is ``(C, 2L, n)`` and ``layers`` ``(C, 2L, n/2, 2)``.  The
    images of all C circuits are stacked as ``(C n, words)`` and share one
    pass over the 4L steps, XORing up each step's sign flips as it runs.
    Returns ``(outcome, mirrors, x_images, z_images)``: ``mirrors[c]`` says
    whether circuit c maps each Z_q to +/-Z_q, and then bit q of
    ``outcome[c]`` is 1 where it is -Z_q (its output on |0...0> is that
    basis state); the images are those of ``CompiledCircuit`` when n <= 64,
    and None above, where nothing reads them.
    """
    count, steps, n = rounds.shape
    half = steps // 2
    words = (n + 63) // 64
    q = np.arange(n)
    start = np.zeros((n, words), dtype=np.uint64)
    start[q, q // 64] = np.uint64(1) << (q % 64).astype(np.uint64)
    # qubit p of circuit c is row c n + p; each round's rows and partners
    by_round = np.ascontiguousarray(rounds.transpose(1, 0, 2)).reshape(steps, count * n, 1)
    partners = (_partners(layers.reshape(-1, n // 2, 2)).reshape(count, steps, n)
                + n * np.arange(count)[:, None, None]).transpose(1, 0, 2).reshape(steps, -1)
    x = np.zeros((count * n, words), dtype=np.uint64)
    z = np.tile(start, (count, 1))
    signs = np.zeros_like(x)
    keep = words == 1  # n <= 64: only these circuits have uint64 fault masks
    if keep:
        xs = np.empty((steps, 2, count * n), dtype=np.uint64)
        zs = np.empty_like(xs)
    for r in range(steps):  # in the order of _gate_layout
        masks = _clifford_masks(by_round[r])
        for part in ((0, 1) if r < half else (1, 0)):  # 0: Cliffords, 1: UZZ
            if part == 0:
                signs ^= _clifford_signs(x, z, masks)
                x, z = _clifford_round(x, z, masks)
            else:
                x_partner = x[partners[r]]
                signs ^= _uzz_signs(x, z, x_partner)
                z = _uzz_round(x, z, x_partner)
            if keep:
                xs[r, part], zs[r, part] = x[:, 0], z[:, 0]
    x, z, signs = (a.reshape(count, n, words) for a in (x, z, signs))
    mirrors = ~x.any(axis=(1, 2)) & (z == start).all(axis=(1, 2))
    signs = np.bitwise_xor.reduce(signs, axis=1)
    outcome = (signs[:, q // 64] >> (q % 64).astype(np.uint64)) & np.uint64(1)
    if not keep:
        return outcome, mirrors, None, None
    x_images, z_images = (a.reshape(steps, 2, count, n).transpose(2, 0, 1, 3)
                          for a in (xs, zs))
    return outcome, mirrors, x_images, z_images


def _compile_stack(stack: tuple, rounds=None, stored=None) -> tuple:
    """Merge and check the C circuits of one (n, L) stack of spec arrays
    (``_draw_stack``'s order): the rounds are the stack's ``_merged_rounds``,
    or the given stored ``(C, 2L, n)`` ``rounds``, checked, not recompiled.
    One ``_z_pass`` checks them all: each circuit must map each Z_q to
    +/-Z_q, flip exactly the X part of its final Pauli and, given ``stored``
    ``(C, n)`` outcome bits, give those.  Raises CircuitCheckError for the
    first failing circuit, with its position in the stack.  Returns the
    read-only rounds, the ``(C, n)`` outcome bits and the images.
    """
    _, matchings, paulis = stack
    if rounds is None:
        rounds = _merged_rounds(*stack)
    rounds.flags.writeable = False
    outcome, mirrors, x_images, z_images = _z_pass(rounds, _uzz_layers(matchings))
    final = paulis[:, -1]
    checks = [(mirrors, "circuit does not map each Z_q to +/-Z_q"),
              ((outcome == ((final == 1) | (final == 2))).all(axis=1),
               "circuit does not invert to its final Pauli")]
    if stored is not None:
        checks.append(((outcome == stored).all(axis=1),
                       "stored expected_outcome differs from the rounds' outcome"))
    passed = np.logical_and.reduce([ok for ok, _ in checks])
    if not passed.all():
        c = int(np.argmin(passed))
        raise CircuitCheckError(c, next(message for ok, message in checks if not ok[c]))
    return rounds, outcome, x_images, z_images


def _compiled_circuits(specs: Sequence[MirrorCircuitSpec], rounds=None, stored=None) -> list:
    """The checked circuits of ``specs``, in input order, one
    ``_compile_stack`` per batch (``_batches``), given each spec's stored
    rounds and outcome if any, their arrays slices of the stack's.  Raises
    CircuitCheckError with the position of the first failing spec of the
    first batch that has one."""
    out = [None] * len(specs)
    for batch in _batches([(spec.n_qubits, spec.length) for spec in specs]):
        stack = tuple(np.stack([getattr(specs[i], name) for i in batch])
                      for name in _SPEC_ARRAYS)
        try:
            stack_rounds, outcome, x_images, z_images = _compile_stack(
                stack, None if rounds is None else np.stack([rounds[i] for i in batch]),
                None if stored is None else np.array([stored[i] for i in batch]))
        except CircuitCheckError as exc:
            raise CircuitCheckError(batch[exc.index], str(exc)) from None
        for c, (i, bits) in enumerate(zip(batch, outcome.tolist())):
            out[i] = CompiledCircuit(specs[i], stack_rounds[c], tuple(bits),
                                     None if x_images is None else x_images[c],
                                     None if z_images is None else z_images[c])
    return out


def build_mirror_circuits(specs: Sequence[MirrorCircuitSpec]) -> list:
    """Compile specs into merged rounds and expected outcomes, in input
    order, one ``_compile_stack`` per batch of one (n, L) (``_batches``).
    Raises CompilationError naming the ``circuit_id`` of a spec whose
    compiled circuit fails its check."""
    specs = list(specs)
    try:
        return _compiled_circuits(specs)
    except CircuitCheckError as exc:
        raise CompilationError(f"compiled circuit {specs[exc.index].circuit_id} "
                               f"is wrong: {exc}") from None


def check_circuits(parsed: Sequence[tuple]) -> list:
    """The compiled circuits of ``(spec, rounds, stored outcome)`` triples
    (``read_circuit``), in input order, checked one stack per batch of one
    (n, L) (``_compile_stack``).  Stored rounds are checked, not recompiled,
    so datasets stay reproducible even if the compiler changes.  Raises
    CircuitCheckError, whose ``index`` is the position of a failing triple.
    """
    return _compiled_circuits([spec for spec, _, _ in parsed],
                              [rounds for _, rounds, _ in parsed],
                              [outcome for _, _, outcome in parsed])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# the integer fields of a version-2 circuit file, in the order of a stack:
# the spec arrays, the rounds and the stored outcome
_FILE_ARRAYS = _SPEC_ARRAYS + ("rounds", "expected_outcome")


def _file_shapes(n: int, length: int) -> tuple:
    """The ``(shape, bound)`` of each of a circuit's ``_FILE_ARRAYS``."""
    return (((length, n), 24), ((length, n // 2, 2), n), ((2 * length + 1, n), 4),
            ((2 * length, n), 24), ((n,), 2))


def _stack_json(stack: tuple, rounds: np.ndarray, outcome: np.ndarray,
                seeds: Sequence[int], circuit_ids: Sequence[int]) -> list:
    """The JSON-ready dicts (schema version 2) of the rows of a stack, given
    its spec arrays, the ``rounds`` and ``outcome`` of ``_compile_stack``
    and each row's seed and circuit id; arrays are stored flat, in C order."""
    _, length, n = stack[0].shape
    rows = [arr.reshape(len(arr), -1).tolist() for arr in (*stack, rounds, outcome)]
    return [dict(zip(_FILE_ARRAYS, arrays), version=CIRCUIT_FORMAT_VERSION, n=n, L=length,
                 seed=seed, circuit_id=circuit_id, mirror_start=_mirror_start(n, length))
            for seed, circuit_id, *arrays in zip(seeds, circuit_ids, *rows)]


def circuit_to_json(circuit: CompiledCircuit) -> dict:
    """JSON-ready dict for one compiled circuit: a stack of one
    (``_stack_json``)."""
    [data] = _stack_json(tuple(getattr(circuit.spec, name)[None] for name in _SPEC_ARRAYS),
                         circuit.rounds[None], np.array([circuit.expected_outcome]),
                         [circuit.seed], [circuit.circuit_id])
    return data


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (a bool, an int subclass, is not)."""
    return type(value) is int


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    if not _is_int(value):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _list_field(data: dict, key: str, size: int) -> list:
    value = data.get(key)
    if not isinstance(value, list) or len(value) != size:
        raise ValueError(f"field {key!r} must be a list of {size} entries")
    return value


def _int_column(key: str, column: Sequence[list], shape: tuple, high: int) -> np.ndarray:
    """The read-only int64 ``(C,) + shape`` stack of field ``key`` of C
    circuit files, given as flat lists of JSON values: one type scan and one
    conversion for all of them, with entries in [0, high)."""
    values = list(chain.from_iterable(column))
    if set(map(type, values)) != {int}:  # bool, an int subclass, is out too
        raise ValueError(f"field {key!r} must hold only integers")
    shape = (len(column),) + shape
    return _int_array(np.array(values).reshape(shape), shape, high, key)


def _pauli_codes(label, n: int) -> list:
    """Codes 0-3 of a version-1 Pauli label such as ``"+IXZY"``."""
    if not isinstance(label, str):
        raise ValueError(f"Pauli label must be a string, got {label!r}")
    body = label
    for prefix in ("+i", "-i", "+", "-"):
        if body.startswith(prefix):
            body = body[len(prefix):]
            break
    if len(body) != n or any(ch not in "IXYZ" for ch in body):
        raise ValueError(f"bad {n}-qubit Pauli label {label!r}")
    return ["IXYZ".index(ch) for ch in body]


def _pairs_v1(layer: dict, n: int) -> list:
    """A version-1 matching, a list of ``[a, b]`` pairs, flattened."""
    pairs = _list_field(layer, "matching", n // 2)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ValueError(f"field 'matching' must hold pairs, got {pairs!r}")
    return sum(pairs, [])


def _spec_v1(data: dict, n: int, length: int) -> MirrorCircuitSpec:
    layers = _list_field(data, "layers", length)
    if not all(isinstance(layer, dict) for layer in layers):
        raise ValueError("field 'layers' must hold objects")
    labels = _list_field(data, "randomizing_paulis", 2 * length) + [data.get("final_pauli")]
    circuit_id = data.get("circuit_id", 0)
    if not _is_int(circuit_id):
        raise ValueError(f"field 'circuit_id' must be an integer, got {circuit_id!r}")
    return MirrorCircuitSpec(
        n, length,
        _int_column("cliffords", [_list_field(layer, "cliffords", n) for layer in layers],
                    (n,), 24),
        _int_column("matching", [_pairs_v1(layer, n) for layer in layers], (n // 2, 2), n),
        np.array([_pauli_codes(label, n) for label in labels]),
        seed=_int_field(data, "seed"), circuit_id=circuit_id)


def _rounds_v1(data: dict, spec: MirrorCircuitSpec) -> np.ndarray:
    """The rounds of a version-1 gate list, which must follow the round
    layout of the spec (``_gate_layout``), UZZ pairs as in the matchings."""
    n, length = spec.n_qubits, spec.length
    layers = _uzz_layers(spec.matchings).tolist()
    layout = [a.tolist() for a in _gate_layout(n, length)]
    records = _list_field(data, "gates", len(layout[0]))
    rounds = np.zeros((2 * length, n), dtype=np.int64)
    for pos, (rec, r, is_uzz, slot) in enumerate(zip(records, *layout)):
        if not isinstance(rec, dict):
            raise ValueError(f"gate record {pos} ({rec!r}) is not an object")
        if is_uzz:
            ok = (rec.get("gate") == "uzz" and isinstance(rec.get("q"), list)
                  and all(map(_is_int, rec["q"])) and rec["q"] == layers[r][slot])
        else:
            index = rec.get("index")
            ok = (rec.get("gate") == "c1" and _is_int(rec.get("q")) and rec["q"] == slot
                  and _is_int(index) and 0 <= index < 24)
            if ok:
                rounds[r, slot] = index
        if not ok:
            expected = f"uzz on {layers[r][slot]}" if is_uzz else f"c1 on {slot}"
            raise ValueError(f"gate record {pos} ({rec!r}) is not the {expected} "
                             f"of the round layout")
    return rounds


def _file_fields(data) -> tuple:
    """``(n, L, circuit_id, seed, lists)`` of a circuit file's JSON (schema
    1 or 2): its scalar fields, checked, and the flat lists of its
    ``_FILE_ARRAYS``, of the right lengths, entries unchecked
    (``_field_stack``).  A field of the wrong JSON type raises ValueError,
    as does a ``mirror_start`` (where ``@inverse=`` noise begins) other than
    the forward half's gate count.  A version-1 file's gate list must follow
    the round layout (``_rounds_v1``); it is parsed whole here."""
    if not isinstance(data, dict):
        raise ValueError("a circuit file must hold a JSON object")
    version = data.get("version")
    if not _is_int(version) or version not in (1, 2):
        raise ValueError(f"unsupported circuit format version {version!r}")
    n, length = _int_field(data, "n"), _int_field(data, "L")
    if n < 2 or n % 2 or length < 1:
        raise ValueError(f"need an even n >= 2 and L >= 1, got n={n} L={length}")
    if version == 1:
        spec = _spec_v1(data, n, length)
        rounds = _rounds_v1(data, spec)
        stored = data.get("expected_outcome")
        if not (isinstance(stored, str) and len(stored) == n and set(stored) <= {"0", "1"}):
            raise ValueError(f"field 'expected_outcome' must be {n} bits, got {stored!r}")
        lists = [arr.ravel().tolist() for arr in (spec.cliffords, spec.matchings, spec.paulis,
                                                  rounds)] + [list(map(int, stored))]
        seed, circuit_id = spec.seed, spec.circuit_id
    else:
        lists = [_list_field(data, key, math.prod(shape))
                 for key, (shape, _) in zip(_FILE_ARRAYS, _file_shapes(n, length))]
        seed, circuit_id = _int_field(data, "seed"), _int_field(data, "circuit_id")
    mirror_start = _int_field(data, "mirror_start")
    forward = _mirror_start(n, length)
    if mirror_start != forward:
        raise ValueError(f"stored mirror_start {mirror_start!r} differs from the "
                         f"{forward} gates of the forward half")
    return n, length, circuit_id, seed, lists


def _field_stack(files: Sequence[list], n: int, length: int) -> tuple:
    """The ``(stack, rounds, stored)`` arrays of circuit files of one (n, L)
    as ``_compile_stack`` takes them, from each file's flat lists
    (``_file_fields``): one ``_int_column`` per field for all the files, and
    every matching checked.  Raises ValueError for the first failing field."""
    arrays = [_int_column(key, column, shape, high) for key, column, (shape, high)
              in zip(_FILE_ARRAYS, zip(*files), _file_shapes(n, length))]
    _check_matchings(arrays[1], n)
    return tuple(arrays[:3]), arrays[3], arrays[4]


def _parsed_circuit(data) -> tuple:
    """``(spec, rounds, stored outcome)`` of a circuit file's JSON, a stack
    of one of ``_file_fields`` and ``_field_stack`` (the rounds are not
    checked here)."""
    n, length, circuit_id, seed, lists = _file_fields(data)
    stack, rounds, stored = _field_stack([lists], n, length)
    spec = MirrorCircuitSpec(n, length, *(arr[0] for arr in stack), seed=seed,
                             circuit_id=circuit_id)
    return spec, rounds[0], tuple(stored[0].tolist())


def _write_json(data: dict, path) -> None:
    # json.dumps, unlike json.dump, encodes in C when there is no indent
    text = json.dumps(data, separators=(",", ":"), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_circuit(circuit: CompiledCircuit, path) -> None:
    _write_json(circuit_to_json(circuit), path)


def read_circuit(path) -> tuple:
    """The ``(spec, rounds, stored outcome)`` of a circuit file, not yet
    checked: pass a list of them to ``check_circuits``."""
    with open(path) as fh:
        return _parsed_circuit(json.load(fh))


# ---------------------------------------------------------------------------
# QASM export
# ---------------------------------------------------------------------------


def to_qasm(circuit: CompiledCircuit) -> str:
    """OpenQASM 2.0 text for one compiled circuit (one-way export).

    Cliffords are emitted as their h/s generator words (id for the identity);
    each UZZ becomes the standard decomposition cx a,b; rz(pi/2) b; cx a,b,
    which equals exp(-1j pi/4 ZZ) exactly, including global phase.
    """
    n, length = circuit.n_qubits, circuit.length
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    layers = circuit.uzz_layers.tolist()
    for r, cliffords in enumerate(circuit.rounds.tolist()):
        ones = [f"{letter} q[{q}];" for q, c in enumerate(cliffords)
                for letter in _CLIFF_WORDS[c] or ("id",)]
        uzz = [line for a, b in layers[r] for line in
               (f"cx q[{a}],q[{b}];", f"rz(pi/2) q[{b}];", f"cx q[{a}],q[{b}];")]
        # as in _gate_layout: the mirrored half runs its UZZ layer first
        lines += ones + uzz if r < length else uzz + ones
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
