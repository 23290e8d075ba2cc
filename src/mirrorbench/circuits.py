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
seed; ``_circuit_stack`` merges them, or takes a loaded stack's stored
rounds, and checks them in one pass of the images of the Z_q (each circuit
must map each Z_q to +/-Z_q, so that its output on |0...0> is a basis
state, and flip the X part of its final Pauli), keeping the images when
n <= 64 for the fault masks.  ``_stack_json`` writes a stack's files, and
``read_circuits`` reads any number of them back as a list of stacks in
file order, one per run of consecutive files of one (n, L).  The checked
stack it builds is the package's one circuit type, ``CircuitStack``; a
single circuit is a stack of one.
"""

from __future__ import annotations

import json
import math
import operator
import os
from itertools import chain, groupby
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

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


def _check_matchings(matchings: np.ndarray, n: int) -> None:
    """Every ``(n/2, 2)`` matching of ``matchings`` (any leading axes) pairs
    every qubit exactly once."""
    covered = np.sort(matchings.reshape(matchings.shape[:-2] + (n,)), axis=-1)
    if not (covered == np.arange(n)).all():
        raise ValueError("each matching must pair every qubit exactly once")


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
class CircuitStack:
    """C >= 1 checked mirror circuits of one even n >= 2 and one L >= 1, as
    read-only arrays with a leading circuit axis, and each circuit's
    ``seed`` and ``circuit_id`` (its dataset row's).

    The spec: ``cliffords (C, L, n)`` (indices into the 24-element table),
    ``matchings (C, L, n/2, 2)`` (a perfect matching per layer) and
    ``paulis (C, 2L+1, n)`` (codes 0-3 for I, X, Y, Z: a randomizer per
    layer boundary of both halves, forward first, then mirrored in execution
    order, then the final Pauli).  The compiled circuit: ``rounds[c, r, q]``
    is the merged Clifford at qubit q in round r; forward round r (r < L) is
    followed by UZZ on ``uzz_layers[c, r]``, mirrored round r preceded by
    it; ``outcome (C, n)`` holds the noiseless outcome bits.  ``x_images``
    and ``z_images`` are ``(C, 2L, 2, n)`` uint64 when n <= 64, the only
    circuits with fault masks, and None above: bit q at ``[c, r, 0, p]`` is
    the X (in ``z_images`` the Z) part, at qubit p, of the image of Z_q after
    round r's Cliffords, and at ``[c, r, 1, p]`` after its UZZ layer.
    Built only by ``_circuit_stack``, which checks the circuits: calling
    ``CircuitStack(...)`` directly checks nothing, so get records from
    ``mirror_circuit_stack``, ``mirror_circuit_spec``, ``sample_experiment``
    or ``read_circuit``.
    """

    seeds: tuple
    circuit_ids: tuple
    cliffords: np.ndarray
    matchings: np.ndarray
    paulis: np.ndarray
    rounds: np.ndarray
    outcome: np.ndarray
    x_images: Optional[np.ndarray]
    z_images: Optional[np.ndarray]

    @property
    def n_qubits(self) -> int:
        return self.cliffords.shape[2]

    @property
    def length(self) -> int:
        return self.cliffords.shape[1]

    @property
    def uzz_layers(self) -> np.ndarray:
        return _uzz_layers(self.matchings)

    def __len__(self) -> int:
        return len(self.seeds)


def _single(circuit: CircuitStack) -> CircuitStack:
    """``circuit``, which must be a stack of one circuit."""
    if len(circuit) != 1:
        raise ValueError(f"expected a stack of one circuit, got {len(circuit)} circuits")
    return circuit


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


# the spec arrays, in the order of a stack
_SPEC_ARRAYS = ("cliffords", "matchings", "paulis")


def _integer(value) -> int:
    """A seed or count as a plain int: an int or a numpy integer, never a
    bool (a TypeError, as for 1.5 or a numpy bool)."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _as_rng(rng) -> np.random.Generator:
    """A Generator as given, fresh entropy for None, else ``default_rng``
    of the seed (``_integer``)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(None if rng is None else _integer(rng))


def _check_stack(stack: tuple) -> None:
    """Check a stack of spec arrays (``CircuitStack``'s): entries in range,
    and every matching pairs every qubit exactly once."""
    _, length, n = stack[0].shape
    for arr, (_, high), name in zip(stack, _file_shapes(n, length), _SPEC_ARRAYS):
        _check_entries(arr, high, name)
    _check_matchings(stack[1], n)


def _draw_stack(seeds: Sequence[int], n_qubits: int, length: int) -> tuple:
    """The read-only int64 ``(cliffords, matchings, paulis)`` of C specs of
    one (n, L), ``(C, L, n)``, ``(C, L, n/2, 2)`` and ``(C, 2L+1, n)``, one
    row per seed, each drawn from its own ``default_rng(seed)`` as
    ``mirror_circuit_stack`` documents; the pairs of the whole stack are
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


def mirror_circuit_stack(seeds: Sequence[int], n_qubits: int, length: int,
                         circuit_ids: Optional[Sequence[int]] = None) -> CircuitStack:
    """Draw and compile one circuit of (n, L) from each of one or more
    seeds, as one stack in seed order, with ids ``circuit_ids`` (default 0,
    1, ...).  Circuit c is drawn from its own ``default_rng(seeds[c])``:
    the Cliffords, ``integers(24)`` of shape ``(L, n)``; the matchings,
    ``rng.permuted`` of the L rows of ``tile(arange(n))`` along each row,
    cut into consecutive sorted pairs; the Paulis, ``integers(4)`` of shape
    ``(2L+1, n)``.  The stack is compiled in one pass (``_circuit_stack``),
    so its memory grows with the number of seeds."""
    seeds = [_integer(seed) for seed in seeds]
    circuit_ids = [_integer(i) for i in (range(len(seeds)) if circuit_ids is None
                                         else circuit_ids)]
    if not seeds or len(circuit_ids) != len(seeds):
        raise ValueError("need one or more seeds and one circuit id per seed")
    return _circuit_stack(_draw_stack(seeds, n_qubits, length), seeds, circuit_ids)


def mirror_circuit_spec(seed: int, n_qubits: int, length: int,
                        circuit_id: int = 0) -> CircuitStack:
    """Draw and compile one circuit from a single seed: a stack of one of
    ``mirror_circuit_stack``."""
    return mirror_circuit_stack([seed], n_qubits, length, [circuit_id])


def _experiment_seeds(rng, lengths: Sequence[int], circuits_per_length: int) -> list:
    """The (length, seed) of each spec of an experiment, in circuit-id order:
    one ``integers(0, 2^63 - 1, size=...)`` draw from ``rng``, which gives
    the values and the generator state of one scalar draw per spec."""
    count = _integer(circuits_per_length)
    cells = [_integer(length) for length in lengths for _ in range(count)]
    return list(zip(cells, _as_rng(rng).integers(0, 2 ** 63 - 1, size=len(cells)).tolist()))


def _experiment_stacks(rng, n_qubits: int, lengths: Sequence[int],
                       circuits_per_length: int):
    """Yield an experiment's circuits in circuit-id order, one compiled
    stack (``_draw_stack``, ``_circuit_stack``) at a time: each run of equal
    L is cut into ``_batches``, so that each circuit's place among the
    stacks is its circuit id.  Only the seeds are drawn up front."""
    start = 0
    for length, run in groupby(_experiment_seeds(rng, lengths, circuits_per_length),
                               key=lambda cell: cell[0]):
        seeds = [seed for _, seed in run]
        for batch in _batches([(n_qubits, length)] * len(seeds)):
            chosen = [seeds[i] for i in batch]
            yield _circuit_stack(_draw_stack(chosen, n_qubits, length), chosen,
                                 [start + i for i in batch])
        start += len(seeds)


def sample_experiment(rng, n_qubits: int, lengths: Sequence[int],
                      circuits_per_length: int) -> list:
    """Independent circuits for each (length, repeat) cell, as the stacks
    of ``_experiment_stacks``, in circuit-id order.

    ``rng`` may be a Generator, an integer seed or None for fresh entropy
    (``_as_rng``).  Each circuit records its own seed so it can be
    regenerated independently (``mirror_circuit_spec``, or
    ``mirror_circuit_stack`` for many).
    """
    return list(_experiment_stacks(rng, n_qubits, lengths, circuits_per_length))


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


def _batches(sizes: Sequence[tuple]) -> list:
    """The positions of circuits of the given (n, L) ``sizes``, in order:
    each run of consecutive circuits of one size cut into batches of at
    most ``_BATCH_WORDS`` words, the n ceil(n/64) words of one image array
    of the Z pass per circuit, and at least one circuit."""
    out, start = [], 0
    for (n, _), run in groupby(sizes):
        stop = start + len(list(run))
        count = max(1, _BATCH_WORDS // max(n * ((n + 63) // 64), 1))
        out.extend(list(range(k, min(k + count, stop))) for k in range(start, stop, count))
        start = stop
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
    basis state); the images are those of ``CircuitStack`` when n <= 64,
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


def _circuit_stack(stack: tuple, seeds: Sequence[int], circuit_ids: Sequence[int],
                   rounds=None, stored=None) -> CircuitStack:
    """The record of a checked stack of spec arrays of one (n, L) (not
    checked again) with each row's seed and circuit id.  Its rounds are the
    stack's ``_merged_rounds``, or the stored ``(C, 2L, n)`` ``rounds``,
    checked, not recompiled, so datasets stay reproducible if the compiler
    changes.  One ``_z_pass`` checks every circuit: it must map each Z_q to
    +/-Z_q, flip exactly the X part of its final Pauli and give any
    ``stored`` ``(C, n)`` outcome bits.  The first to fail raises
    CompilationError naming its ``circuit_id`` if the rounds were compiled,
    else CircuitCheckError, whose ``index`` is its row."""
    _, matchings, paulis = stack
    compiled = rounds is None
    if compiled:
        rounds = _merged_rounds(*stack)
    outcome, mirrors, x_images, z_images = _z_pass(rounds, _uzz_layers(matchings))
    for arr in (rounds, outcome, x_images, z_images):
        if arr is not None:
            arr.flags.writeable = False
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
        message = next(message for ok, message in checks if not ok[c])
        if compiled:
            raise CompilationError(f"compiled circuit {circuit_ids[c]} is wrong: {message}")
        raise CircuitCheckError(c, message)
    return CircuitStack(tuple(seeds), tuple(circuit_ids), *stack, rounds, outcome,
                        x_images, z_images)


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


def _stack_json(stack: CircuitStack) -> list:
    """The JSON-ready dicts (schema version 2) of the circuits of a stack,
    its arrays stored flat, in C order."""
    n, length = stack.n_qubits, stack.length
    rows = [arr.reshape(len(stack), -1).tolist() for arr in (
        stack.cliffords, stack.matchings, stack.paulis, stack.rounds, stack.outcome)]
    return [dict(zip(_FILE_ARRAYS, arrays), version=CIRCUIT_FORMAT_VERSION, n=n, L=length,
                 seed=seed, circuit_id=circuit_id, mirror_start=_mirror_start(n, length))
            for seed, circuit_id, *arrays in zip(stack.seeds, stack.circuit_ids, *rows)]


def circuit_to_json(circuit: CircuitStack) -> dict:
    """JSON-ready dict for a stack of one circuit (``_stack_json``)."""
    [data] = _stack_json(_single(circuit))
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
    arr = np.array(values).reshape(shape)
    if arr.dtype.kind not in "iu":  # a value beyond 64 bits
        raise ValueError(f"{key} must be integers of shape {shape}")
    _check_entries(arr, high, key)
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


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


def _spec_v1(data: dict, n: int, length: int) -> tuple:
    """The spec arrays, checked, the seed and the circuit id of a version-1
    file."""
    layers = _list_field(data, "layers", length)
    if not all(isinstance(layer, dict) for layer in layers):
        raise ValueError("field 'layers' must hold objects")
    labels = _list_field(data, "randomizing_paulis", 2 * length) + [data.get("final_pauli")]
    circuit_id = data.get("circuit_id", 0)
    if not _is_int(circuit_id):
        raise ValueError(f"field 'circuit_id' must be an integer, got {circuit_id!r}")
    stack = (_int_column("cliffords", [_list_field(layer, "cliffords", n) for layer in layers],
                         (n,), 24),
             _int_column("matching", [_pairs_v1(layer, n) for layer in layers], (n // 2, 2), n),
             np.array([_pauli_codes(label, n) for label in labels]))
    seed = _int_field(data, "seed")
    _check_matchings(stack[1], n)
    return stack, seed, circuit_id


def _rounds_v1(data: dict, matchings: np.ndarray) -> np.ndarray:
    """The rounds of a version-1 gate list, which must follow the round
    layout (``_gate_layout``), UZZ pairs as in the ``(L, n/2, 2)``
    matchings."""
    length, half, _ = matchings.shape
    n = 2 * half
    layers = _uzz_layers(matchings).tolist()
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
        stack, seed, circuit_id = _spec_v1(data, n, length)
        rounds = _rounds_v1(data, stack[1])
        stored = data.get("expected_outcome")
        if not (isinstance(stored, str) and len(stored) == n and set(stored) <= {"0", "1"}):
            raise ValueError(f"field 'expected_outcome' must be {n} bits, got {stored!r}")
        lists = [arr.ravel().tolist() for arr in (*stack, rounds)] + [list(map(int, stored))]
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
    as ``_circuit_stack`` takes them, from each file's flat lists
    (``_file_fields``): one ``_int_column`` per field for all the files, and
    every matching checked.  Raises ValueError for the first failing field."""
    arrays = [_int_column(key, column, shape, high) for key, column, (shape, high)
              in zip(_FILE_ARRAYS, zip(*files), _file_shapes(n, length))]
    _check_matchings(arrays[1], n)
    return tuple(arrays[:3]), arrays[3], arrays[4]


def _write_json(data: dict, path) -> None:
    # json.dumps, unlike json.dump, encodes in C when there is no indent
    text = json.dumps(data, separators=(",", ":"), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_circuit(circuit: CircuitStack, path) -> None:
    """Write a stack of one circuit to a version-2 circuit file."""
    _write_json(circuit_to_json(circuit), path)


class CircuitWidthError(ValueError):
    """A circuit file is wider than the ``max_qubits`` of ``read_circuits``."""


def read_circuits(paths: Sequence, max_qubits: Optional[int] = None) -> list:
    """The checked ``CircuitStack`` of each batch (``_batches``) of the
    circuit files (schema 1 or 2) at ``paths``, in path order, so that
    circuit i of the stacks is ``paths[i]``.  Each file's scalar fields are
    read alone (``_file_fields``) up to the first file over ``max_qubits``;
    then each batch's fields are checked as one stack (``_field_stack``),
    the wide file raises CircuitWidthError, mixed n is refused and each
    batch gets its ``_circuit_stack`` check.  A ValueError names the file: a
    bad field's first in ``paths``, else the first failing one."""
    names = [os.path.basename(path) for path in paths]
    files, error = [], None
    for path, name in zip(paths, names):
        try:
            with open(path) as fh:
                files.append(_file_fields(json.load(fh)))
        except ValueError as exc:  # json.JSONDecodeError included
            error = ValueError(f"bad circuit file {name}: {exc}")
            break
        if max_qubits is not None and files[-1][0] > max_qubits:
            error = CircuitWidthError(f"limited to {max_qubits} qubits, "
                                      f"got {files.pop()[0]}-qubit circuits")
            break
    batches = _batches([fields[:2] for fields in files])
    try:
        stacks = [_field_stack([files[i][4] for i in batch], *files[batch[0]][:2])
                  for batch in batches]
    except ValueError:
        for name, (n, length, _, _, lists) in zip(names, files):
            try:
                _field_stack([lists], n, length)
            except ValueError as exc:
                raise ValueError(f"bad circuit file {name}: {exc}") from None
        raise
    if error is not None:
        raise error
    if len({fields[0] for fields in files}) > 1:
        raise ValueError("circuit files mix different qubit counts")
    checked = []
    for batch, (stack, rounds, stored) in zip(batches, stacks):
        try:
            checked.append(_circuit_stack(stack, [files[i][3] for i in batch],
                                          [files[i][2] for i in batch], rounds, stored))
        except CircuitCheckError as exc:
            raise ValueError(f"bad circuit file {names[batch[exc.index]]}: {exc}") from None
    return checked


def read_circuit(path) -> CircuitStack:
    """The checked stack of one circuit of a circuit file: the one-path case
    of ``read_circuits``, whose errors name the file."""
    return read_circuits([path])[0]


# ---------------------------------------------------------------------------
# QASM export
# ---------------------------------------------------------------------------


def to_qasm(circuit: CircuitStack) -> str:
    """OpenQASM 2.0 text for a stack of one circuit (one-way export).

    Cliffords are emitted as their h/s generator words (id for the identity);
    each UZZ becomes the standard decomposition cx a,b; rz(pi/2) b; cx a,b,
    which equals exp(-1j pi/4 ZZ) exactly, including global phase.
    """
    n, length = _single(circuit).n_qubits, circuit.length
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    layers = circuit.uzz_layers[0].tolist()
    for r, cliffords in enumerate(circuit.rounds[0].tolist()):
        ones = [f"{letter} q[{q}];" for q, c in enumerate(cliffords)
                for letter in _CLIFF_WORDS[c] or ("id",)]
        uzz = [line for a, b in layers[r] for line in
               (f"cx q[{a}],q[{b}];", f"rz(pi/2) q[{b}];", f"cx q[{a}],q[{b}];")]
        # as in _gate_layout: the mirrored half runs its UZZ layer first
        lines += ones + uzz if r < length else uzz + ones
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
