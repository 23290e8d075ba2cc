"""Noisy execution of compiled mirror circuits.

Two backends share a gate-located noise model, and both run the stacks of
circuits of one (n, L) that ``circuits.CircuitStack`` holds, as arrays,
with a noise and a child seed per circuit (``_stack_counts``, the one stack
runner of ``simulate_survival``, which ``run`` calls, and of the scatter
study; one task worker, ``_counted``, serves both backends):

- stabilizer: Monte Carlo sampling of stochastic Pauli faults.  The
  noiseless circuit maps each Z_q to +/-Z_q, so each Pauli code at each
  fault site flips a fixed set of measured bits.  ``_fault_tables`` builds
  these masks for a batch of up to ``_TABLE_WORDS`` words.  Codes 1, 2, 4
  and 8 of a site come from the Z images the mirror check kept; the other
  codes are XORed from them.  Each circuit draws its own sparse faults from
  its own child stream, under its own site classes, so circuits under
  different noise strengths share a table.  One decode, mask gather and
  per-shot XOR then serves consecutive circuits (``_stack_survivors``).
  ``run_stabilizer`` runs a stack of one circuit through the same loop.
- dense: exact survival probability by propagating the PTM coordinates of
  the states of a stack round by round (up to 8 qubits), each gate merged
  with the channel after it, as batched matrix products between two state
  buffers of at most ``_DENSE_WORDS`` words each, reused for the whole
  batch (``_dense_survivals``; ``run_dense`` runs a stack of one circuit).

Noise placement (``_channel``, shared by both backends): the two-qubit
channel acts after every UZZ gate, the single-qubit channel (optional) after
every single-qubit Clifford, and ``inverse_half_override`` replaces the
two-qubit channel on mirrored-half UZZ gates.  Both backends apply it to
whole rounds: the dense backend merges each round's channels into its local
PTMs, the fault tables place their sites with ``_fault_sites``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .channels import (
    AmplitudeDamping,
    ChannelParams,
    Depolarizing,
    StochasticPauli,
    UnitaryError,
    computational_state_vector,
    superop_of,
    superop_of_unitary,
)
from .circuits import CircuitStack, _gate_layout, _integer, _is_int, _single
from .operators import CLIFFORD_UNITARIES, UZZ_MATRIX

DATASET_FORMAT_VERSION = 1

# shots per draw, and the most shots and expected faults that one decode of a
# stack holds: memory follows the faults one block draws (a block of dense
# faults can take one int64 per (shot, site) cell while they are placed)
_SHOT_BLOCK = 8192

# fault-table words (16 per site and circuit) that one batch of circuits
# builds at once, 512 KB: a batch holds at least one circuit, so memory does
# not grow with the number of circuits
_TABLE_WORDS = 1 << 16

# words of one of the two dense state buffers of a batch of circuits, 512 KB:
# 256 circuits at n = 4, 16 at n = 6 and one at n = 8
_DENSE_WORDS = 1 << 16

# the most qubits each backend simulates: uint64 fault masks, and a dense
# state of 4^n floats (512 KB at n = 8)
_QUBIT_LIMITS = {"stabilizer": 64, "dense": 8}

# a fault's code uniform u falls in bucket floor(256 u) of [0, 1), exactly,
# since 256 is a power of two; a class's rank table holds each bucket's code
# rank, or _SEARCH where a code boundary splits the bucket
_RANK_BUCKETS = 256
_SEARCH = 255


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------


def _channel_arity_ok(params: ChannelParams, k: int) -> bool:
    if isinstance(params, (Depolarizing, AmplitudeDamping)):
        return True  # dimension-agnostic / per-qubit
    if isinstance(params, StochasticPauli):
        return params.n_qubits == k
    if isinstance(params, UnitaryError):
        return len(params.axis) == k
    raise TypeError(f"{params!r} is not a channel")


def is_pauli_stochastic(params: ChannelParams) -> bool:
    """True if the channel applies Paulis with fixed probabilities."""
    return isinstance(params, (Depolarizing, StochasticPauli))


@dataclass(frozen=True)
class NoiseModel:
    """Gate-located noise: ``two_qubit`` after every UZZ gate (on its
    pair), the optional ``single_qubit`` after every single-qubit gate, and
    the optional ``inverse_half_override`` in place of ``two_qubit`` on the
    UZZ gates of the mirrored half."""

    two_qubit: Optional[ChannelParams] = None
    single_qubit: Optional[ChannelParams] = None
    inverse_half_override: Optional[ChannelParams] = None

    def __post_init__(self):
        for params, k, name in (
            (self.two_qubit, 2, "two_qubit"),
            (self.single_qubit, 1, "single_qubit"),
            (self.inverse_half_override, 2, "inverse_half_override"),
        ):
            if params is not None and not _channel_arity_ok(params, k):
                raise ValueError(f"{name} channel has the wrong qubit count")

    def stabilizer_compatible(self) -> bool:
        return all(
            p is None or is_pauli_stochastic(p)
            for p in (self.two_qubit, self.single_qubit, self.inverse_half_override)
        )


@dataclass(frozen=True)
class DatasetEntry:
    """One dataset row: counts for one circuit at one length, with
    L >= 1, shots >= 1 and successes >= 0."""

    length: int
    circuit_id: int
    shots: int
    successes: int
    seed: int

    def __post_init__(self):
        if self.length < 1 or self.shots < 1 or self.successes < 0:
            raise ValueError(
                f"dataset row needs L >= 1, shots >= 1 and successes >= 0, got "
                f"L={self.length} shots={self.shots} successes={self.successes}")


@dataclass(frozen=True)
class DecayDataset:
    """Survival counts for a set of mirror circuits on ``n_qubits`` qubits."""

    n_qubits: int
    entries: tuple

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"dataset n must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "entries", tuple(self.entries))

    def lengths(self) -> tuple:
        return tuple(sorted({e.length for e in self.entries}))


# ---------------------------------------------------------------------------
# Fault program
# ---------------------------------------------------------------------------

_CODE_FROM_DIGIT = np.array([0, 1, 3, 2])  # PTM digit I,X,Y,Z -> symplectic code x + 2z


@lru_cache(maxsize=None)
def _kernel_codes(k: int) -> np.ndarray:
    """The kernel code of each of the 4^k PTM indices on k qubits.

    PTM digits run most-significant-first over the slot qubits; kernel
    codes pack the first slot qubit into the low bits.
    """
    digits = np.indices((4,) * k).reshape(k, -1)  # digit of each slot qubit
    codes = (_CODE_FROM_DIGIT[digits] << (2 * np.arange(k))[:, None]).sum(axis=0)
    codes.flags.writeable = False
    return codes


def _channel(noise: NoiseModel, arity: int, mirrored: bool) -> Optional[ChannelParams]:
    """The channel placed after a gate on ``arity`` qubits, in the mirrored
    half or not (None for a noiseless gate)."""
    if arity == 1:
        return noise.single_qubit
    if mirrored and noise.inverse_half_override is not None:
        return noise.inverse_half_override
    return noise.two_qubit


def kernel_pauli_probs(params: ChannelParams, k: int) -> np.ndarray:
    """Fault probabilities over the 4^k kernel Pauli codes (identity first)."""
    if not is_pauli_stochastic(params):
        raise ValueError(f"{type(params).__name__} is not stochastic Pauli noise")
    size = 4 ** k
    if isinstance(params, Depolarizing):
        probs = np.full(size, params.p / size)
        probs[0] += 1.0 - params.p
    else:
        if params.n_qubits != k:
            raise ValueError("StochasticPauli qubit count mismatch")
        probs = np.zeros(size)
        probs[_kernel_codes(k)] = params.full_probs()  # from PTM digit order
    return probs


@dataclass(frozen=True)
class SiteClass:
    """The fault sites of one (n, L) that share one channel: ``q`` is the
    probability of a non-identity fault at each, clamped to [0, 1], and
    ``cum_codes[i]`` that of a code of at most ``i + 1``, given a fault.
    ``rank_table`` (256 bytes, ``_rank_table``) holds at b the rank
    ``#(cum_codes <= u)`` shared by every u in ``[b/256, (b+1)/256)``, or
    ``_SEARCH`` where a value of ``cum_codes`` lies inside that bucket
    (``_code_ranks``)."""

    sites: np.ndarray
    q: float
    cum_codes: np.ndarray
    rank_table: np.ndarray


def _site_class(probs: np.ndarray, sites: np.ndarray) -> SiteClass:
    """The class of ``sites`` under fault probabilities ``probs``, with
    read-only arrays, since the circuits of one (n, L, noise) share it."""
    faults = np.maximum(probs[1:], 0.0)
    total = faults.sum()
    cum = np.cumsum(faults / total) if total > 0 else np.ones(len(faults))
    cum[-1] = 1.0  # absorb rounding so every uniform lands
    sites, cum = np.array(sites, dtype=np.intp), np.minimum(cum, 1.0)
    sites.flags.writeable = cum.flags.writeable = False
    return SiteClass(sites, min(float(total), 1.0), cum, _rank_table(cum.tobytes()))


@lru_cache(maxsize=64)
def _rank_table(cum_codes: bytes) -> np.ndarray:
    """The read-only ``SiteClass.rank_table`` of the float64 ``cum_codes``
    given as bytes, cached, since the classes of one channel family share
    it (a depolarizing channel's, whatever its p).  Per bucket b, the rank of
    each of its uniforms lies between #(cum <= b/256) and #(cum < (b+1)/256),
    so where these agree it is that count."""
    cum, edges = np.frombuffer(cum_codes), np.arange(_RANK_BUCKETS + 1) / _RANK_BUCKETS
    low = np.searchsorted(cum, edges[:-1], side="right")
    high = np.searchsorted(cum, edges[1:], side="left")
    table = low.astype(np.uint8)
    table[low != high] = _SEARCH
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _placed_sites(n: int, length: int, placed: tuple) -> tuple:
    """The read-only round, UZZ flag and slot arrays (``_gate_layout``) of
    the gates of one (n, L) whose kind (Clifford, forward UZZ, mirrored
    UZZ) is ``placed``, in gate order, one tuple for all noises that do."""
    rounds, is_uzz, slot = _gate_layout(n, length)
    noisy = np.array(placed)[is_uzz * (1 + (rounds >= length))]
    sites = tuple(array[noisy] for array in (rounds, is_uzz, slot))
    for array in sites:
        array.flags.writeable = False
    return sites


@lru_cache(maxsize=64)
def _fault_sites(n: int, length: int, noise: NoiseModel) -> tuple:
    """Where the fault sites of every circuit of one (n, L) under ``noise``
    sit (``_placed_sites``), and the sites' classes (read-only, cached per
    (n, L, noise), so one group of circuits builds them once).  Raises
    ValueError above the stabilizer backend's qubit limit."""
    if n > _QUBIT_LIMITS["stabilizer"]:
        raise ValueError(f"stabilizer backend limited to {_QUBIT_LIMITS['stabilizer']} qubits")
    keys = {}  # (params, arity) -> class number, in order of first site
    class_of_kind = []
    for arity, mirrored in ((1, False), (2, False), (2, True)):
        params = _channel(noise, arity, mirrored)
        class_of_kind.append(-1 if params is None
                             else keys.setdefault((params, arity), len(keys)))
    sites = _placed_sites(n, length, tuple(number >= 0 for number in class_of_kind))
    site_class = np.array(class_of_kind)[sites[1] * (1 + (sites[0] >= length))]
    classes = tuple(_site_class(kernel_pauli_probs(*key), np.flatnonzero(site_class == number))
                    for key, number in keys.items())
    return sites, classes


def _fault_tables(x_images: np.ndarray, z_images: np.ndarray, layers: np.ndarray,
                  sites: tuple) -> np.ndarray:
    """The ``(C, sites, 16)`` fault table of C circuits of one (n, L), from
    their ``(C, 2L, 2, n)`` Z images (``CircuitStack``) and ``(C, 2L, n/2,
    2)`` UZZ layers, at ``sites`` (round, UZZ flag and slot arrays).
    ``masks[c, j, k]`` is the final X-mask of Pauli code k (as in
    ``kernel_pauli_probs``) at site j of circuit c.  A fault flips outcome
    bit q iff it anticommutes with the image of Z_q after its gate's
    Clifford round or UZZ layer.  So code 1 (X) at a qubit flips the Z_q
    whose image has a Z part there, code 2 (Z) those with an X part, and
    codes 4 and 8 do the same at a UZZ pair's second qubit.  Code k is the
    XOR of these at its set bits; a one-qubit site has no code above 3.
    Every code is written, so the table is taken empty: a zeroed one
    (calloc) maps fresh pages."""
    rounds, two, slot = sites
    one = ~two
    masks = np.empty((len(x_images), len(rounds), 16), dtype=np.uint64)
    masks[..., 0] = 0
    masks[:, one, 1] = z_images[:, rounds[one], 0, slot[one]]
    masks[:, one, 2] = x_images[:, rounds[one], 0, slot[one]]
    r = rounds[two]
    pairs = layers[:, r, slot[two]]  # (C, sites, 2)
    k = np.arange(len(x_images))[:, None]
    for side in (0, 1):
        masks[:, two, 1 << 2 * side] = z_images[k, r, 1, pairs[..., side]]
        masks[:, two, 2 << 2 * side] = x_images[k, r, 1, pairs[..., side]]
    for bit in (2, 4, 8):  # codes 3, 5-7 and 9-15
        np.bitwise_xor(masks[..., 1:bit], masks[..., bit, None], out=masks[..., bit + 1:2 * bit])
    masks[:, one, 4:] = 0
    return masks


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _check_stabilizer_noise(noise: NoiseModel) -> None:
    if not noise.stabilizer_compatible():
        raise ValueError(
            "stabilizer backend requires stochastic Pauli channels; "
            "use run_dense for coherent or amplitude-damping noise"
        )


def _stack_survivors(masks: np.ndarray, classes: Sequence, shots: int,
                     rngs: Sequence) -> np.ndarray:
    """How many of ``shots`` shots of each circuit of a stack with fault
    table ``masks`` draw no flip; circuit c draws from ``rngs[c]`` under its
    site classes ``classes[c]``.  Per block of ``_SHOT_BLOCK`` shots each
    circuit draws, class by class: the binomial number of faulty (shot,
    site) cells (given that number, the faulty cells of an i.i.d. grid are a
    uniform subset of it), their places (``choice``) and a uniform each for
    its code (``random``); a class with q = 0 draws nothing.  The rest runs
    once per block for a run of consecutive circuits of at most
    ``_SHOT_BLOCK`` shots and expected faults (``_block_flips``)."""
    count = len(masks)
    expected = [sum(len(cls.sites) * cls.q for cls in circuit_classes)
                for circuit_classes in classes]  # faults per shot
    successes = np.zeros(count, dtype=np.int64)
    for done in range(0, shots, _SHOT_BLOCK):
        block = min(_SHOT_BLOCK, shots - done)
        start, pending, drawn = 0, 0, {}
        for c, (rng, circuit_classes) in enumerate(zip(rngs, classes)):
            for cls in circuit_classes:
                cells = block * len(cls.sites)
                faults = int(rng.binomial(cells, cls.q)) if cls.q > 0.0 else 0
                if faults:
                    _, counts, places, uniforms = drawn.setdefault(id(cls), (cls, [], [], []))
                    counts.append((c - start, faults))
                    places.append(rng.choice(cells, faults, replace=False, shuffle=False))
                    uniforms.append(rng.random(faults))
                    pending += faults
            # decoded before the next circuit would take the run past
            # _SHOT_BLOCK shots or expected faults, and at the end
            if (c + 1 == count or (c + 2 - start) * block > _SHOT_BLOCK
                    or pending + block * expected[c + 1] > _SHOT_BLOCK):
                flips = _block_flips(masks[start:c + 1], block, drawn.values())
                successes[start:c + 1] += np.count_nonzero(flips == 0, axis=1)
                start, pending, drawn = c + 1, 0, {}
    return successes


def _block_flips(masks: np.ndarray, block: int, drawn) -> np.ndarray:
    """The ``(C, block)`` final X-masks of one block of shots of C circuits
    with fault table ``masks``, given per class ``(class, [(circuit,
    faults)], places, uniforms)``: places in the class's ``(block, sites)``
    grid, uniforms for codes.  Each class's faults, of every circuit, are
    decoded at once into flat indices of the table and of the flip array;
    the lists are emptied as they are read, their arrays overwritten and
    the indices built in place, so that a fault takes about five words at
    most."""
    count, n_sites = masks.shape[:2]
    table = masks.reshape(-1)[1:]  # a code is 1 + its uniform's rank
    flips = np.zeros(count * block, dtype=np.uint64)
    for cls, counts, places, uniforms in drawn:
        ranks = _code_ranks(cls, _emptied(uniforms))
        index = _emptied(places)
        shot = index // len(cls.sites)
        index -= shot * len(cls.sites)
        index = cls.sites[index]
        if count > 1:  # each fault's circuit's offset in the table and flips
            circuits, sizes = zip(*counts)
            index += np.repeat(np.multiply(circuits, n_sites), sizes)
            shot += np.repeat(np.multiply(circuits, block), sizes)
        index *= 16
        index += ranks
        np.bitwise_xor.at(flips, shot, table[index])
    return flips.reshape(count, block)


def _code_ranks(cls: SiteClass, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cls.cum_codes, uniforms, side="right")`` as uint8,
    from the class's rank table: each uniform's bucket is looked up, and
    only those of buckets that a code boundary splits are searched.
    ``uniforms`` is scaled in place."""
    uniforms *= _RANK_BUCKETS  # exact, and below 256
    ranks = cls.rank_table[uniforms.astype(np.intp)]
    split = np.flatnonzero(ranks == _SEARCH)
    if len(split):
        ranks[split] = np.searchsorted(cls.cum_codes, uniforms[split] / _RANK_BUCKETS,
                                       side="right")
    return ranks


def _emptied(arrays: list) -> np.ndarray:
    """The concatenation of ``arrays``, which is emptied."""
    out = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    arrays.clear()
    return out


def run_stabilizer(circuit: CircuitStack, noise: NoiseModel, shots: int,
                   rng: np.random.Generator) -> int:
    """How many of ``shots`` Monte Carlo shots of a stack of one circuit
    survive under stochastic Pauli noise (``_stack_survivors``)."""
    _check_stabilizer_noise(noise)
    sites, classes = _fault_sites(_single(circuit).n_qubits, circuit.length, noise)
    masks = _fault_tables(circuit.x_images, circuit.z_images, circuit.uzz_layers, sites)
    return int(_stack_survivors(masks, [classes], shots, [rng])[0])


@lru_cache(maxsize=None)
def _local_ptm(clifford: Optional[int], params: Optional[ChannelParams],
               k: int) -> np.ndarray:
    """PTM of one gate (a Clifford index, or None for UZZ) and the channel after
    it, as a ``(4,)*2k`` tensor: k output axes, then k input axes."""
    mat = superop_of_unitary(UZZ_MATRIX if clifford is None
                             else CLIFFORD_UNITARIES[clifford])
    if params is not None:
        mat = superop_of(params, k) @ mat
    out = mat.reshape((4,) * (2 * k))
    out.flags.writeable = False
    return out


def run_dense(circuit: CircuitStack, noise: NoiseModel) -> float:
    """Exact survival probability of a stack of one circuit via PTM
    propagation (n <= 8): the stack kernel ``_dense_survivals`` on its
    rounds, layers and outcome."""
    _single(circuit)
    return float(_dense_survivals(circuit.rounds, circuit.uzz_layers, circuit.outcome,
                                  noise)[0])


def _dense_survivals(rounds: np.ndarray, layers: np.ndarray, outcome: np.ndarray,
                     noise: NoiseModel) -> np.ndarray:
    """The exact survival probabilities of C circuits of one (n, L) with
    ``(C, 2L, n)`` ``rounds``, ``(C, 2L, n/2, 2)`` UZZ ``layers`` and
    ``(C, n)`` ``outcome`` bits, each clamped to [0, 1].

    Row c of a ``(C, 4, ..., 4)`` state holds circuit c's 4^n PTM
    coordinates, qubit 0's digit first; they go round by round, each gate
    merged with the channel after it, between two buffers that swap after
    every product.  A Clifford round is n batched products, each of every
    row's ``(4^(n-1), 4)`` view with its circuit's local 4x4 PTM,
    contracting the first axis and appending it; a UZZ layer is
    ``_uzz_layer``.  Each circuit's products are the matrix products, on
    the same views, of that circuit run alone, so its probability does not
    depend on the circuits beside it.
    """
    count, steps, n = rounds.shape
    if n > _QUBIT_LIMITS["dense"]:
        raise ValueError(f"dense backend limited to {_QUBIT_LIMITS['dense']} qubits")
    layers = layers.reshape(count, steps, n)
    # each product multiplies the state's view from the right by a transposed PTM
    clifford_ptms = np.array([_local_ptm(c, _channel(noise, 1, False), 1) for c in range(24)])
    uzz_ptms = [_local_ptm(None, _channel(noise, 2, mirrored), 2).reshape(16, 16).T
                for mirrored in (False, True)]
    state = np.empty((count,) + (4,) * n)
    state.reshape(count, -1)[:] = computational_state_vector(n, 0)
    spare, ptms = np.empty_like(state), np.empty((count, 4, 4))
    for r in range(steps):
        mirrored = r >= steps // 2
        uzz = (layers[:, r].tolist(), np.argsort(layers[:, r], axis=1).tolist(),
               uzz_ptms[mirrored])
        if mirrored:  # the UZZ layer comes first in the mirrored half
            state, spare = _uzz_layer(state, spare, *uzz)
        for q in range(n):
            clifford_ptms.take(rounds[:, r, q], axis=0, out=ptms)
            np.matmul(state.reshape(count, 4, -1).transpose(0, 2, 1), ptms.transpose(0, 2, 1),
                      out=spare.reshape(count, -1, 4))
            state, spare = spare, state
        if not mirrored:
            state, spare = _uzz_layer(state, spare, *uzz)
    del spare  # freed for the readout vectors, each as large as a state
    probs = [computational_state_vector(n, sum(bit << q for q, bit in enumerate(bits))) @ row
             for bits, row in zip(outcome.tolist(), state.reshape(count, -1))]
    return np.clip(probs, 0.0, 1.0)


def _uzz_layer(state: np.ndarray, spare: np.ndarray, axes: list, inverses: list,
               ptm: np.ndarray) -> tuple:
    """The ``(state, spare)`` buffers after a UZZ layer merged with its
    channel (``ptm``, the transposed 16x16 PTM), given each circuit's pairs
    one after another as ``axes`` and their ``inverses``: each row is
    transposed into the other buffer so that its pairs' axes are adjacent,
    then each batched product contracts the first pair's 16-wide axis and
    appends it, and after n/2 of them each row is transposed back."""
    count = len(state)
    for c, order in enumerate(axes):
        spare[c] = state[c].transpose(order)
    for _ in range(len(axes[0]) // 2):
        np.matmul(spare.reshape(count, 16, -1).transpose(0, 2, 1), ptm,
                  out=state.reshape(count, -1, 16))
        state, spare = spare, state
    for c, order in enumerate(inverses):
        state[c] = spare[c].transpose(order)
    return state, spare


# ---------------------------------------------------------------------------
# Survival experiments
# ---------------------------------------------------------------------------


def _counted(task) -> tuple:
    """``(key, counts)`` of a ``(key, arrays, shared, classes, shots,
    child_seeds)`` task, a stack of one (n, L) whose circuit c draws from
    the child stream ``SeedSequence(child_seeds[c])``.  On the stabilizer
    backend ``arrays`` is the X images, Z images and UZZ layers, with one
    ``_fault_tables`` build at the ``shared`` sites, and ``classes`` each
    circuit's site classes (``_stack_survivors``); on the dense backend it
    is the rounds, UZZ layers and outcome, run under the ``shared`` noise,
    and ``classes`` is None: a binomial draw from each circuit's exact
    probability (``_dense_survivals``)."""
    key, arrays, shared, classes, shots, child_seeds = task
    if classes is None:
        probs = _dense_survivals(*arrays, shared).tolist()
        return key, [int(np.random.default_rng(np.random.SeedSequence(seed)).binomial(shots, p))
                     for p, seed in zip(probs, child_seeds)]
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in child_seeds]
    return key, _stack_survivors(_fault_tables(*arrays, shared), classes, shots, rngs).tolist()


def _task_runs(stack: CircuitStack, noises: Sequence, backend: str) -> list:
    """``[start, stop, shared, classes]`` of each run of consecutive
    circuits of ``stack`` that one task may hold: on the dense backend,
    those of one noise object, ``shared``; on the stabilizer backend, those
    whose noises place the same fault sites, ``shared`` (one
    ``_placed_sites`` tuple), with each circuit's site ``classes``, looked
    up once per noise object."""
    runs = []
    for c, noise in enumerate(noises):
        if not c or noise is not noises[c - 1]:
            shared, classes = (_fault_sites(stack.n_qubits, stack.length, noise)
                               if backend == "stabilizer" else (noise, None))
            if not runs or shared is not runs[-1][2]:
                runs.append([c, c, shared, []])
        runs[-1][1] = c + 1
        runs[-1][3].append(classes)
    return runs


def _stack_counts(stacks: Sequence[tuple], shots: int, jobs: int, backend: str) -> list:
    """The success counts of the circuits of ``(stack, noises,
    child_seeds)`` triples, one int64 array per stack: stacks of one n
    (``CircuitStack``) whose circuit c runs under ``noises[c]`` and draws
    from the child stream ``SeedSequence(child_seeds[c])``.  Each stack is
    cut into ``_counted`` tasks, one at a time, of at most ceil(circuits /
    jobs), within a run of ``_task_runs``: stabilizer batches of at most
    ``_TABLE_WORDS`` table words, or dense ones of at most ``_DENSE_WORDS``
    state words."""
    size = -(-sum(len(stack) for stack, _, _ in stacks) // jobs)
    stabilizer = backend == "stabilizer"

    def tasks():
        for index, (stack, noises, child_seeds) in enumerate(stacks):
            layers = stack.uzz_layers
            for start, stop, shared, classes in _task_runs(stack, noises, backend):
                step = min(size, max(1, _TABLE_WORDS // max(16 * len(shared[0]), 1) if stabilizer
                                     else _DENSE_WORDS >> 2 * stack.n_qubits))
                for k in range(start, stop, step):
                    at = slice(k, min(k + step, stop))
                    if stabilizer:
                        arrays = stack.x_images[at], stack.z_images[at], layers[at]
                        chosen = classes[k - start:at.stop - start]
                    else:
                        arrays, chosen = (stack.rounds[at], layers[at], stack.outcome[at]), None
                    yield (index, at), arrays, shared, chosen, shots, child_seeds[at]

    if jobs > 1:
        # imported here: the pool is the one user of concurrent.futures and
        # multiprocessing, which every other call would pay to import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_counted, tasks(), chunksize=1))
    else:
        results = map(_counted, tasks())
    counts = [np.empty(len(stack), dtype=np.int64) for stack, _, _ in stacks]
    for (index, at), result in results:
        counts[index][at] = result
    return counts


def simulate_survival(circuits: Union[CircuitStack, Sequence[CircuitStack]],
                      noise: NoiseModel, shots: int, rng: Union[int, np.random.Generator],
                      jobs: int = 1, backend: str = "stabilizer") -> DecayDataset:
    """Simulate survival counts for a ``CircuitStack`` or a list of them,
    all of one n, as ``run`` does for the stacks it reads.  ``rng`` may be a
    seed or a Generator; circuit i, the i-th of the concatenated stacks and
    the dataset's row i, draws from the child stream ``(master_seed, i)``,
    so results are independent of ``jobs`` and of how the circuits are
    stacked.  The stacks run as given, through ``_stack_counts``."""
    shots, jobs = _integer(shots), _integer(jobs)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if backend not in _QUBIT_LIMITS:
        raise ValueError(f"unknown backend {backend!r}")
    stacks = [circuits] if isinstance(circuits, CircuitStack) else list(circuits)
    for stack in stacks:
        if not isinstance(stack, CircuitStack):
            raise TypeError(f"expected a CircuitStack, got {stack!r}")
    if not stacks:
        raise ValueError("no circuits given")
    n = stacks[0].n_qubits
    if any(stack.n_qubits != n for stack in stacks):
        raise ValueError("circuits must share a qubit count")
    if isinstance(rng, np.random.Generator):
        master = int(rng.integers(0, 2 ** 63 - 1))
    else:
        master = _integer(rng)
    if backend == "stabilizer":
        _check_stabilizer_noise(noise)
    ends = np.cumsum([len(stack) for stack in stacks]).tolist()
    counts = _stack_counts([(stack, [noise] * len(stack),
                             [(master, i) for i in range(end - len(stack), end)])
                            for stack, end in zip(stacks, ends)], shots, jobs, backend)
    return DecayDataset(n, tuple(
        DatasetEntry(stack.length, circuit_id, shots, count, seed)
        for stack, column in zip(stacks, counts)
        for circuit_id, seed, count in zip(stack.circuit_ids, stack.seeds, column.tolist())))


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("n", "L", "circuit_id", "shots", "successes", "seed")


def _read_entry(length, circuit_id, shots, successes, seed) -> DatasetEntry:
    """One dataset row from a file (checked by ``DatasetEntry``), rejecting
    too the rows with more successes than shots, which no experiment gives."""
    entry = DatasetEntry(int(length), int(circuit_id), int(shots), int(successes),
                         int(seed))
    if entry.successes > entry.shots:
        raise ValueError(
            f"dataset row needs successes <= shots, got "
            f"shots={entry.shots} successes={entry.successes}")
    return entry


def _json_int(value, what: str) -> int:
    if not _is_int(value):
        raise ValueError(f"dataset {what} must be an integer, got {value!r}")
    return value


def write_dataset_csv(dataset: DecayDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for e in dataset.entries:
            writer.writerow(
                [dataset.n_qubits, e.length, e.circuit_id, e.shots, e.successes, e.seed]
            )


def read_dataset_csv(path) -> DecayDataset:
    entries = []
    n_values = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"dataset CSV missing columns {sorted(missing)}")
        for row in reader:
            if None in row.values():
                raise ValueError(f"dataset CSV row {reader.line_num} is short")
            n_values.add(int(row["n"]))
            entries.append(_read_entry(*(row[key] for key in _CSV_COLUMNS[1:])))
    if len(n_values) != 1:
        raise ValueError("dataset CSV must describe a single qubit count")
    return DecayDataset(n_values.pop(), tuple(entries))


def write_dataset_json(dataset: DecayDataset, path) -> None:
    data = {
        "version": DATASET_FORMAT_VERSION,
        "n": dataset.n_qubits,
        "entries": [
            {"L": e.length, "circuit_id": e.circuit_id, "shots": e.shots,
             "successes": e.successes, "seed": e.seed}
            for e in dataset.entries
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset_json(path) -> DecayDataset:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ValueError("a dataset file must hold an object with a list of entries")
    version = data.get("version")
    if not _is_int(version) or version != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset version {version!r}")
    keys = ("L", "circuit_id", "shots", "successes", "seed")
    if not all(isinstance(e, dict) for e in data["entries"]):
        raise ValueError("dataset entries must be objects")
    entries = tuple(_read_entry(*(_json_int(e.get(key), key) for key in keys))
                    for e in data["entries"])
    return DecayDataset(_json_int(data.get("n"), "n"), entries)
