"""Noisy execution of compiled mirror circuits.

Two backends share a gate-located noise model:

- ``run_stabilizer``: Monte Carlo sampling of stochastic Pauli faults.  The
  noiseless circuit maps each Z_q to +/-Z_q, so every fault site and Pauli
  code has one fixed final X-mask, the set of measured bits it flips: the
  Z_q whose image where the fault occurs it anticommutes with.
  The fault tables (``_fault_tables``) read those masks, for every site at
  once, from the round-by-round Z images that the circuits' mirror check
  kept (no second pass over the gates: that check is one pass per (n, L)
  stack of circuits).  The sites and their grouping by channel depend only
  on (n, L, noise) and come from a cache (``_fault_sites``).  A batch
  (``_run_batch``) is a stack of one (n, L), up to ``_TABLE_WORDS`` table
  words, given as arrays: one table build serves all of its circuits, and
  each circuit draws its faults from its own child stream under its own
  site classes, so circuits under different noise strengths can share a
  build (the scatter study does).  ``compile_fault_program`` is a stack of
  one.
  Faults are drawn sparsely: per block of shots and per group, a binomial
  count of faulty (shot, site) cells, placed uniformly, each with a code
  from the group's conditional table, so the work follows the faults drawn,
  not shots x sites.  ``propagate_faults`` XORs their masks per shot.  A shot
  succeeds iff its mask is 0, since the noiseless output is a computational
  basis state.
- ``run_dense``: exact survival probability by propagating the PTM coordinates
  of the state round by round (up to 8 qubits): a Clifford round as n local
  4x4 PTMs, a UZZ layer as one axis permutation and n/2 local 16x16 PTMs,
  each gate merged with the channel after it.

Noise placement (``_channel``, shared by both backends): the two-qubit
channel acts after every UZZ gate, the single-qubit channel (optional) after
every single-qubit Clifford, and ``inverse_half_override`` replaces the
two-qubit channel on mirrored-half UZZ gates.  Both backends apply it to
whole rounds: the dense backend merges each round's channels into its local
PTMs, the fault program places its sites with ``_fault_sites``.
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
from .circuits import (
    CompiledCircuit,
    MirrorCircuitSpec,
    _batches,
    _gate_layout,
    _is_int,
    _uzz_layers,
    build_mirror_circuits,
)
from .operators import CLIFFORD_UNITARIES, UZZ_MATRIX

DATASET_FORMAT_VERSION = 1

# shots per draw: memory follows the faults one block draws (a block of dense
# faults can take one int64 per (shot, site) cell while they are placed)
_SHOT_BLOCK = 8192

# fault-table words (16 per site and circuit) that one batch of circuits
# builds at once, 512 KB: a batch holds at least one circuit, so memory does
# not grow with the number of circuits
_TABLE_WORDS = 1 << 16

# the most qubits each backend simulates: uint64 fault masks, and a dense
# state of 4^n floats (512 KB at n = 8)
_QUBIT_LIMITS = {"stabilizer": 64, "dense": 8}


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
    """Gate-located noise: channels attached to gate classes.

    Args:
        two_qubit: channel applied after every UZZ gate (on its pair).
        single_qubit: optional channel applied after every single-qubit gate.
        inverse_half_override: optional replacement for ``two_qubit`` on
            UZZ gates in the mirrored half.
    """

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
    """One dataset row: counts for one circuit at one length."""

    length: int
    circuit_id: int
    shots: int
    successes: int
    seed: int


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
    """The fault sites of one program that share one channel.

    ``q`` is the probability of a non-identity fault at each site, clamped to
    [0, 1], and ``cum_codes[i]`` the probability that a fault has a code of at
    most ``i + 1``, given that it is not the identity.
    """

    sites: np.ndarray
    q: float
    cum_codes: np.ndarray


def _site_class(probs: np.ndarray, sites: np.ndarray) -> SiteClass:
    """The class of ``sites`` under fault probabilities ``probs``, with
    read-only arrays, since programs of one (n, L, noise) share it."""
    faults = np.maximum(probs[1:], 0.0)
    total = faults.sum()
    cum = np.cumsum(faults / total) if total > 0 else np.ones(len(faults))
    cum[-1] = 1.0  # absorb rounding so every uniform lands
    sites, cum = np.array(sites, dtype=np.intp), np.minimum(cum, 1.0)
    sites.flags.writeable = cum.flags.writeable = False
    return SiteClass(sites, min(float(total), 1.0), cum)


@dataclass(frozen=True)
class FaultProgram:
    """The fault sites of one circuit under one noise model.

    ``masks[j, k]`` is the final X-mask of Pauli code k at fault site j (codes
    as in ``kernel_pauli_probs``, zero-padded to 16).  ``classes`` partitions
    the sites by channel, one ``SiteClass`` per distinct channel and arity.
    """

    masks: np.ndarray
    classes: tuple

    @property
    def n_faults(self) -> int:
        return len(self.masks)


def _code_masks(generators: np.ndarray) -> np.ndarray:
    """The flip masks of every Pauli code at a site, zero-padded to 16 codes.

    Code k flips the XOR of the generators (last axis) at its set bits.  At
    a site on qubits (a, b) they are the outcome bits that X_a, Z_a, X_b and
    Z_b flip: the Z_q whose images have a Z part at a, an X part at a, and
    so on.
    """
    masks = np.zeros(generators.shape[:-1] + (16,), dtype=np.uint64)
    for j in range(generators.shape[-1]):
        np.bitwise_xor(masks[..., :1 << j], generators[..., j, None],
                       out=masks[..., 1 << j:2 << j])
    return masks


@lru_cache(maxsize=64)
def _fault_sites(n: int, length: int, noise: NoiseModel) -> tuple:
    """Where the fault sites of every circuit of one (n, L) under ``noise``
    sit, in gate order: the round, UZZ flag and slot of each site's gate
    (``_gate_layout``), and the sites' classes (read-only, cached per (n, L,
    noise), so one group of circuits builds them once).  Raises ValueError
    above the stabilizer backend's qubit limit."""
    if n > _QUBIT_LIMITS["stabilizer"]:
        raise ValueError(f"stabilizer backend limited to {_QUBIT_LIMITS['stabilizer']} qubits")
    rounds, is_uzz, slot = _gate_layout(n, length)
    kind = is_uzz * (1 + (rounds >= length))  # Clifford, forward UZZ, mirrored UZZ
    keys = {}  # (params, arity) -> class number, in order of first site
    class_of_kind = []
    for arity, mirrored in ((1, False), (2, False), (2, True)):
        params = _channel(noise, arity, mirrored)
        class_of_kind.append(-1 if params is None
                             else keys.setdefault((params, arity), len(keys)))
    gate_class = np.array(class_of_kind)[kind]
    noisy = gate_class >= 0
    classes = tuple(_site_class(kernel_pauli_probs(*key),
                                np.flatnonzero(gate_class[noisy] == number))
                    for key, number in keys.items())
    sites = tuple(array[noisy] for array in (rounds, is_uzz, slot))
    for array in sites:
        array.flags.writeable = False
    return sites, classes


def _site_generators(x_images: np.ndarray, z_images: np.ndarray, layers: np.ndarray,
                     sites: tuple) -> np.ndarray:
    """The ``(C, sites, 4)`` generator masks (``_code_masks``) of a stack of
    C circuits of one (n, L), given their ``(C, 2L, 2, n)`` Z images
    (``CompiledCircuit``) and ``(C, 2L, n/2, 2)`` UZZ layers, at the fault
    sites ``sites`` (round, UZZ flag and slot arrays): Z_q with a Z part and
    with an X part at each qubit of the gate, read from the images after a
    Clifford round (its one qubit, the last two masks left zero) or after a
    UZZ layer (its pair)."""
    rounds, two, slot = sites
    one = ~two
    generators = np.zeros((len(x_images), len(rounds), 4), dtype=np.uint64)
    generators[:, one, 0] = z_images[:, rounds[one], 0, slot[one]]
    generators[:, one, 1] = x_images[:, rounds[one], 0, slot[one]]
    r = rounds[two]
    pairs = layers[:, r, slot[two]]  # (C, sites, 2)
    k = np.arange(len(x_images))[:, None]
    for side in (0, 1):
        generators[:, two, 2 * side] = z_images[k, r, 1, pairs[..., side]]
        generators[:, two, 2 * side + 1] = x_images[k, r, 1, pairs[..., side]]
    return generators


def _fault_tables(x_images: np.ndarray, z_images: np.ndarray, layers: np.ndarray,
                  sites: tuple) -> np.ndarray:
    """The fault masks of a stack of C circuits of one (n, L) at ``sites``
    (``_fault_sites``), as one ``(C, sites, 16)`` array
    (``FaultProgram.masks`` per circuit); the arguments are those of
    ``_site_generators``.

    A fault flips outcome bit q iff it anticommutes with the image of Z_q
    where it occurs (the circuit maps each Z_q to +/-Z_q), so the masks are
    read from the Z images the circuits' check kept: the generators of the
    noisy sites alone are gathered first, and only then expanded to the 16
    codes.
    """
    masks = _code_masks(_site_generators(x_images, z_images, layers, sites))
    masks[:, ~sites[1], 4:] = 0  # a one-qubit fault has no code above 3
    return masks


def compile_fault_program(circuit: CompiledCircuit, noise: NoiseModel) -> FaultProgram:
    """The fault sites of ``circuit`` in gate order, with their masks and classes.

    A stack of one of ``_fault_tables``: the sites and classes depend only
    on (n, L, noise) (``_fault_sites``); only the masks are the circuit's
    own.
    """
    sites, classes = _fault_sites(circuit.n_qubits, circuit.length, noise)
    masks = _fault_tables(circuit.x_images[None], circuit.z_images[None],
                          circuit.uzz_layers[None], sites)
    return FaultProgram(masks[0], classes)


def _draw_faults(program: FaultProgram, shots: int, rng: np.random.Generator):
    """The non-identity faults of ``shots`` shots as (shot, site, code) arrays.

    Per class, the number of faulty (shot, site) cells is binomial; given that
    number, the faulty cells of an i.i.d. grid are a uniform subset of it, and
    each draws its code from the class's conditional table.
    """
    empty = np.zeros(0, dtype=np.intp)
    drawn = [(empty, empty, empty)]
    for cls in program.classes:
        if cls.q == 0.0:
            continue
        cells = shots * len(cls.sites)
        count = int(rng.binomial(cells, cls.q))
        if count == 0:
            continue
        cell = rng.choice(cells, count, replace=False, shuffle=False)
        shot, pos = np.divmod(cell, len(cls.sites))
        codes = 1 + np.searchsorted(cls.cum_codes, rng.random(count), side="right")
        drawn.append((shot, cls.sites[pos], codes))
    return tuple(np.concatenate(parts) for parts in zip(*drawn))


def propagate_faults(program: FaultProgram, shots: np.ndarray, sites: np.ndarray,
                     codes: np.ndarray, n_shots: int) -> np.ndarray:
    """Final X-mask of each of ``n_shots`` shots, given their faults.

    Fault i has Pauli code ``codes[i]`` at site ``sites[i]`` of shot
    ``shots[i]``; each shot's mask is the XOR of its faults' masks.
    """
    flips = np.zeros(n_shots, dtype=np.uint64)
    np.bitwise_xor.at(flips, shots, program.masks[sites, codes])
    return flips


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _check_stabilizer_noise(noise: NoiseModel) -> None:
    if not noise.stabilizer_compatible():
        raise ValueError(
            "stabilizer backend requires stochastic Pauli channels; "
            "use run_dense for coherent or amplitude-damping noise"
        )


def _survivors(program: FaultProgram, shots: int, rng: np.random.Generator) -> int:
    """How many of ``shots`` shots of ``program`` draw no flip, in blocks of
    ``_SHOT_BLOCK`` shots."""
    successes = 0
    for done in range(0, shots, _SHOT_BLOCK):
        block = min(_SHOT_BLOCK, shots - done)
        flips = propagate_faults(program, *_draw_faults(program, block, rng), block)
        successes += int(np.count_nonzero(flips == 0))
    return successes


def run_stabilizer(circuit: CompiledCircuit, noise: NoiseModel, shots: int,
                   rng: np.random.Generator) -> int:
    """How many of ``shots`` Monte Carlo shots survive under stochastic Pauli
    noise."""
    _check_stabilizer_noise(noise)
    return _survivors(compile_fault_program(circuit, noise), shots, rng)


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


def _uzz_layer(state: np.ndarray, axes: list, inverse: list, ptm: np.ndarray) -> np.ndarray:
    """``state`` after a UZZ layer merged with its channel (``ptm``, the
    transposed 16x16 PTM).

    ``axes`` lists the layer's pairs one after another, each as (a, b), and
    ``inverse`` is its inverse permutation.  The state is transposed so that
    each pair's axes are adjacent, then each product contracts the first
    pair's 16-wide axis and appends it, so after n/2 of them the axes are in
    ``axes`` order again and are transposed back.
    """
    n = len(axes)
    state = state.reshape((4,) * n).transpose(axes)
    for _ in range(n // 2):
        state = np.dot(state.reshape(16, -1).T, ptm)
    return state.reshape((4,) * n).transpose(inverse)


def run_dense(circuit: CompiledCircuit, noise: NoiseModel) -> float:
    """Exact survival probability via PTM propagation (n <= 8).

    The state's 4^n PTM coordinates are kept with qubit 0's digit first,
    and the circuit is applied round by round, each gate merged with the
    channel after it.  A Clifford round is n products of the
    ``(4^(n-1), 4)`` view with a local 4x4 PTM: each contracts the first
    axis and appends it, so after n of them the axes are back in order.  A
    UZZ layer is one transpose that makes each pair adjacent, n/2 products
    on 16-wide axes and the transpose back (``_uzz_layer``).
    """
    n, length = circuit.n_qubits, circuit.length
    if n > _QUBIT_LIMITS["dense"]:
        raise ValueError(f"dense backend limited to {_QUBIT_LIMITS['dense']} qubits")
    layers = circuit.uzz_layers.reshape(2 * length, n)
    inverses = np.argsort(layers, axis=1).tolist()
    layers = layers.tolist()
    # transposed, since each product multiplies the state's view from the right
    clifford_ptms = [_local_ptm(c, _channel(noise, 1, False), 1).T for c in range(24)]
    uzz_ptms = [_local_ptm(None, _channel(noise, 2, mirrored), 2).reshape(16, 16).T
                for mirrored in (False, True)]
    state = computational_state_vector(n, 0)
    for r, cliffords in enumerate(circuit.rounds.tolist()):
        mirrored = r >= length
        if mirrored:  # the UZZ layer comes first in the mirrored half
            state = _uzz_layer(state, layers[r], inverses[r], uzz_ptms[1])
        for clifford in cliffords:
            state = np.dot(state.reshape(4, -1).T, clifford_ptms[clifford])
        if not mirrored:
            state = _uzz_layer(state, layers[r], inverses[r], uzz_ptms[0])
    bits = 0
    for q, bit in enumerate(circuit.expected_outcome):
        bits |= bit << q
    prob = float(computational_state_vector(n, bits) @ state.reshape(-1))
    return min(max(prob, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Survival experiments
# ---------------------------------------------------------------------------


def _as_compiled(items: Sequence) -> list:
    """``items`` with every spec compiled, all specs in one
    ``build_mirror_circuits`` call (one batch per (n, L))."""
    out = list(items)
    for item in out:
        if not isinstance(item, (CompiledCircuit, MirrorCircuitSpec)):
            raise TypeError(f"expected a circuit spec or compiled circuit, got {item!r}")
    at = [i for i, item in enumerate(out) if isinstance(item, MirrorCircuitSpec)]
    for i, circuit in zip(at, build_mirror_circuits([out[i] for i in at])):
        out[i] = circuit
    return out


def _table_batches(sizes: Sequence[tuple], noise: NoiseModel) -> list:
    """The positions of circuits of the given (n, L) ``sizes`` in batches
    that share one ``_fault_tables`` call: one (n, L) each, of at most
    ``_TABLE_WORDS`` table words, and at least one circuit."""
    return _batches(sizes, lambda size: 16 * len(_fault_sites(*size, noise)[0][0]),
                    _TABLE_WORDS)


def _run_batch(task) -> list:
    """The success counts of one stabilizer batch: a stack of circuits of
    one (n, L) that shares one ``_fault_tables`` call.

    ``task`` is ``(x_images, z_images, layers, sites, classes, shots,
    child_seeds)``: the stack's arrays as ``_fault_tables`` takes them, the
    sites (``_fault_sites``), and per circuit its site classes and the seed
    of its own child stream.
    """
    x_images, z_images, layers, sites, classes, shots, child_seeds = task
    masks = _fault_tables(x_images, z_images, layers, sites)
    return [_survivors(FaultProgram(table, circuit_classes), shots,
                       np.random.default_rng(np.random.SeedSequence(seed)))
            for table, circuit_classes, seed in zip(masks, classes, child_seeds)]


def _stabilizer_task(circuits: Sequence[CompiledCircuit], noise: NoiseModel, shots: int,
                     child_seeds: list) -> tuple:
    """The ``_run_batch`` task of circuits of one (n, L), stacked."""
    sites, classes = _fault_sites(circuits[0].n_qubits, circuits[0].length, noise)
    return (np.stack([c.x_images for c in circuits]), np.stack([c.z_images for c in circuits]),
            _uzz_layers(np.stack([c.spec.matchings for c in circuits])), sites,
            [classes] * len(circuits), shots, child_seeds)


def _run_dense_batch(task) -> list:
    """The success counts of ``(circuits, noise, shots, child_seeds)``: a
    binomial draw from each circuit's exact probability (``run_dense``)."""
    circuits, noise, shots, child_seeds = task
    return [int(np.random.default_rng(np.random.SeedSequence(seed))
                .binomial(shots, run_dense(circuit, noise)))
            for circuit, seed in zip(circuits, child_seeds)]


def simulate_survival(circuits: Sequence, noise: NoiseModel, shots: int,
                      rng: Union[int, np.random.Generator], jobs: int = 1,
                      backend: str = "stabilizer") -> DecayDataset:
    """Simulate survival counts for a batch of circuits.

    ``rng`` may be a seed or a Generator; each circuit gets a child stream
    derived from ``(master_seed, position)``, so results are independent of
    ``jobs`` and of how circuits are batched.  Specs among ``circuits`` are
    compiled together, one stack per (n, L).  The stabilizer backend stacks
    the circuits of each (n, L) in batches of at most ``_TABLE_WORDS``
    table words, and runs each batch with one fault-table build
    (``_run_batch``); the dense backend computes each circuit's exact
    probability and draws binomial counts from it.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if backend not in _QUBIT_LIMITS:
        raise ValueError(f"unknown backend {backend!r}")
    compiled = _as_compiled(circuits)
    if not compiled:
        raise ValueError("no circuits given")
    n = compiled[0].n_qubits
    if any(c.n_qubits != n for c in compiled):
        raise ValueError("circuits must share a qubit count")
    if isinstance(rng, np.random.Generator):
        master = int(rng.integers(0, 2 ** 63 - 1))
    else:
        master = int(rng)
    if backend == "stabilizer":
        _check_stabilizer_noise(noise)
        batches = _table_batches([(c.n_qubits, c.length) for c in compiled], noise)
        run, make_task = _run_batch, _stabilizer_task
    else:
        batches = [[pos] for pos in range(len(compiled))]
        run, make_task = _run_dense_batch, lambda *task: task
    if jobs > 1:  # at least one task per worker, where the circuits allow
        size = -(-len(compiled) // jobs)
        batches = [b[k:k + size] for b in batches for k in range(0, len(b), size)]
    # made one at a time: a stabilizer task holds copies of its batch's images
    tasks = (make_task([compiled[pos] for pos in batch], noise, shots,
                       [(master, pos) for pos in batch]) for batch in batches)
    if jobs > 1:
        # imported here: the pool is the one user of concurrent.futures and
        # multiprocessing, which every other call would pay to import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks, chunksize=1))
    else:
        results = [run(task) for task in tasks]
    entries = [None] * len(compiled)
    for batch, counts in zip(batches, results):
        for pos, count in zip(batch, counts):
            circuit = compiled[pos]
            entries[pos] = DatasetEntry(circuit.length, circuit.circuit_id, shots, count,
                                        circuit.seed)
    return DecayDataset(n, tuple(entries))


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("n", "L", "circuit_id", "shots", "successes", "seed")


def _read_entry(length, circuit_id, shots, successes, seed) -> DatasetEntry:
    """One dataset row from a file, rejecting rows no experiment gives."""
    entry = DatasetEntry(int(length), int(circuit_id), int(shots), int(successes),
                         int(seed))
    if entry.length < 1 or entry.shots < 1 or not 0 <= entry.successes <= entry.shots:
        raise ValueError(
            f"dataset row needs L >= 1, shots >= 1 and 0 <= successes <= shots, got "
            f"L={entry.length} shots={entry.shots} successes={entry.successes}")
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
