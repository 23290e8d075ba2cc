"""Noisy execution of compiled mirror circuits.

Two backends share a gate-located noise model:

- ``run_stabilizer``: Monte Carlo sampling of stochastic Pauli faults.  The
  noiseless circuit is a Pauli, so every fault site and Pauli code has one
  fixed final X-mask, the set of measured bits it flips.
  ``compile_fault_program`` tabulates those masks in one pass over the
  circuit (``operators.ZObservables``); ``propagate_faults`` draws each
  shot's faults and XORs their masks.  A shot succeeds iff its mask is 0,
  since the noiseless output is a computational basis state.
- ``run_dense``: exact survival probability by propagating the PTM coordinate
  vector of the state through every gate and channel (up to 4 qubits).

Noise placement (``_noisy_gates``, shared by both backends): the two-qubit
channel acts after every UZZ gate, the single-qubit channel (optional) after
every single-qubit Clifford, and ``inverse_half_override`` replaces the
two-qubit channel on mirrored-half UZZ gates.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
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
    computational_effect_vector,
    computational_state_vector,
    superop_of,
    superop_of_unitary,
)
from .circuits import CompiledCircuit, MirrorCircuitSpec, build_mirror_circuit
from .operators import CliffordGate, SingleQubitClifford, UZZ_MATRIX, ZObservables

DATASET_FORMAT_VERSION = 1

_SHOT_BLOCK = 8192  # shots per block of uniforms; bounds block x sites doubles

# the most qubits each backend simulates: uint64 fault masks, dense PTMs
_QUBIT_LIMITS = {"stabilizer": 64, "dense": 4}


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
    return False


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
class ShotRecord:
    """Outcome counts for one circuit."""

    circuit_id: int
    shots: int
    successes: int


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
        object.__setattr__(self, "entries", tuple(self.entries))

    def lengths(self) -> tuple:
        return tuple(sorted({e.length for e in self.entries}))


# ---------------------------------------------------------------------------
# Fault program
# ---------------------------------------------------------------------------

_CODE_FROM_DIGIT = (0, 1, 3, 2)  # PTM digit I,X,Y,Z -> symplectic code x + 2z


def _noisy_gates(circuit: CompiledCircuit, noise: NoiseModel):
    """Yield each gate of ``circuit`` with the channel placed after it (or None)."""
    for gate_pos, gate in enumerate(circuit.gates):
        if isinstance(gate, CliffordGate):
            yield gate, noise.single_qubit
        elif (gate_pos >= circuit.mirror_start
              and noise.inverse_half_override is not None):
            yield gate, noise.inverse_half_override
        else:
            yield gate, noise.two_qubit


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
        full = params.full_probs()  # PTM digit order
        probs = np.zeros(size)
        for ptm_idx in range(size):
            kern = 0
            rest = ptm_idx
            # PTM digits run most-significant-first over the slot qubits;
            # kernel codes pack the first slot qubit into the low bits.
            for slot in reversed(range(k)):
                digit = rest % 4
                rest //= 4
                kern |= _CODE_FROM_DIGIT[digit] << (2 * slot)
            probs[kern] = full[ptm_idx]
    return probs


def _cumulative_table(probs: np.ndarray) -> np.ndarray:
    table = np.ones(16)
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # absorb rounding so every uniform lands
    table[: len(cum)] = np.minimum(cum, 1.0)
    return table


@dataclass(frozen=True)
class FaultProgram:
    """The fault sites of one circuit under one noise model.

    ``masks[j, k]`` is the final X-mask of Pauli code k at fault site j (codes
    as in ``kernel_pauli_probs``), and ``cum_tables[j]`` holds that site's
    cumulative code probabilities, padded with 1.0 to 16 entries.
    """

    masks: np.ndarray
    cum_tables: np.ndarray

    @property
    def n_faults(self) -> int:
        return len(self.masks)


def compile_fault_program(circuit: CompiledCircuit, noise: NoiseModel) -> FaultProgram:
    if circuit.n_qubits > _QUBIT_LIMITS["stabilizer"]:
        raise ValueError(f"stabilizer backend limited to {_QUBIT_LIMITS['stabilizer']} qubits")
    observables = ZObservables(circuit.n_qubits)
    masks = []
    tables = []
    table_cache = {}
    for gate, params in _noisy_gates(circuit, noise):
        observables.apply(gate)
        if params is None:
            continue
        key = (params, len(gate.qubits))
        if key not in table_cache:
            table_cache[key] = _cumulative_table(kernel_pauli_probs(*key))
        tables.append(table_cache[key])
        row = observables.fault_masks(gate.qubits)
        masks.append(row + [0] * (16 - len(row)))
    observables.outcome()  # the masks are final flips only for a mirror circuit
    return FaultProgram(
        np.array(masks, dtype=np.uint64).reshape(-1, 16),
        np.array(tables, dtype=np.float64).reshape(-1, 16),
    )


def propagate_faults(program: FaultProgram, uniforms: np.ndarray) -> np.ndarray:
    """Final X-mask of each shot of one ``(shots, n_faults)`` uniform block.

    ``uniforms[s, j]`` draws the code of shot s at site j as the number of
    cumulative-table entries at or below it (``searchsorted`` with
    ``side="right"``).  Only the cells that draw a non-identity code are
    looked up, and each shot's mask is the XOR of their masks.
    """
    shots, sites = np.nonzero(uniforms >= program.cum_tables[:, 0])
    drawn = uniforms[shots, sites]
    codes = np.count_nonzero(program.cum_tables[sites] <= drawn[:, None], axis=1)
    flips = np.zeros(len(uniforms), dtype=np.uint64)
    np.bitwise_xor.at(flips, shots, program.masks[sites, codes])
    return flips


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def run_stabilizer(circuit: CompiledCircuit, noise: NoiseModel, shots: int,
                   rng: np.random.Generator) -> ShotRecord:
    """Monte Carlo survival counts under stochastic Pauli noise."""
    if not noise.stabilizer_compatible():
        raise ValueError(
            "stabilizer backend requires stochastic Pauli channels; "
            "use run_dense for coherent or amplitude-damping noise"
        )
    if shots < 1:
        raise ValueError("shots must be >= 1")
    program = compile_fault_program(circuit, noise)
    successes = 0
    done = 0
    while done < shots:
        block = min(_SHOT_BLOCK, shots - done)
        uniforms = rng.random((block, program.n_faults))
        flips = propagate_faults(program, uniforms)
        successes += int(np.count_nonzero(flips == 0))
        done += block
    return ShotRecord(circuit.circuit_id, shots, successes)


@lru_cache(maxsize=None)
def _embedding_positions(qubits: tuple, n_qubits: int) -> np.ndarray:
    """Permutation mapping full PTM indices to (rest, sub) block order."""
    size = 4 ** n_qubits
    idx = np.arange(size)
    digits = [(idx // 4 ** (n_qubits - 1 - q)) % 4 for q in range(n_qubits)]
    sub = np.zeros(size, dtype=np.int64)
    for q in qubits:
        sub = sub * 4 + digits[q]
    rest = np.zeros(size, dtype=np.int64)
    for q in range(n_qubits):
        if q not in qubits:
            rest = rest * 4 + digits[q]
    return rest * (4 ** len(qubits)) + sub


def _embed_ptm(mat: np.ndarray, qubits: tuple, n_qubits: int) -> np.ndarray:
    k = len(qubits)
    big = np.kron(np.eye(4 ** (n_qubits - k)), mat)
    pos = _embedding_positions(qubits, n_qubits)
    return big[np.ix_(pos, pos)]


@lru_cache(maxsize=None)
def _gate_ptm_embedded(kind: str, key, qubits: tuple, n_qubits: int) -> np.ndarray:
    if kind == "c1":
        mat = superop_of_unitary(
            np.asarray(SingleQubitClifford(key).unitary)
        ).mat
    elif kind == "uzz":
        mat = superop_of_unitary(UZZ_MATRIX).mat
    else:  # channel
        mat = superop_of(key, len(qubits)).mat
    out = _embed_ptm(mat, qubits, n_qubits)
    out.flags.writeable = False
    return out


def run_dense(circuit: CompiledCircuit, noise: NoiseModel) -> float:
    """Exact survival probability via PTM vector propagation (n <= 4)."""
    n = circuit.n_qubits
    if n > _QUBIT_LIMITS["dense"]:
        raise ValueError(f"dense backend limited to {_QUBIT_LIMITS['dense']} qubits")
    vec = computational_state_vector(n, 0)
    for gate, params in _noisy_gates(circuit, noise):
        qubits = tuple(gate.qubits)
        if isinstance(gate, CliffordGate):
            vec = _gate_ptm_embedded("c1", gate.clifford.index, qubits, n) @ vec
        else:
            vec = _gate_ptm_embedded("uzz", None, qubits, n) @ vec
        if params is not None:
            vec = _gate_ptm_embedded("chan", params, qubits, n) @ vec
    bits = 0
    for q, bit in enumerate(circuit.expected_outcome):
        bits |= bit << q
    prob = float(computational_effect_vector(n, bits) @ vec)
    return min(max(prob, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Survival experiments
# ---------------------------------------------------------------------------


def _as_compiled(item) -> CompiledCircuit:
    if isinstance(item, CompiledCircuit):
        return item
    if isinstance(item, MirrorCircuitSpec):
        return build_mirror_circuit(item)
    raise TypeError(f"expected a circuit spec or compiled circuit, got {item!r}")


def _run_one(args):
    circuit, noise, shots, child_seed, backend = args
    rng = np.random.default_rng(np.random.SeedSequence(child_seed))
    if backend == "stabilizer":
        record = run_stabilizer(circuit, noise, shots, rng)
        successes = record.successes
    elif backend == "dense":
        successes = int(rng.binomial(shots, run_dense(circuit, noise)))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return DatasetEntry(circuit.length, circuit.circuit_id, shots, successes,
                        circuit.seed)


def simulate_survival(circuits: Sequence, noise: NoiseModel, shots: int,
                      rng: Union[int, np.random.Generator], jobs: int = 1,
                      backend: str = "stabilizer") -> DecayDataset:
    """Simulate survival counts for a batch of circuits.

    ``rng`` may be a seed or a Generator; each circuit gets a child stream
    derived from ``(master_seed, position)``, so results are independent of
    ``jobs`` and of circuit order within a job.  The dense backend computes
    the exact probability and draws binomial counts from it.
    """
    compiled = [_as_compiled(c) for c in circuits]
    if not compiled:
        raise ValueError("no circuits given")
    n = compiled[0].n_qubits
    if any(c.n_qubits != n for c in compiled):
        raise ValueError("circuits must share a qubit count")
    if isinstance(rng, np.random.Generator):
        master = int(rng.integers(0, 2 ** 63 - 1))
    else:
        master = int(rng)
    tasks = [
        (c, noise, shots, (master, pos), backend)
        for pos, c in enumerate(compiled)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_run_one, tasks, chunksize=1))
    else:
        entries = [_run_one(t) for t in tasks]
    return DecayDataset(n, tuple(entries))


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("n", "L", "circuit_id", "shots", "successes", "seed")


def _read_entry(length, circuit_id, shots, successes, seed) -> DatasetEntry:
    """One dataset row from a file, rejecting counts no experiment gives."""
    entry = DatasetEntry(int(length), int(circuit_id), int(shots), int(successes),
                         int(seed))
    if entry.shots < 1 or not 0 <= entry.successes <= entry.shots:
        raise ValueError(
            f"dataset row needs shots >= 1 and 0 <= successes <= shots, "
            f"got shots={entry.shots} successes={entry.successes}"
        )
    return entry


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
            n_values.add(int(row["n"]))
            entries.append(
                _read_entry(row["L"], row["circuit_id"], row["shots"],
                            row["successes"], row["seed"])
            )
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
    if data.get("version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset version {data.get('version')!r}")
    entries = tuple(
        _read_entry(e["L"], e["circuit_id"], e["shots"], e["successes"], e["seed"])
        for e in data["entries"]
    )
    return DecayDataset(int(data["n"]), entries)
