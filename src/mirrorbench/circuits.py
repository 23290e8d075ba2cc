"""Mirror circuit sampling, compilation, and serialization.

A mirror circuit on an even number of qubits applies L random layers and then
their inverses in reverse order.  Each layer is a round of independent
single-qubit Cliffords followed by a round of UZZ gates on a uniformly random
perfect matching of the qubits.  Uniformly random Pauli layers are inserted at
every layer boundary of both halves plus once before measurement; each
boundary Pauli is cancelled by its push-through partner so the net unitary is
the final Pauli alone, and in the absence of noise the circuit maps |0...0>
to a known computational basis state.

Compilation merges every inserted Pauli (including the X wrappers from the
native-gate inverse of UZZ) into neighboring single-qubit Cliffords, so the
executed gate list contains only CliffordGate and NativeGate entries: exactly
one CliffordGate per qubit per round plus the round's UZZ gates.

Every compiled or loaded gate list is checked by one pass of
``operators.ZObservables``: the gates must multiply to a Pauli whose X part
is the final Pauli's, and the signs of that pass give the noiseless outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import (
    CliffordGate,
    NativeGate,
    PauliOperator,
    SingleQubitClifford,
    mirror_outcome,
    sample_clifford,
    sample_pauli,
)

CIRCUIT_FORMAT_VERSION = 1


class CompilationError(RuntimeError):
    """Raised when a compiled circuit fails its internal consistency check."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a single-qubit Clifford per qubit plus a perfect matching."""

    cliffords: tuple
    matching: tuple

    def __post_init__(self):
        object.__setattr__(self, "cliffords", tuple(self.cliffords))
        object.__setattr__(
            self, "matching", tuple(tuple(pair) for pair in self.matching)
        )


def _validate_matching(matching: Sequence, n_qubits: int) -> None:
    seen = set()
    for a, b in matching:
        if a == b or not (0 <= a < n_qubits and 0 <= b < n_qubits):
            raise ValueError(f"bad pair {(a, b)}")
        if a in seen or b in seen:
            raise ValueError("matching reuses a qubit")
        seen.update((a, b))
    if len(seen) != n_qubits:
        raise ValueError("matching must cover every qubit")


@dataclass(frozen=True)
class MirrorCircuitSpec:
    """Abstract description of one mirror circuit.

    Args:
        n_qubits: even qubit count >= 2.
        length: L, the number of forward layers (the circuit runs 2L rounds).
        layers: L LayerSpec entries for the forward half.
        randomizing_paulis: 2L uniform Paulis, one per layer boundary of both
            halves (forward boundaries first, then mirror boundaries in
            execution order).
        final_pauli: the Pauli inserted before measurement.
        seed: the seed this spec was drawn from (recorded for provenance).
        circuit_id: dataset row identifier.
    """

    n_qubits: int
    length: int
    layers: tuple
    randomizing_paulis: tuple
    final_pauli: PauliOperator
    seed: int
    circuit_id: int = 0

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2:
            raise ValueError("n_qubits must be even and >= 2")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(
            self, "randomizing_paulis", tuple(self.randomizing_paulis)
        )
        if len(self.layers) != self.length:
            raise ValueError("layers must have exactly `length` entries")
        for layer in self.layers:
            if len(layer.cliffords) != self.n_qubits:
                raise ValueError("layer needs one Clifford per qubit")
            _validate_matching(layer.matching, self.n_qubits)
        if len(self.randomizing_paulis) != 2 * self.length:
            raise ValueError("need 2 L randomizing Paulis")
        for p in tuple(self.randomizing_paulis) + (self.final_pauli,):
            if p.n_qubits != self.n_qubits:
                raise ValueError("Pauli qubit count mismatch")


@dataclass(frozen=True)
class CompiledCircuit:
    """Executable gate list plus the noiseless measurement outcome.

    ``gates`` holds CliffordGate and NativeGate entries in execution order;
    ``mirror_start`` is the index of the first mirrored-half gate;
    ``expected_outcome`` is the noiseless outcome bit per qubit.
    """

    n_qubits: int
    length: int
    seed: int
    circuit_id: int
    gates: tuple
    expected_outcome: tuple
    mirror_start: int
    spec: MirrorCircuitSpec = field(repr=False, default=None, compare=False)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_matching(rng: np.random.Generator, n_qubits: int) -> tuple:
    """Uniform perfect matching: pair the lowest unpaired qubit with a
    uniformly random remaining one, repeatedly."""
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError("n_qubits must be even and >= 2")
    unpaired = list(range(n_qubits))
    pairs = []
    while unpaired:
        a = unpaired.pop(0)
        b = unpaired.pop(int(rng.integers(len(unpaired))))
        pairs.append((a, b))
    return tuple(pairs)


def sample_layer(rng: np.random.Generator, n_qubits: int) -> LayerSpec:
    cliffords = tuple(sample_clifford(rng) for _ in range(n_qubits))
    return LayerSpec(cliffords, sample_matching(rng, n_qubits))


def mirror_circuit_spec(seed: int, n_qubits: int, length: int,
                        circuit_id: int = 0) -> MirrorCircuitSpec:
    """Draw a full circuit spec from a single seed (fixed draw order)."""
    rng = np.random.default_rng(seed)
    layers = tuple(sample_layer(rng, n_qubits) for _ in range(length))
    randomizing = tuple(sample_pauli(rng, n_qubits) for _ in range(2 * length))
    final = sample_pauli(rng, n_qubits)
    return MirrorCircuitSpec(
        n_qubits, length, layers, randomizing, final, seed=seed, circuit_id=circuit_id
    )


def sample_experiment(rng, n_qubits: int, lengths: Sequence[int],
                      circuits_per_length: int) -> list:
    """Independent circuit specs for each (length, repeat) cell.

    ``rng`` may be a Generator or an integer seed.  Each spec records its own
    seed so it can be regenerated independently.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    specs = []
    circuit_id = 0
    for length in lengths:
        for _ in range(circuits_per_length):
            seed = int(rng.integers(0, 2 ** 63 - 1))
            specs.append(mirror_circuit_spec(seed, n_qubits, int(length), circuit_id))
            circuit_id += 1
    return specs


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# qubit-level Pauli code (IXYZ order) from x/z bits: (x + 2z) -> code
_BITS_TO_CODE = (0, 1, 3, 2)


def _pauli_clifford_at(x: int, z: int, qubit: int) -> SingleQubitClifford:
    bits = ((x >> qubit) & 1) + 2 * ((z >> qubit) & 1)
    return SingleQubitClifford.from_pauli_code(_BITS_TO_CODE[bits])


def build_mirror_circuit(spec: MirrorCircuitSpec) -> CompiledCircuit:
    """Compile a spec into executed gates and the expected outcome.

    Maintains the invariant ``ideal_prefix = frame @ executed_prefix`` up to
    global phase, where ``frame`` is the Pauli still owed to future
    single-qubit layers.  Only its X and Z bitmasks ``fx, fz`` are carried:
    merging a Pauli into a Clifford ignores its phase.  At the end the
    leftover frame and the final Pauli are folded into the last single-qubit
    round, so the executed circuit equals the ideal one up to global phase.
    """
    n = spec.n_qubits
    gates = []
    fx = fz = 0

    def emit_sq_layer(cliffords, post: PauliOperator):
        for q in range(n):
            merged = _pauli_clifford_at(post.x, post.z, q).compose(
                cliffords[q].compose(_pauli_clifford_at(fx, fz, q))
            )
            gates.append(CliffordGate(q, merged))

    def emit_uzz_layer(matching):
        nonlocal fz
        for a, b in matching:
            gates.append(NativeGate((a, b)))
            # UZZ maps X_a to Y_a Z_b and X_b to Z_a Y_b; Z is unchanged
            if ((fx >> a) ^ (fx >> b)) & 1:
                fz ^= (1 << a) | (1 << b)

    # forward half
    for i, layer in enumerate(spec.layers):
        randomizer = spec.randomizing_paulis[i]
        emit_sq_layer(layer.cliffords, post=randomizer)
        fx, fz = randomizer.x, randomizer.z  # its adjoint differs in phase only
        emit_uzz_layer(layer.matching)
    mirror_start = len(gates)

    # mirrored half: per original layer k (reverse order) the compiled inverse
    # is X-wrap, UZZ, X-wrap (X_a UZZ X_a = UZZ^dagger on each pair (a, b)),
    # then the inverse Cliffords; the wraps ride the frame instead of being
    # emitted.
    for step, k in enumerate(reversed(range(spec.length))):
        layer = spec.layers[k]
        wrap = 0
        for a, _ in layer.matching:
            wrap |= 1 << a
        fx ^= wrap
        emit_uzz_layer(layer.matching)
        fx ^= wrap
        randomizer = spec.randomizing_paulis[spec.length + step]
        emit_sq_layer(tuple(c.inverse() for c in layer.cliffords), post=randomizer)
        fx, fz = randomizer.x, randomizer.z

    # fold the leftover frame and the final Pauli into the last 1q round
    tail_x, tail_z = spec.final_pauli.x ^ fx, spec.final_pauli.z ^ fz
    for q in range(n):
        idx = len(gates) - n + q
        gates[idx] = CliffordGate(
            q, _pauli_clifford_at(tail_x, tail_z, q).compose(gates[idx].clifford)
        )

    try:
        outcome = _checked_outcome(gates, spec.final_pauli)
    except ValueError as exc:
        raise CompilationError(f"compiled circuit is wrong: {exc}") from None
    return CompiledCircuit(
        n_qubits=n,
        length=spec.length,
        seed=spec.seed,
        circuit_id=spec.circuit_id,
        gates=tuple(gates),
        expected_outcome=outcome,
        mirror_start=mirror_start,
        spec=spec,
    )


def _checked_outcome(gates: Sequence, final_pauli: PauliOperator) -> tuple:
    """Noiseless outcome of a gate list that must invert to ``final_pauli``.

    Raises ValueError if the gates are not a Pauli or flip other bits than
    the X part of ``final_pauli``.
    """
    n = final_pauli.n_qubits
    outcome = mirror_outcome(gates, n)
    if outcome != tuple((final_pauli.x >> q) & 1 for q in range(n)):
        raise ValueError("circuit does not invert to its final Pauli")
    return outcome


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def circuit_to_json(circuit: CompiledCircuit) -> dict:
    """JSON-ready dict for one compiled circuit (schema version 1)."""
    spec = circuit.spec
    if spec is None:
        raise ValueError("circuit has no spec attached")
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            gates.append({"gate": "c1", "q": gate.qubit,
                          "index": gate.clifford.index})
        else:
            gates.append({"gate": "uzz", "q": list(gate.qubits)})
    return {
        "version": CIRCUIT_FORMAT_VERSION,
        "n": circuit.n_qubits,
        "L": circuit.length,
        "seed": circuit.seed,
        "circuit_id": circuit.circuit_id,
        "layers": [
            {
                "cliffords": [c.index for c in layer.cliffords],
                "matching": [list(pair) for pair in layer.matching],
            }
            for layer in spec.layers
        ],
        "randomizing_paulis": [p.to_label() for p in spec.randomizing_paulis],
        "final_pauli": spec.final_pauli.to_label(),
        "mirror_start": circuit.mirror_start,
        "gates": gates,
        "expected_outcome": "".join(str(b) for b in circuit.expected_outcome),
    }


def circuit_from_json(data: dict) -> CompiledCircuit:
    """Rebuild a compiled circuit from its stored gate list.

    The gates are not recompiled from the spec, so datasets stay
    reproducible even if the sampler changes.  They are checked instead:
    a gate list that is not a mirror, or whose outcome differs from the
    stored ``expected_outcome`` or from the final Pauli, raises ValueError,
    as does a stored ``mirror_start`` (where ``@inverse=`` noise begins)
    other than the forward half's gate count from the spec's layers.
    """
    if data.get("version") != CIRCUIT_FORMAT_VERSION:
        raise ValueError(f"unsupported circuit format version {data.get('version')!r}")
    n = int(data["n"])
    layers = tuple(
        LayerSpec(
            tuple(SingleQubitClifford(int(i)) for i in layer["cliffords"]),
            tuple(tuple(int(q) for q in pair) for pair in layer["matching"]),
        )
        for layer in data["layers"]
    )
    spec = MirrorCircuitSpec(
        n_qubits=n,
        length=int(data["L"]),
        layers=layers,
        randomizing_paulis=tuple(
            PauliOperator.from_label(lab) for lab in data["randomizing_paulis"]
        ),
        final_pauli=PauliOperator.from_label(data["final_pauli"]),
        seed=int(data["seed"]),
        circuit_id=int(data.get("circuit_id", 0)),
    )
    gates = []
    for rec in data["gates"]:
        if rec["gate"] == "c1":
            gate = CliffordGate(int(rec["q"]), SingleQubitClifford(int(rec["index"])))
        elif rec["gate"] == "uzz":
            gate = NativeGate(tuple(int(q) for q in rec["q"]))
        else:
            raise ValueError(f"unknown gate record {rec!r}")
        if not all(0 <= q < n for q in gate.qubits):
            raise ValueError(f"gate record {rec!r} acts outside {n} qubits")
        gates.append(gate)
    outcome = _checked_outcome(gates, spec.final_pauli)
    if data["expected_outcome"] != "".join(str(b) for b in outcome):
        raise ValueError("stored expected_outcome differs from the gates' outcome")
    mirror_start = sum(n + len(layer.matching) for layer in layers)
    if int(data["mirror_start"]) != mirror_start:
        raise ValueError(f"stored mirror_start {data['mirror_start']!r} differs from "
                         f"the {mirror_start} gates of the forward half")
    return CompiledCircuit(
        n_qubits=n,
        length=int(data["L"]),
        seed=int(data["seed"]),
        circuit_id=int(data.get("circuit_id", 0)),
        gates=tuple(gates),
        expected_outcome=outcome,
        mirror_start=mirror_start,
        spec=spec,
    )


def save_circuit(circuit: CompiledCircuit, path) -> None:
    # json.dumps, unlike json.dump, encodes in C when there is no indent
    text = json.dumps(circuit_to_json(circuit), separators=(",", ":"), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_circuit(path) -> CompiledCircuit:
    with open(path) as fh:
        return circuit_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# QASM export
# ---------------------------------------------------------------------------


def to_qasm(circuit: CompiledCircuit) -> str:
    """OpenQASM 2.0 text for one compiled circuit (one-way export).

    Cliffords are emitted as their h/s generator words (id for the identity);
    each UZZ becomes the standard decomposition cx a,b; rz(pi/2) b; cx a,b,
    which equals exp(-1j pi/4 ZZ) exactly, including global phase.
    """
    n = circuit.n_qubits
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    for gate in circuit.gates:
        if isinstance(gate, CliffordGate):
            word = gate.clifford.word
            if not word:
                lines.append(f"id q[{gate.qubit}];")
            else:
                for letter in word:
                    lines.append(f"{letter} q[{gate.qubit}];")
        else:
            a, b = gate.qubits
            lines.append(f"cx q[{a}],q[{b}];")
            lines.append(f"rz(pi/2) q[{b}];")
            lines.append(f"cx q[{a}],q[{b}];")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
