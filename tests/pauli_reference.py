"""Reference Pauli algebra and the per-gate view of circuits, for the tests.

The package carries Pauli images round by round on numpy words
(``operators._clifford_round`` and friends), and a circuit is its round
arrays.  This module keeps the exact, phase-tracking ``PauliOperator``
algebra, a circuit's gate list (``gate_list``, which states the execution
order on its own rather than reading the library's site layout), the
gate-by-gate ``ZObservables`` pass on Python ints, and the version-1 circuit
writer, so the tests can check the round-wise code against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mirrorbench.circuits import _mirror_start
from mirrorbench.operators import (
    _CLIFF_COMPOSE,
    _CLIFF_WORDS,
    _LETTER_IMAGES,
    _LETTER_MASKS,
)

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def _canon_phase(value: complex) -> complex:
    """Snap a product of exact phase units back onto {1, -1, 1j, -1j}."""
    re = round(value.real)
    im = round(value.imag)
    cand = complex(re, im)
    if abs(value - cand) > 1e-9 or (re, im) not in {(1, 0), (-1, 0), (0, 1), (0, -1)}:
        raise ValueError(f"phase {value!r} is not a fourth root of unity")
    return _PHASES[{(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(re, im)]]


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli ``phase * X^x * Z^z`` with integer bitmasks.

    Args:
        n_qubits: number of qubits n >= 1.
        x: X-part bitmask, bit j for qubit j.
        z: Z-part bitmask.
        phase: one of 1, -1, 1j, -1j (canonical form; note +Y has phase 1j).
    """

    n_qubits: int
    x: int = 0
    z: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        mask = (1 << self.n_qubits) - 1
        if not 0 <= self.x <= mask or not 0 <= self.z <= mask:
            raise ValueError("bitmask out of range for n_qubits")
        object.__setattr__(self, "phase", _canon_phase(self.phase))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(n_qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Parse labels like ``"XIZ"``, ``"-Y"``, ``"+iXZ"``, ``"-iYY"``."""
        body = label
        phase = 1 + 0j
        for prefix, value in (("+i", 1j), ("-i", -1j), ("+", 1 + 0j), ("-", -1 + 0j)):
            if body.startswith(prefix):
                phase = value
                body = body[len(prefix):]
                break
        if not body or any(ch not in "IXYZ" for ch in body):
            raise ValueError(f"bad Pauli label {label!r}")
        x = z = 0
        for j, ch in enumerate(body):
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
            if ch == "Y":
                phase *= 1j
        return cls(len(body), x, z, phase)

    def to_label(self) -> str:
        """Inverse of :meth:`from_label`; always carries an explicit sign."""
        letters = []
        phase = self.phase
        for j in range(self.n_qubits):
            xb = (self.x >> j) & 1
            zb = (self.z >> j) & 1
            letters.append("IXZY"[xb + 2 * zb])
            if xb and zb:
                phase *= -1j  # pull the i out of Y = i X Z
        prefix = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[_canon_phase(phase)]
        return prefix + "".join(letters)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self, up_to_phase: bool = False) -> bool:
        if self.x or self.z:
            return False
        return up_to_phase or self.phase == 1

    def commutes_with(self, other: "PauliOperator") -> bool:
        sym = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return sym % 2 == 0

    def adjoint(self) -> "PauliOperator":
        sign = -1 if (self.x & self.z).bit_count() % 2 else 1
        return PauliOperator(self.n_qubits, self.x, self.z, sign * self.phase.conjugate())

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return pauli_multiply(self, other)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; qubit 0 is the leftmost kron factor. n <= 10."""
        if self.n_qubits > 10:
            raise ValueError("to_matrix limited to n <= 10")
        out = np.array([[self.phase]])
        for j in range(self.n_qubits):
            fac = _I2
            if (self.x >> j) & 1:
                fac = fac @ _X2
            if (self.z >> j) & 1:
                fac = fac @ _Z2
            out = np.kron(out, fac)
        return out

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_label()!r})"


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact product of two Paulis, including the phase.

    Moving ``X^{q.x}`` through ``Z^{p.z}`` contributes ``(-1)^{|p.z & q.x|}``.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError("qubit count mismatch")
    sign = -1 if (p.z & q.x).bit_count() % 2 else 1
    return PauliOperator(p.n_qubits, p.x ^ q.x, p.z ^ q.z, sign * p.phase * q.phase)


def sample_pauli(rng: np.random.Generator, n_qubits: int) -> PauliOperator:
    """Uniform Hermitian Pauli on n qubits (4^n outcomes, phase-free)."""
    codes = rng.integers(0, 4, size=n_qubits)
    x = z = 0
    phase = 1 + 0j
    for j, c in enumerate(codes):
        if c in (1, 2):
            x |= 1 << j
        if c in (2, 3):
            z |= 1 << j
        if c == 2:
            phase *= 1j
    return PauliOperator(n_qubits, x, z, phase)



def sample_clifford(rng: np.random.Generator) -> int:
    """Uniform draw from the 24-element single-qubit Clifford group (its index)."""
    return int(rng.integers(24))


def after_hadamard(c) -> int:
    """The Clifford index of H applied after Clifford index ``c``."""
    return int(_CLIFF_COMPOSE[_CLIFF_WORDS.index(("h",)), c])


def _letter_pauli(letter: tuple) -> PauliOperator:
    """The signed letter ``(x, z, minus)`` as a canonical one-qubit Pauli."""
    x, z, minus = letter
    return PauliOperator(1, x, z, (-1) ** minus * 1j ** (x & z))


def x_image(c: int) -> PauliOperator:
    """``C X C^dagger`` of Clifford index ``c``, read from the letter table."""
    return _letter_pauli(_LETTER_IMAGES[c][0])


def z_image(c: int) -> PauliOperator:
    """``C Z C^dagger`` of Clifford index ``c``, read from the letter table."""
    return _letter_pauli(_LETTER_IMAGES[c][1])


# ---------------------------------------------------------------------------
# Gate lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordGate:
    """A single-qubit Clifford (its table index) applied at one qubit."""

    qubit: int
    clifford: int

    @property
    def qubits(self) -> tuple:
        return (self.qubit,)


@dataclass(frozen=True)
class NativeGate:
    """The native two-qubit entangler UZZ on an ordered qubit pair."""

    qubits: tuple

    def __post_init__(self):
        a, b = self.qubits
        if a == b:
            raise ValueError("UZZ needs two distinct qubits")


def round_gates(rounds, matchings) -> list:
    """The gates of each of the 2L rounds of ``(2L, n)`` merged Cliffords
    and ``(L, n/2, 2)`` matchings, in execution order.

    Forward round r runs its Cliffords and then UZZ on matching r; mirrored
    round ``2L - 1 - k`` runs UZZ on matching k and then its Cliffords.  The
    rounds need not form a mirror circuit.
    """
    matchings = np.asarray(matchings).tolist()
    length = len(matchings)
    out = []
    for r, cliffords in enumerate(np.asarray(rounds).tolist()):
        ones = [CliffordGate(q, c) for q, c in enumerate(cliffords)]
        if r < length:
            out.append(ones + [NativeGate(tuple(pair)) for pair in matchings[r]])
        else:
            out.append([NativeGate(tuple(pair)) for pair in matchings[2 * length - 1 - r]]
                       + ones)
    return out


def gate_list(circuit) -> list:
    """The gates of a stack of one circuit in execution order
    (``round_gates``)."""
    return [gate for gates in round_gates(circuit.rounds[0], circuit.matchings[0])
            for gate in gates]


# ---------------------------------------------------------------------------
# Conjugation rules
# ---------------------------------------------------------------------------


def _embed_1q(img: PauliOperator, qubit: int, n_qubits: int) -> PauliOperator:
    return PauliOperator(n_qubits, img.x << qubit, img.z << qubit, img.phase)


def conjugate_by_clifford(p: PauliOperator, c: int, qubit: int) -> PauliOperator:
    """Exact image ``C p C^dagger`` for single-qubit Clifford index ``c`` at ``qubit``."""
    if not 0 <= qubit < p.n_qubits:
        raise ValueError("qubit out of range")
    bit = 1 << qubit
    xq = p.x & bit
    zq = p.z & bit
    if not (xq or zq):
        return p
    res = PauliOperator(p.n_qubits, p.x & ~bit, p.z & ~bit, p.phase)
    if xq:
        res = pauli_multiply(res, _embed_1q(x_image(c), qubit, p.n_qubits))
    if zq:
        res = pauli_multiply(res, _embed_1q(z_image(c), qubit, p.n_qubits))
    return res


def conjugate_by_uzz(p: PauliOperator, pair: tuple) -> PauliOperator:
    """Exact image ``U p U^dagger`` for ``U = exp(-1j pi/4 ZZ)`` on ``pair``.

    Generator images: X_a -> Y_a Z_b, X_b -> Z_a Y_b, Z_a -> Z_a, Z_b -> Z_b.
    """
    a, b = pair
    n = p.n_qubits
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError("bad qubit pair")
    bits = (1 << a) | (1 << b)
    res = PauliOperator(n, p.x & ~bits, p.z & ~bits, p.phase)
    both_z = (1 << a) | (1 << b)
    # canonical forms: Y_a Z_b = 1j * X_a Z_a Z_b, Z_a Y_b = 1j * X_b Z_a Z_b
    if (p.x >> a) & 1:
        res = pauli_multiply(res, PauliOperator(n, 1 << a, both_z, 1j))
    if (p.x >> b) & 1:
        res = pauli_multiply(res, PauliOperator(n, 1 << b, both_z, 1j))
    if (p.z >> a) & 1:
        res = pauli_multiply(res, PauliOperator(n, 0, 1 << a))
    if (p.z >> b) & 1:
        res = pauli_multiply(res, PauliOperator(n, 0, 1 << b))
    return res


# ---------------------------------------------------------------------------
# Gate-by-gate Z-observable pass
# ---------------------------------------------------------------------------


def _letter_step(x, z, x_to_x, z_to_x, x_to_z, z_to_z, x_minus, z_minus, y_minus):
    """The letters held in ``x`` and ``z`` after one single-qubit Clifford,
    and the bits whose sign flips (masks from ``_LETTER_MASKS``)."""
    return ((x & x_to_x) ^ (z & z_to_x), (x & x_to_z) ^ (z & z_to_z),
            (x & x_minus) ^ (z & z_minus) ^ (x & z & y_minus))


def _uzz_step(xa, za, xb, zb):
    """The Z-part toggle and the sign flips of UZZ on qubits a and b.

    UZZ maps P to -i Z_a Z_b P when P anticommutes with Z_a Z_b, which is
    when ``xa ^ xb``; the sign flips when the anticommuting letter is a Y.
    """
    t = xa ^ xb
    return t, t & ((xa & za) | (xb & zb))


class ZObservables:
    """The n observables ``U Z_q U^dagger`` of a Clifford circuit U, bit-packed.

    Bit q of ``x[p]`` and ``z[p]`` is the X and Z part, at physical qubit p,
    of the image of Z_q written in Hermitian letters (Y is x = z = 1); bit q
    of ``signs`` is set when that image carries a minus sign.  Each
    :meth:`apply` appends one gate to U.
    """

    def __init__(self, n_qubits: int):
        self.x = [0] * n_qubits
        self.z = [1 << p for p in range(n_qubits)]
        self.signs = 0

    def apply(self, gate) -> None:
        if isinstance(gate, CliffordGate):
            p = gate.qubit
            self.x[p], self.z[p], flips = _letter_step(
                self.x[p], self.z[p], *_LETTER_MASKS[gate.clifford])
        else:
            a, b = gate.qubits
            t, flips = _uzz_step(self.x[a], self.z[a], self.x[b], self.z[b])
            self.z[a] ^= t
            self.z[b] ^= t
        self.signs ^= flips

    def fault_masks(self, qubits: tuple) -> list:
        """Final measurement flips of every Pauli fault on ``qubits`` placed here.

        Entry ``k = (x_a + 2 z_a) + 4 (x_b + 2 z_b)`` is the mask of outcome
        bits that fault flips, since it flips bit q iff it anticommutes with
        the current image of Z_q.  That holds when the whole circuit maps
        each Z_q to +/-Z_q (see :meth:`outcome`).
        """
        masks = [0]
        for p in qubits:
            for generator in (self.z[p], self.x[p]):
                masks += [m ^ generator for m in masks]
        return masks

    def outcome(self) -> tuple:
        """Outcome bits of ``U |0...0>`` if U maps each Z_q to +/-Z_q;
        ValueError otherwise."""
        n = len(self.z)
        if any(self.x) or self.z != [1 << p for p in range(n)]:
            raise ValueError("circuit is not a mirror (a Z image is not +/- Z)")
        return tuple((self.signs >> q) & 1 for q in range(n))


# ---------------------------------------------------------------------------
# Version-1 circuit files
# ---------------------------------------------------------------------------


def _pauli_label(codes) -> str:
    """A version-1 label such as ``"+IXZY"`` for Pauli codes (0-3 for I, X, Y, Z)."""
    return "+" + "".join("IXYZ"[c] for c in codes)


def circuit_to_v1_json(circuit) -> dict:
    """The version-1 dict of a stack of one circuit: its spec and its gate
    list."""
    gates = []
    for gate in gate_list(circuit):
        if isinstance(gate, CliffordGate):
            gates.append({"gate": "c1", "q": gate.qubit, "index": gate.clifford})
        else:
            gates.append({"gate": "uzz", "q": list(gate.qubits)})
    return {
        "version": 1,
        "n": circuit.n_qubits,
        "L": circuit.length,
        "seed": circuit.seeds[0],
        "circuit_id": circuit.circuit_ids[0],
        "layers": [{"cliffords": cliffords, "matching": matching}
                   for cliffords, matching in zip(circuit.cliffords[0].tolist(),
                                                  circuit.matchings[0].tolist())],
        "randomizing_paulis": [_pauli_label(p) for p in circuit.paulis[0, :-1].tolist()],
        "final_pauli": _pauli_label(circuit.paulis[0, -1].tolist()),
        "mirror_start": _mirror_start(circuit.n_qubits, circuit.length),
        "gates": gates,
        "expected_outcome": "".join(str(b) for b in circuit.outcome[0].tolist()),
    }
